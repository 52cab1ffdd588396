#include "core/inspector.h"

#include <map>
#include <span>
#include <sstream>
#include <vector>

#include "cpg/offline.h"
#include "ptsim/flow.h"

namespace inspector::core {

double Comparison::time_overhead() const {
  if (native.stats.sim_time_ns == 0) return 0.0;
  return static_cast<double>(traced.stats.sim_time_ns) /
         static_cast<double>(native.stats.sim_time_ns);
}

double Comparison::work_overhead() const {
  if (native.stats.work_ns == 0) return 0.0;
  return static_cast<double>(traced.stats.work_ns) /
         static_cast<double>(native.stats.work_ns);
}

runtime::ExecutionResult Inspector::run(
    const runtime::Program& program) const {
  return runtime::execute(program, runtime::Mode::kInspector, options_);
}

runtime::ExecutionResult Inspector::run_native(
    const runtime::Program& program) const {
  return runtime::execute(program, runtime::Mode::kNative, options_);
}

Comparison Inspector::compare(const runtime::Program& program) const {
  return Comparison{run_native(program), run(program)};
}

namespace {

/// One traced process's control flow as the recorder keeps it: the
/// branch records of its thunks, in retirement order.
struct DecodedStream {
  std::vector<cpg::BranchRecord> branches;
  std::uint64_t gaps = 0;
};

/// The one PT-event -> BranchRecord conversion, shared by the offline
/// rebuild and the PT cross-check.
Result<DecodedStream> decode_stream(perf::Pid pid,
                                    std::span<const std::uint8_t> aux,
                                    const ptsim::Image& image) {
  try {
    ptsim::FlowDecoder decoder(image, aux);
    const ptsim::FlowResult flow = decoder.run();
    DecodedStream out;
    out.gaps = flow.gaps;
    for (const auto& e : flow.events) {
      using K = ptsim::BranchEvent::Kind;
      if (e.kind == K::kConditional) {
        out.branches.push_back({e.ip, e.target, e.taken, false});
      } else if (e.kind == K::kIndirect) {
        out.branches.push_back({e.ip, e.target, true, true});
      }
    }
    return out;
  } catch (const ptsim::DecodeError& e) {
    return Status(StatusCode::kInvalidArgument,
                  "perf data: AUX stream of pid " + std::to_string(pid) +
                      ": " + e.what());
  }
}

}  // namespace

Result<cpg::Graph> rebuild_offline(const perf::DataFile& trace,
                                   const cpg::Journal& journal,
                                   const ptsim::Image& image,
                                   std::uint64_t* gaps) {
  std::map<cpg::ThreadId, std::vector<cpg::BranchRecord>> branches;
  std::uint64_t total_gaps = 0;
  for (const auto& stream : trace.aux) {
    auto decoded = decode_stream(stream.pid, stream.data, image);
    if (!decoded.ok()) return decoded.status();
    total_gaps += decoded->gaps;
    branches[stream.pid] = std::move(decoded).value().branches;
  }
  if (gaps != nullptr) *gaps = total_gaps;
  return cpg::rebuild_from_journal(journal, branches);
}

Result<cpg::Graph> Inspector::rebuild_offline(
    const runtime::ExecutionResult& result) {
  if (result.journal == nullptr || result.perf_session == nullptr ||
      result.image == nullptr) {
    return Status(StatusCode::kFailedPrecondition,
                  "rebuild_offline: run under INSPECTOR with "
                  "Options::capture_journal = true");
  }
  return core::rebuild_offline(perf::capture(*result.perf_session),
                               *result.journal, result.image->image);
}

PtVerification Inspector::verify_pt(const runtime::ExecutionResult& result) {
  PtVerification v;
  if (!result.graph.has_value() || result.perf_session == nullptr ||
      result.image == nullptr) {
    v.detail = "no PT data in result (native run or PT disabled)";
    return v;
  }
  std::ostringstream detail;
  v.ok = true;
  const cpg::Graph& graph = *result.graph;
  auto& session = *result.perf_session;

  for (perf::Pid pid : session.traced_pids()) {
    const auto flow =
        decode_stream(pid, session.trace_for(pid), result.image->image);
    if (!flow.ok()) {
      ++v.mismatches;
      v.ok = false;
      detail << flow.status().message() << "\n";
      continue;
    }
    v.gaps += flow->gaps;
    if (flow->gaps != 0) continue;  // lossy trace: skip the strict check

    // Recorded thunks of this thread, in execution order.
    std::vector<cpg::BranchRecord> recorded;
    for (cpg::NodeId id : graph.thread_nodes(pid)) {
      const cpg::ThunkSpan thunks = graph.thunks(id);
      for (std::size_t b = 0; b < thunks.size(); ++b) {
        recorded.push_back(thunks[b].branch);
      }
    }
    const std::vector<cpg::BranchRecord>& decoded = flow->branches;

    ++v.threads_checked;
    const std::size_t n = std::min(recorded.size(), decoded.size());
    if (recorded.size() != decoded.size()) {
      ++v.mismatches;
      v.ok = false;
      detail << "pid " << pid << ": " << recorded.size()
             << " recorded vs " << decoded.size() << " decoded branches\n";
    }
    for (std::size_t i = 0; i < n; ++i) {
      ++v.branches_checked;
      if (!(recorded[i] == decoded[i])) {
        ++v.mismatches;
        v.ok = false;
        detail << "pid " << pid << " branch " << i << " differs\n";
        break;
      }
    }
  }
  v.detail = detail.str();
  return v;
}

}  // namespace inspector::core
