// INSPECTOR public API.
//
// The paper's library is LD_PRELOADed under an unmodified binary; here
// the equivalent entry point takes a Program (the simulated binary) and
// runs it under the full provenance stack -- threads-as-processes with
// MMU tracking (§V-A), Intel PT control-flow tracing through the perf
// layer (§V-B), and the optional live-snapshot facility (§VI) --
// returning the Concurrent Provenance Graph plus every statistic the
// evaluation reports.
//
// Quick start:
//
//   inspector::core::Inspector insp;                 // default options
//   auto program = workloads::make_histogram({.threads = 8});
//   auto run = insp.run(program);                    // traced execution
//   const cpg::Graph& g = *run.graph;                // the CPG
//   auto cmp = insp.compare(program);                // vs native pthreads
//   std::cout << cmp.time_overhead();                // fig-5 number
#pragma once

#include <cstdint>
#include <string>

#include "cpg/graph.h"
#include "cpg/journal.h"
#include "perf/data_file.h"
#include "ptsim/image.h"
#include "runtime/executor.h"
#include "runtime/program.h"
#include "util/status.h"

namespace inspector::core {

/// User-facing knobs: the capture settings runtime::execute takes.
using Options = runtime::CaptureOptions;

/// Side-by-side native/INSPECTOR runs of the same program.
struct Comparison {
  runtime::ExecutionResult native;
  runtime::ExecutionResult traced;

  /// Fig-5 metric: INSPECTOR end-to-end time / native time.
  [[nodiscard]] double time_overhead() const;
  /// The work metric (total CPU across threads) of the tech report.
  [[nodiscard]] double work_overhead() const;
};

/// Result of cross-checking the decoded PT trace against the recorded
/// thunks (the two independent control-flow paths of the pipeline).
struct PtVerification {
  bool ok = false;
  std::size_t threads_checked = 0;
  std::uint64_t branches_checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t gaps = 0;  ///< overflow gaps (strict check skipped if > 0)
  std::string detail;
};

class Inspector {
 public:
  Inspector() = default;
  explicit Inspector(Options options) : options_(options) {}

  /// Run `program` under the INSPECTOR library: returns the CPG, perf
  /// session (PT traces), snapshots, and stats.
  [[nodiscard]] runtime::ExecutionResult run(
      const runtime::Program& program) const;

  /// Run `program` under plain pthreads (the baseline).
  [[nodiscard]] runtime::ExecutionResult run_native(
      const runtime::Program& program) const;

  /// Run both and pair them up.
  [[nodiscard]] Comparison compare(const runtime::Program& program) const;

  /// Decode every traced process's PT stream against the binary image
  /// and compare with the thunks recorded in the CPG. Exercises the
  /// full encoder -> AUX -> decoder -> flow-reconstruction pipeline. A
  /// stream the flow decoder rejects counts as a mismatch.
  [[nodiscard]] static PtVerification verify_pt(
      const runtime::ExecutionResult& result);

  /// Rebuild the CPG offline from the run's perf session, journal and
  /// image through core::rebuild_offline. The result is bit-identical
  /// to the online graph, PT or not: a run with enable_pt = false
  /// journals no branches and has no streams to decode.
  /// kFailedPrecondition when the run captured no journal
  /// (Options::capture_journal) or ran natively.
  [[nodiscard]] static Result<cpg::Graph> rebuild_offline(
      const runtime::ExecutionResult& result);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

/// The offline pipeline of §V-B, written once: decode every AUX stream
/// of `trace` (a run's perf.data) against `image`, then replay
/// `journal` over the decoded branch streams into the CPG. A stream
/// the flow decoder rejects, a stream shorter than the journal demands
/// and a journal the recorder refuses are kInvalidArgument naming the
/// pid or the journal op; no exception leaves this function. When
/// `gaps` is non-null it receives the overflow gaps the decode crossed.
[[nodiscard]] Result<cpg::Graph> rebuild_offline(
    const perf::DataFile& trace, const cpg::Journal& journal,
    const ptsim::Image& image, std::uint64_t* gaps = nullptr);

}  // namespace inspector::core
