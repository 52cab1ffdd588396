// Quickstart: run one workload under INSPECTOR, print the provenance
// overheads and a peek at the Concurrent Provenance Graph.
//
//   ./quickstart [workload] [threads]
//
// Defaults to histogram on 8 threads. Shows the fig-5 style overhead,
// the table-7 style fault counts, the fig-9 style log volume, and the
// first few CPG nodes and edges.
#include <cstdint>
#include <iostream>
#include <string>

#include "core/inspector.h"
#include "core/report.h"
#include "cpg/serialize.h"
#include "workloads/registry.h"

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "histogram";
  const std::uint32_t threads =
      argc > 2 ? static_cast<std::uint32_t>(std::stoul(argv[2])) : 8;

  inspector::workloads::WorkloadConfig config;
  config.threads = threads;
  auto program = inspector::workloads::make_workload(name, config);

  inspector::core::Inspector insp;
  auto cmp = insp.compare(program);
  const auto& t = cmp.traced.stats;

  std::cout << "workload: " << name << " (" << threads << " threads)\n"
            << "native time:     " << cmp.native.stats.sim_time_ns / 1000
            << " us\n"
            << "inspector time:  " << t.sim_time_ns / 1000 << " us\n"
            << "time overhead:   "
            << inspector::core::format_overhead(cmp.time_overhead()) << "\n"
            << "work overhead:   "
            << inspector::core::format_overhead(cmp.work_overhead()) << "\n"
            << "page faults:     " << t.page_faults << " (" << t.read_faults
            << " read / " << t.write_faults << " write)\n"
            << "commits:         " << t.commits << " ("
            << t.pages_committed << " pages, " << t.bytes_committed
            << " bytes)\n"
            << "threads spawned: " << t.threads_spawned << "\n"
            << "PT log:          " << t.pt_bytes << " bytes, "
            << t.pt_tnt_bits << " TNT bits, " << t.pt_tip_packets
            << " TIPs, " << t.pt_overflows << " overflows\n"
            << "breakdown:       threading-lib "
            << t.breakdown.threading_lib_ns / 1000 << " us, PT "
            << t.breakdown.pt_ns / 1000 << " us\n";

  const auto& graph = *cmp.traced.graph;
  const auto stats = graph.stats();
  std::cout << "\nCPG: " << stats.nodes << " sub-computations, "
            << stats.control_edges << " control edges, " << stats.sync_edges
            << " sync edges, " << stats.thunks << " thunks\n";

  std::string reason;
  std::cout << "CPG valid: " << (graph.validate(&reason) ? "yes" : reason)
            << "\n";

  auto verification = inspector::core::Inspector::verify_pt(cmp.traced);
  std::cout << "PT decode cross-check: "
            << (verification.ok ? "OK" : "MISMATCH") << " ("
            << verification.branches_checked << " branches, "
            << verification.gaps << " gaps)\n";
  if (!verification.ok) std::cout << verification.detail;

  std::cout << "\nfirst nodes:\n";
  for (std::size_t i = 0; i < graph.nodes().size() && i < 6; ++i) {
    const auto& node = graph.nodes()[i];
    std::cout << "  " << node << " thunks=" << graph.thunks(node.id).size()
              << "\n";
  }
  return verification.ok ? 0 : 1;
}
