// Bonus workflow (§I): incremental computation from provenance
// (the iThreads/Incoop lineage the paper cites).
//
// Run histogram once, record its CPG, then pretend a few input pages
// changed (one worker's chunk). Change propagation over the CPG tells
// us exactly which sub-computations must re-run; everything else can be
// reused. The experiment shows the reuse fraction for localized edits.
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "core/inspector.h"
#include "core/report.h"
#include "memtrack/shared_memory.h"
#include "query/engine.h"
#include "workloads/registry.h"

int main() {
  using namespace inspector;
  std::cout << "Workflow: incremental re-execution from the CPG\n\n";

  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.4;
  const auto program = workloads::make_histogram(config);
  core::Inspector insp;
  const auto result = insp.run(program);
  const auto& graph = *result.graph;
  const std::size_t total = graph.nodes().size();
  // The engine aliases the run's graph (non-owning).
  query::QueryEngine engine(
      std::shared_ptr<const cpg::Graph>(&graph, [](const cpg::Graph*) {}));
  // Nodes that must re-run when `changed` pages differ.
  const auto dirty_nodes =
      [&](const PageSet& changed) -> std::optional<std::size_t> {
    const auto reply = engine.run(query::InvalidateQuery{changed});
    if (!reply.ok()) {
      std::cerr << "invalidate query failed: " << reply.status().message()
                << "\n";
      return std::nullopt;
    }
    return std::get<query::FlowResult>(reply->result).nodes.size();
  };

  // Input pages, in address order.
  std::vector<std::uint64_t> input_pages;
  for (const auto& w : program.input) {
    input_pages.push_back(memtrack::page_id_of(w.addr));
  }

  core::Table table({"changed_pages", "dirty_nodes", "total_nodes", "reuse"});
  for (std::size_t changed : {1u, 4u, 16u, 64u}) {
    PageSet delta;
    for (std::size_t i = 0; i < changed && i < input_pages.size(); ++i) {
      delta.push_back(input_pages[i]);
    }
    page_set_normalize(delta);
    const auto dirty = dirty_nodes(delta);
    if (!dirty) return 1;
    // Reuse: the fraction of the graph that need not re-run.
    const double reuse = 1.0 - static_cast<double>(*dirty) /
                                   static_cast<double>(total);
    table.add_row({std::to_string(delta.size()), std::to_string(*dirty),
                   std::to_string(total),
                   core::format_fixed(100.0 * reuse, 1) + "%"});
  }
  std::cout << table << "\n";

  // Whole-input change: everything that touches input re-runs.
  const auto full =
      dirty_nodes(PageSet(input_pages.begin(), input_pages.end()));
  if (!full) return 1;
  std::cout << "whole-input change: " << *full << "/" << total
            << " sub-computations re-run (the non-reader remainder is "
               "spawn/join bookkeeping)\n\n"
            << "Localized edits invalidate only the owning worker's chain "
               "plus the downstream merge -- the CPG is the memoization "
               "index an incremental scheduler needs.\n";
  return 0;
}
