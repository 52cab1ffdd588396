// Case study 2 (§VIII "Security: Dynamic Information Flow Tracking").
//
// DIFT protects against data leaks by tracking which computations were
// influenced by sensitive input and restricting what they may output.
// The CPG makes this a graph reachability problem: taint the pages of
// the sensitive input region, propagate forward along happens-before
// dataflow (write-set -> read-set), and check every output
// sub-computation against the policy. The propagation is the library's
// taint query, the same one `inspector_cli --taint` runs.
#include <iostream>
#include <memory>
#include <variant>

#include "core/inspector.h"
#include "memtrack/shared_memory.h"
#include "query/engine.h"
#include "util/page_set.h"
#include "workloads/registry.h"

int main() {
  using namespace inspector;
  std::cout << "Case study: DIFT over the CPG (paper §VIII)\n\n";

  // Run word_count: its input file is the sensitive data.
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.3;
  const auto program = workloads::make_word_count(config);
  core::Inspector insp;
  const auto result = insp.run(program);
  const auto& g = *result.graph;

  // Seed taint: every page of the mmap'ed input region.
  query::TaintQuery taint_query;
  for (const auto& w : program.input) {
    taint_query.seed_pages.push_back(memtrack::page_id_of(w.addr));
  }
  page_set_normalize(taint_query.seed_pages);
  std::cout << "tainted input pages: " << taint_query.seed_pages.size()
            << "\n";

  // A sub-computation is tainted when it reads a tainted page, or when
  // its same-thread predecessor was tainted: registers survive pthreads
  // calls, so data read before a lock() flows into the store performed
  // inside the critical section even though the page sets alone cannot
  // see it. Every page a tainted sub-computation writes becomes
  // tainted. The engine aliases the run's graph (non-owning).
  query::QueryEngine engine(
      std::shared_ptr<const cpg::Graph>(&g, [](const cpg::Graph*) {}));
  const auto reply = engine.run(taint_query);
  if (!reply.ok()) {
    std::cerr << "taint query failed: " << reply.status().message() << "\n";
    return 1;
  }
  const auto& taint = std::get<query::FlowResult>(reply->result);
  std::cout << "tainted sub-computations: " << taint.nodes.size() << " / "
            << g.nodes().size() << "\n"
            << "tainted pages after propagation: " << taint.pages.size()
            << "\n\n";

  // Policy check: pretend every thread-exit sub-computation performs an
  // output syscall (write(2) of its results). The glibc-wrapper policy
  // checker of §VIII would block the tainted ones -- the query's sinks.
  for (const cpg::NodeId id : taint.sinks) {
    std::cout << "POLICY: output at " << g.node(id)
              << " thunks=" << g.thunks(id).size()
              << " carries input-derived data -> would require review\n";
  }
  if (taint.sinks.empty()) {
    std::cout << "POLICY: no tainted output sites\n";
  }
  std::cout << "\nThe taint never leaves the provenance domain: pages the "
               "workers derived from the input (the shared count table) "
               "are tainted; unrelated pages are not.\n";
  return 0;
}
