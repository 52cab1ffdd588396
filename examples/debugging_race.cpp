// Case study 1 (§VIII "Dependability: Debugging programs").
//
// Multithreaded bugs are hard because the OS schedule is
// non-deterministic: the same binary can compute different answers on
// different runs. Core dumps say *what* the state is; the CPG says
// *why*. This example builds a program whose final answer depends on
// the lock-acquisition order (the paper's Figure-1 pattern), runs it
// under two different schedules, and asks the query engine for the
// page's writers, the latest writers and the backward slice to explain
// each outcome.
#include <cstdint>
#include <iostream>
#include <memory>
#include <variant>

#include "core/inspector.h"
#include "memtrack/shared_memory.h"
#include "query/engine.h"
#include "workloads/common.h"

namespace {

using namespace inspector;
using workloads::global_word;
using workloads::mutex_id;
using workloads::ScriptBuilder;

// The paper's Figure 1, as a runnable program:
//   T1.a: lock; x = ++y      (reads y, writes x and y)
//   T2.a: lock; y = 2 * x    (reads x, writes y)
//   T1.b: lock; y = y / 2    (reads y, writes y)
// Whether T1.b or T2.a acquires the lock first changes the final y.
runtime::Program figure1_program() {
  runtime::Program p;
  p.name = "figure1";
  const auto m = mutex_id(0);
  const auto start = workloads::barrier_id(0);
  p.barriers.push_back({start, 2});
  const std::uint64_t x = global_word(0);
  const std::uint64_t y = global_word(512);  // different page than x

  // Both threads repeatedly update y under the lock (T1 with the
  // figure's x = ++y / y = y/2 pair, T2 with y = 2*x). The final value
  // of y is whatever the *last* lock holder wrote -- and the lock
  // acquisition order is decided by OS scheduling jitter (§II).
  ScriptBuilder t1(1);
  t1.barrier_wait(start);  // both threads released together
  for (std::uint64_t i = 0; i < 8; ++i) {
    t1.lock(m);
    t1.load(y).store(y, 100 + i).store(x, 2 + i);
    t1.compute(2500);
    t1.branch(i % 2 == 0);  // the if (flag == 0) branch
    t1.unlock(m);
    t1.compute(9000);
  }
  p.scripts.push_back(t1.take());

  ScriptBuilder t2(2);
  t2.barrier_wait(start);
  for (std::uint64_t i = 0; i < 8; ++i) {
    t2.lock(m);
    t2.load(x).store(y, 200 + i);  // y = 2 * x
    t2.unlock(m);
    t2.compute(9000);
  }
  p.scripts.push_back(t2.take());

  ScriptBuilder main(3);
  main.store(y, 1);  // y = 1 initially
  main.spawn(0).spawn(1).join(0).join(1);
  main.load(y);
  p.main_script = 2;
  p.scripts.push_back(main.take());
  return p;
}

bool explain(const runtime::ExecutionResult& result, std::uint64_t y_addr) {
  const auto& g = *result.graph;
  const std::uint64_t y_page = memtrack::page_id_of(y_addr);
  // The main thread's final read of y, and the three questions about
  // it. The engine aliases the run's graph (non-owning).
  const cpg::NodeId last_main = g.thread_nodes(0).back();
  query::QueryEngine engine(
      std::shared_ptr<const cpg::Graph>(&g, [](const cpg::Graph*) {}));
  const auto accessors = engine.run(query::PageAccessorsQuery{y_page});
  const auto latest = engine.run(query::LatestWritersQuery{last_main});
  const auto slice = engine.run(query::BackwardSliceQuery{last_main});
  for (const auto* reply : {&accessors, &latest, &slice}) {
    if (!reply->ok()) {
      std::cerr << "query failed: " << reply->status().message() << "\n";
      return false;
    }
  }

  std::cout << "  final y-word = "
            << result.memory->read_word(y_addr) << "\n";

  // Who wrote y, in happens-before order?
  std::cout << "  writers of y's page, with order:\n";
  for (auto w : std::get<query::PageAccessorsResult>(accessors->result)
                    .writers) {
    std::cout << "    " << g.node(w) << " thunks=" << g.thunks(w).size()
              << "\n";
  }
  // Which writer does main's final read actually see?
  for (const auto& e : std::get<query::EdgeListResult>(latest->result).edges) {
    if (e.object == y_page) {
      const auto& n = g.node(e.from);
      std::cout << "  main's final read of y is explained by thread "
                << n.thread << "'s sub-computation alpha=" << n.alpha
                << "\n";
      std::cout << "  full provenance slice of that read: ";
      for (auto id : std::get<query::NodeListResult>(slice->result).nodes) {
        std::cout << "L" << g.node(id).thread << "[" << g.node(id).alpha
                  << "] ";
      }
      std::cout << "\n";
    }
  }
  return true;
}

}  // namespace

int main() {
  std::cout << "Case study: explaining a schedule-dependent result "
               "(paper §VIII, figure 1)\n\n";
  const auto program = figure1_program();
  const std::uint64_t y = global_word(512);

  // Sweep schedules: the OS race makes different seeds compute
  // different final values of y.
  std::uint64_t first_seed = 0, second_seed = 0;
  std::uint64_t first_value = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    core::Options options;
    options.schedule_seed = seed;
    // Model a loaded machine: preemptions and IRQs add tens of
    // microseconds of per-slice noise, enough to reorder the lock
    // acquisitions of the two racing threads.
    options.schedule_jitter_ns = 120'000;
    const auto result = core::Inspector(options).run(program);
    const std::uint64_t value = result.memory->read_word(y);
    if (first_seed == 0) {
      first_seed = seed;
      first_value = value;
    } else if (value != first_value && second_seed == 0) {
      second_seed = seed;
    }
  }
  std::cout << "swept 32 schedules: found "
            << (second_seed != 0 ? "two" : "one")
            << " distinct outcome(s)\n\n";

  for (std::uint64_t seed : {first_seed, second_seed}) {
    if (seed == 0) continue;
    core::Options options;
    options.schedule_seed = seed;
    options.schedule_jitter_ns = 120'000;
    const auto result = core::Inspector(options).run(program);
    std::cout << "schedule seed " << seed << ":\n";
    if (!explain(result, y)) return 1;
    std::cout << "\n";
  }
  std::cout << "The runs disagree on y; the CPG pinpoints the "
               "interleaving (schedule edges) and the exact "
               "sub-computation whose write each read observed -- the "
               "\"why\" that a core dump cannot provide.\n";
  return 0;
}
