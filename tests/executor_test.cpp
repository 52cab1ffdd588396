// Executor tests: scheduling, blocking semantics end-to-end, native vs
// INSPECTOR equivalence, determinism, deadlock detection, stats.
#include <gtest/gtest.h>

#include "analysis/kernels.h"
#include "runtime/executor.h"
#include "workloads/common.h"

namespace {

using namespace inspector::runtime;
using inspector::analysis::GraphView;
namespace kernels = inspector::analysis::kernels;
namespace sync = inspector::sync;
using inspector::workloads::global_word;
using inspector::workloads::mutex_id;
using inspector::workloads::ScriptBuilder;

// One thread stores, spawns a child that increments, joins, reads.
Program parent_child_program() {
  Program p;
  p.name = "parent_child";
  ScriptBuilder child(1);
  child.load(global_word(0)).store(global_word(0), 11).compute(10);
  p.scripts.push_back(child.take());
  ScriptBuilder main(2);
  main.store(global_word(0), 1);
  main.spawn(0);
  main.join(0);
  main.load(global_word(0));
  main.store(global_word(1), 5);
  p.main_script = 1;
  p.scripts.push_back(main.take());
  return p;
}

TEST(Executor, RunsToCompletionNative) {
  const auto result = execute(parent_child_program(), Mode::kNative);
  EXPECT_EQ(result.stats.threads_spawned, 2u);
  EXPECT_EQ(result.memory->read_word(global_word(0)), 11u);
  EXPECT_EQ(result.memory->read_word(global_word(1)), 5u);
  EXPECT_FALSE(result.graph.has_value());
  EXPECT_GT(result.stats.sim_time_ns, 0u);
  EXPECT_GE(result.stats.work_ns, result.stats.sim_time_ns / 2);
}

TEST(Executor, InspectorProducesGraphAndSameState) {
  const auto result = execute(parent_child_program(), Mode::kInspector);
  ASSERT_TRUE(result.graph.has_value());
  std::string reason;
  EXPECT_TRUE(result.graph->validate(&reason)) << reason;
  EXPECT_EQ(result.memory->read_word(global_word(0)), 11u);
  EXPECT_EQ(result.memory->read_word(global_word(1)), 5u);
  EXPECT_GT(result.stats.page_faults, 0u);
  EXPECT_GT(result.stats.commits, 0u);
  EXPECT_GT(result.stats.pt_bytes, 0u);
}

TEST(Executor, ChildSeesParentWritesBeforeSpawn) {
  // RC guarantee through the create() release/acquire pair.
  Program p;
  p.name = "visibility";
  ScriptBuilder child(1);
  child.load(global_word(7));
  child.store(global_word(8), 1);
  p.scripts.push_back(child.take());
  ScriptBuilder main(2);
  main.store(global_word(7), 123);
  main.spawn(0);
  main.join(0);
  p.main_script = 1;
  p.scripts.push_back(main.take());

  const auto result = execute(p, Mode::kInspector);
  ASSERT_TRUE(result.graph.has_value());
  // The child's first node must read page of global 7 and be ordered
  // after the parent's pre-spawn node that wrote it.
  const auto& g = *result.graph;
  const auto deps = kernels::data_dependencies(GraphView(g), *g.find(1, 0));
  bool saw_parent_write = false;
  for (const auto& e : deps) {
    if (g.node(e.from).thread == 0) saw_parent_write = true;
  }
  EXPECT_TRUE(saw_parent_write);
}

TEST(Executor, MutexOrdersCriticalSections) {
  // Two children increment the same word under a mutex; final value
  // must reflect both (no lost update), in both modes.
  Program p;
  p.name = "mutex_order";
  for (int w = 0; w < 2; ++w) {
    ScriptBuilder b(w + 1);
    b.lock(mutex_id(0));
    b.load(global_word(0));
    b.store(global_word(w + 1), 100 + w);  // distinct marker words
    b.store(global_word(0), 7 + w);        // same word: lock-ordered
    b.unlock(mutex_id(0));
    p.scripts.push_back(b.take());
  }
  ScriptBuilder main(9);
  main.spawn(0).spawn(1);
  main.join(0).join(1);
  p.main_script = 2;
  p.scripts.push_back(main.take());

  const auto native = execute(p, Mode::kNative);
  const auto traced = execute(p, Mode::kInspector);
  EXPECT_EQ(native.memory->read_word(global_word(0)),
            traced.memory->read_word(global_word(0)))
      << "lock-ordered same-word writes must agree across modes";
  EXPECT_EQ(traced.memory->read_word(global_word(1)), 100u);
  EXPECT_EQ(traced.memory->read_word(global_word(2)), 101u);
}

TEST(Executor, BarrierSynchronizesRounds) {
  Program p;
  p.name = "barrier_rounds";
  const auto bar = inspector::workloads::barrier_id(0);
  p.barriers.push_back({bar, 2});
  for (int w = 0; w < 2; ++w) {
    ScriptBuilder b(w + 1);
    b.store(global_word(10 + w), 1);
    b.barrier_wait(bar);
    b.load(global_word(10 + (1 - w)));  // read the peer's pre-barrier write
    b.store(global_word(20 + w), 2);
    p.scripts.push_back(b.take());
  }
  ScriptBuilder main(9);
  main.spawn(0).spawn(1).join(0).join(1);
  p.main_script = 2;
  p.scripts.push_back(main.take());

  const auto result = execute(p, Mode::kInspector);
  ASSERT_TRUE(result.graph.has_value());
  const auto& g = *result.graph;
  // Each worker's post-barrier read must depend on the peer's
  // pre-barrier write.
  const auto deps = kernels::data_dependencies(GraphView(g), *g.find(2, 1));
  bool cross = false;
  for (const auto& e : deps) {
    if (g.node(e.from).thread == 1) cross = true;
  }
  EXPECT_TRUE(cross) << "barrier all-to-all dataflow missing";
}

TEST(Executor, SemaphoreProducerConsumer) {
  Program p;
  p.name = "semaphore";
  const auto sem = inspector::workloads::sem_id(0);
  p.semaphores.push_back({sem, 0});
  ScriptBuilder producer(1);
  producer.store(global_word(0), 42);
  producer.sem_post(sem);
  p.scripts.push_back(producer.take());
  ScriptBuilder consumer(2);
  consumer.sem_wait(sem);
  consumer.load(global_word(0));
  consumer.store(global_word(1), 43);
  p.scripts.push_back(consumer.take());
  ScriptBuilder main(3);
  main.spawn(1).spawn(0).join(0).join(1);  // consumer first: must block
  p.main_script = 2;
  p.scripts.push_back(main.take());

  const auto result = execute(p, Mode::kInspector);
  EXPECT_EQ(result.memory->read_word(global_word(1)), 43u);
  const auto& g = *result.graph;
  // The consumer's post-wait read depends on the producer's write.
  bool ordered = false;
  for (const auto& e : g.edges()) {
    if (e.kind == inspector::cpg::EdgeKind::kSync &&
        sync::object_kind(e.object) == sync::ObjectKind::kSemaphore) {
      ordered = true;
    }
  }
  EXPECT_TRUE(ordered);
}

TEST(Executor, CondVarWakeup) {
  Program p;
  p.name = "condvar";
  const auto m = mutex_id(0);
  const auto cv = inspector::workloads::cond_id(0);
  ScriptBuilder waiter(1);
  waiter.lock(m);
  waiter.cond_wait(cv, m);
  waiter.load(global_word(0));
  waiter.store(global_word(1), 9);
  waiter.unlock(m);
  p.scripts.push_back(waiter.take());
  ScriptBuilder signaler(2);
  signaler.compute(5000);  // let the waiter block first
  signaler.lock(m);
  signaler.store(global_word(0), 8);
  signaler.unlock(m);
  signaler.cond_signal(cv);
  p.scripts.push_back(signaler.take());
  ScriptBuilder main(3);
  main.spawn(0).spawn(1).join(0).join(1);
  p.main_script = 2;
  p.scripts.push_back(main.take());

  for (const Mode mode : {Mode::kNative, Mode::kInspector}) {
    const auto result = execute(p, mode);
    EXPECT_EQ(result.memory->read_word(global_word(1)), 9u);
  }
}

TEST(Executor, DeadlockIsDetected) {
  Program p;
  p.name = "deadlock";
  const auto sem = inspector::workloads::sem_id(0);
  p.semaphores.push_back({sem, 0});
  ScriptBuilder main(1);
  main.sem_wait(sem);  // nobody ever posts
  p.main_script = 0;
  p.scripts.push_back(main.take());
  EXPECT_THROW((void)execute(p, Mode::kNative), std::runtime_error);
}

TEST(Executor, SyncErrorsPropagate) {
  Program p;
  p.name = "bad_unlock";
  ScriptBuilder main(1);
  main.unlock(mutex_id(0));  // never locked
  p.main_script = 0;
  p.scripts.push_back(main.take());
  EXPECT_THROW((void)execute(p, Mode::kNative), sync::SyncError);
}

TEST(Executor, SpawnUnknownScriptThrows) {
  Program p;
  p.name = "bad_spawn";
  ScriptBuilder main(1);
  main.spawn(5);
  p.main_script = 0;
  p.scripts.push_back(main.take());
  EXPECT_THROW((void)execute(p, Mode::kNative), std::logic_error);
}

TEST(Executor, DeterministicAcrossRuns) {
  const Program p = parent_child_program();
  const auto a = execute(p, Mode::kInspector);
  const auto b = execute(p, Mode::kInspector);
  EXPECT_EQ(a.stats.sim_time_ns, b.stats.sim_time_ns);
  EXPECT_EQ(a.stats.page_faults, b.stats.page_faults);
  EXPECT_EQ(a.stats.pt_bytes, b.stats.pt_bytes);
  EXPECT_EQ(a.graph->nodes().size(), b.graph->nodes().size());
  EXPECT_EQ(a.graph->edges(), b.graph->edges());
}

TEST(Executor, ScheduleSeedPerturbsButStaysValid) {
  Program p;
  p.name = "seeded";
  for (int w = 0; w < 3; ++w) {
    ScriptBuilder b(w + 1);
    for (int i = 0; i < 5; ++i) {
      b.lock(mutex_id(0));
      b.load(global_word(0));
      b.store(global_word(0), static_cast<std::uint64_t>(w * 10 + i));
      b.unlock(mutex_id(0));
      b.compute(50);
    }
    p.scripts.push_back(b.take());
  }
  ScriptBuilder main(9);
  main.spawn(0).spawn(1).spawn(2).join(0).join(1).join(2);
  p.main_script = 3;
  p.scripts.push_back(main.take());

  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    CaptureOptions opts;
    opts.schedule_seed = seed;
    const auto result = execute(p, Mode::kInspector, opts);
    std::string reason;
    EXPECT_TRUE(result.graph->validate(&reason))
        << "seed " << seed << ": " << reason;
  }
}

TEST(Executor, AblationPtOffMemtrackOn) {
  CaptureOptions opts;
  opts.enable_pt = false;
  const auto result = execute(parent_child_program(), Mode::kInspector, opts);
  EXPECT_EQ(result.stats.pt_bytes, 0u);
  EXPECT_GT(result.stats.page_faults, 0u);
  ASSERT_TRUE(result.graph.has_value());
  EXPECT_EQ(result.graph->stats().thunks, 0u) << "no PT -> no thunks";
  EXPECT_GT(result.graph->stats().nodes, 0u);
}

TEST(Executor, AblationMemtrackOffPtOn) {
  CaptureOptions opts;
  opts.enable_memtrack = false;
  const auto result = execute(parent_child_program(), Mode::kInspector, opts);
  EXPECT_EQ(result.stats.page_faults, 0u);
  EXPECT_GT(result.stats.pt_bytes, 0u);
  ASSERT_TRUE(result.graph.has_value());
  const auto s = result.graph->stats();
  EXPECT_EQ(s.read_pages + s.write_pages, 0u) << "no memtrack -> no R/W sets";
  EXPECT_GT(s.thunks, 0u);
}

TEST(Executor, WorkExceedsTimeWithParallelism) {
  // With 4 parallel workers, total work must exceed end-to-end time.
  Program p;
  p.name = "parallel_work";
  for (int w = 0; w < 4; ++w) {
    ScriptBuilder b(w + 1);
    b.compute(100000);
    p.scripts.push_back(b.take());
  }
  ScriptBuilder main(9);
  for (std::uint64_t w = 0; w < 4; ++w) main.spawn(w);
  for (std::uint64_t w = 0; w < 4; ++w) main.join(w);
  p.main_script = 4;
  p.scripts.push_back(main.take());
  const auto result = execute(p, Mode::kNative);
  EXPECT_GT(result.stats.work_ns, result.stats.sim_time_ns * 3)
      << "4 threads of equal work should give ~4x work/time";
}

TEST(Executor, PerfSessionRecordsLifecycle) {
  const auto result = execute(parent_child_program(), Mode::kInspector);
  ASSERT_NE(result.perf_session, nullptr);
  bool fork = false, exit_rec = false, itrace = false;
  for (const auto& r : result.perf_session->records()) {
    if (r.type == inspector::perf::RecordType::kFork) fork = true;
    if (r.type == inspector::perf::RecordType::kExit) exit_rec = true;
    if (r.type == inspector::perf::RecordType::kItraceStart) itrace = true;
  }
  EXPECT_TRUE(fork);
  EXPECT_TRUE(exit_rec);
  EXPECT_TRUE(itrace);
  EXPECT_EQ(result.perf_session->traced_pids().size(), 2u)
      << "child joined the cgroup via fork inheritance";
}

}  // namespace
