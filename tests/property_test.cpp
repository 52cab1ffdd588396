// Property tests: deep invariants of the full pipeline, swept over
// (workload x schedule seed). These are the guarantees every provenance
// consumer relies on, checked on real executions rather than synthetic
// graphs.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/kernels.h"
#include "core/inspector.h"
#include "replay/replay.h"
#include "snapshot/consistent_cut.h"
#include "workloads/registry.h"

namespace {

using namespace inspector;
using analysis::GraphView;
namespace kernels = analysis::kernels;

using Param = std::tuple<std::string, std::uint64_t>;  // workload, seed

class PipelineProperty : public ::testing::TestWithParam<Param> {
 protected:
  runtime::ExecutionResult run() {
    const auto& [name, seed] = GetParam();
    workloads::WorkloadConfig config;
    config.threads = 4;
    config.scale = 0.12;
    core::Options options;
    options.schedule_seed = seed;
    core::Inspector insp(options);
    program_ = workloads::make_workload(name, config);
    return insp.run(program_);
  }

  runtime::Program program_;
};

TEST_P(PipelineProperty, CpgValidatesUnderEverySchedule) {
  const auto result = run();
  std::string reason;
  EXPECT_TRUE(result.graph->validate(&reason)) << reason;
}

TEST_P(PipelineProperty, AlphasAreContiguousPerThread) {
  const auto result = run();
  const auto& g = *result.graph;
  for (std::size_t t = 0; t < g.thread_count(); ++t) {
    const auto nodes = g.thread_nodes(static_cast<cpg::ThreadId>(t));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(g.node(nodes[i]).alpha, i)
          << "thread " << t << " position " << i;
    }
    // Every thread's last node is its exit.
    if (!nodes.empty()) {
      EXPECT_EQ(static_cast<int>(g.node(nodes.back()).end.kind),
                static_cast<int>(sync::SyncEventKind::kThreadExit));
    }
  }
}

TEST_P(PipelineProperty, ThunkBetasAreContiguous) {
  const auto result = run();
  for (const auto& node : result.graph->nodes()) {
    const auto thunks = result.graph->thunks(node.id);
    for (std::size_t b = 0; b < thunks.size(); ++b) {
      EXPECT_EQ(thunks[b].beta, b);
    }
  }
}

TEST_P(PipelineProperty, ControlEdgeCountIsNodesMinusThreads) {
  const auto result = run();
  const auto stats = result.graph->stats();
  EXPECT_EQ(stats.control_edges, stats.nodes - stats.threads);
}

TEST_P(PipelineProperty, ClocksGrowMonotonicallyPerThread) {
  const auto result = run();
  const auto& g = *result.graph;
  for (std::size_t t = 0; t < g.thread_count(); ++t) {
    const auto nodes = g.thread_nodes(static_cast<cpg::ThreadId>(t));
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      EXPECT_TRUE(
          g.node(nodes[i - 1]).clock.happens_before(g.node(nodes[i]).clock))
          << "thread " << t << " alpha " << i;
    }
  }
}

TEST_P(PipelineProperty, ScheduleSequenceIsStrictlyIncreasing) {
  const auto result = run();
  const auto& schedule = result.graph->schedule();
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_LT(schedule[i - 1].seq, schedule[i].seq);
  }
}

TEST_P(PipelineProperty, EveryPrefixCutIsConsistent) {
  const auto result = run();
  const auto& schedule = result.graph->schedule();
  // Sample prefixes across the schedule.
  for (std::size_t i = 0; i < schedule.size(); i += schedule.size() / 7 + 1) {
    EXPECT_TRUE(snapshot::is_consistent(schedule,
                                        snapshot::Cut{schedule[i].seq}))
        << "cut at seq " << schedule[i].seq;
  }
}

TEST_P(PipelineProperty, PtRoundTripsUnderEverySchedule) {
  const auto result = run();
  const auto v = core::Inspector::verify_pt(result);
  EXPECT_TRUE(v.ok) << v.detail;
}

TEST_P(PipelineProperty, ReplayReproducesUnderEverySchedule) {
  const auto result = run();
  EXPECT_TRUE(replay::replay_matches(program_, *result.graph,
                                     *result.memory));
}

TEST_P(PipelineProperty, DataDependenciesRespectHappensBefore) {
  const auto result = run();
  const auto& g = *result.graph;
  // Sample a handful of nodes: every reported dependency must be
  // happens-before ordered and actually share the page.
  for (std::size_t i = 0; i < g.nodes().size(); i += g.nodes().size() / 5 + 1) {
    const auto id = static_cast<cpg::NodeId>(i);
    const auto deps = kernels::data_dependencies(GraphView(g), id);
    for (const auto& e : deps) {
      EXPECT_TRUE(g.happens_before(e.from, id));
      EXPECT_TRUE(g.node(e.from).writes_page(e.object));
      EXPECT_TRUE(g.node(id).reads_page(e.object));
    }
    for (const auto& e : kernels::latest_writers(GraphView(g), id)) {
      // A latest writer is a data dependency no other writer supersedes.
      for (const auto& other : deps) {
        if (other.object == e.object) {
          EXPECT_FALSE(g.happens_before(e.from, other.from))
              << "latest writer superseded by another writer";
        }
      }
    }
  }
}

TEST_P(PipelineProperty, CommittedBytesNeverExceedWriteSetBytes) {
  const auto result = run();
  EXPECT_LE(result.stats.bytes_committed,
            result.stats.pages_committed * memtrack::kPageSize);
  EXPECT_LE(result.stats.write_faults, result.stats.page_faults);
}

std::vector<Param> sweep() {
  // Three representative workloads (scan-shaped, lock-heavy,
  // barrier-structured) x four seeds.
  std::vector<Param> params;
  for (const std::string name : {"histogram", "word_count", "streamcluster"}) {
    for (std::uint64_t seed : {0ull, 1ull, 7ull, 42ull}) {
      params.emplace_back(name, seed);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineProperty, ::testing::ValuesIn(sweep()),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
