// Inspector-facade and report tests: options plumbing, comparisons,
// snapshots-during-run, PT verification plumbing, table formatting.
#include <gtest/gtest.h>

#include "core/inspector.h"
#include "core/report.h"
#include "snapshot/consistent_cut.h"
#include "workloads/registry.h"

namespace {

using namespace inspector::core;
using inspector::workloads::WorkloadConfig;

WorkloadConfig tiny() {
  WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.2;
  return config;
}

TEST(InspectorFacade, CompareProducesBothRuns) {
  Inspector insp;
  const auto cmp =
      insp.compare(inspector::workloads::make_histogram(tiny()));
  EXPECT_EQ(cmp.native.mode, inspector::runtime::Mode::kNative);
  EXPECT_EQ(cmp.traced.mode, inspector::runtime::Mode::kInspector);
  EXPECT_FALSE(cmp.native.graph.has_value());
  EXPECT_TRUE(cmp.traced.graph.has_value());
  EXPECT_GT(cmp.time_overhead(), 1.0);
  EXPECT_GT(cmp.work_overhead(), 1.0);
}

TEST(InspectorFacade, VerifyPtRejectsNativeRun) {
  Inspector insp;
  const auto native =
      insp.run_native(inspector::workloads::make_histogram(tiny()));
  const auto v = Inspector::verify_pt(native);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.detail.find("no PT data"), std::string::npos);
}

TEST(InspectorFacade, SnapshotRingFillsDuringRun) {
  Options options;
  options.snapshot_every_syncs = 8;
  options.snapshot_ring_slots = 4;
  Inspector insp(options);
  const auto result =
      insp.run(inspector::workloads::make_word_count(tiny()));
  EXPECT_GT(result.stats.snapshots_taken, 0u);
  ASSERT_NE(result.snapshots, nullptr);
  EXPECT_GT(result.snapshots->occupied(), 0u);

  // Every stored snapshot must be a valid, causally-closed CPG prefix.
  auto& ring = *result.snapshots;
  auto snap = ring.consume();
  for (; snap.ok(); snap = ring.consume()) {
    std::string reason;
    EXPECT_TRUE(snap->validate(&reason)) << reason;
    EXPECT_TRUE(inspector::snapshot::is_causally_closed(*result.graph, *snap));
    EXPECT_LE(snap->nodes().size(), result.graph->nodes().size());
  }
  EXPECT_EQ(snap.status().code(), inspector::StatusCode::kExhausted)
      << snap.status().message();
}

TEST(InspectorFacade, SnapshotAuxModeStillTraces) {
  Options options;
  options.aux_mode = inspector::ptsim::RingMode::kSnapshot;
  options.aux_buffer_bytes = 4096;  // tiny window: old data overwritten
  Inspector insp(options);
  const auto result =
      insp.run(inspector::workloads::make_histogram(tiny()));
  EXPECT_GT(result.stats.pt_bytes, 0u);
  ASSERT_TRUE(result.graph.has_value());
  std::string reason;
  EXPECT_TRUE(result.graph->validate(&reason)) << reason;
}

TEST(InspectorFacade, TinyAuxBufferCausesGapsNotCrashes) {
  Options options;
  options.aux_buffer_bytes = 128;  // full-trace mode, overflows certain
  options.aux_drain_interval_quanta = 1u << 30;  // perf never keeps up
  Inspector insp(options);
  const auto result =
      insp.run(inspector::workloads::make_string_match(tiny()));
  EXPECT_GT(result.stats.pt_overflows, 0u)
      << "perf that cannot keep up produces trace gaps (§V-B)";
  // The CPG is still complete: gaps only affect the PT byte stream.
  std::string reason;
  EXPECT_TRUE(result.graph->validate(&reason)) << reason;
  // The flow decoder reports the gaps instead of failing.
  const auto v = Inspector::verify_pt(result);
  EXPECT_GT(v.gaps, 0u);
}

TEST(InspectorFacade, CostModelIsAdjustable) {
  Options cheap;
  cheap.costs.page_fault_ns = 0;
  cheap.costs.process_create_extra_ns = 0;
  cheap.costs.process_child_startup_ns = 0;
  cheap.costs.pt_branch_ns = 0;
  cheap.costs.pt_byte_ns = 0.0;
  cheap.costs.sync_extra_ns = 0;
  cheap.costs.commit_base_ns = 0;
  cheap.costs.commit_page_ns = 0;
  Inspector cheap_insp(cheap);
  Inspector default_insp;
  auto program = inspector::workloads::make_histogram(tiny());
  const auto cheap_cmp = cheap_insp.compare(program);
  const auto default_cmp = default_insp.compare(program);
  EXPECT_LT(cheap_cmp.time_overhead(), default_cmp.time_overhead());
  EXPECT_NEAR(cheap_cmp.time_overhead(), 1.0, 0.1)
      << "with zero provenance costs INSPECTOR ~= native";
}

// --- report/table formatting ------------------------------------------

TEST(Report, TableAlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Report, TableRejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Report, Formatters) {
  EXPECT_EQ(format_overhead(2.345), "2.35x");
  EXPECT_EQ(format_sci(1.16e6), "1.16e+06");
  EXPECT_EQ(format_mb(183ull << 20), "183.0 MB");
  EXPECT_EQ(format_fixed(3.14159, 3), "3.142");
}

}  // namespace
