// Offline-pipeline tests: journal capture/serialization, image
// serialization, the typed rejection of every malformed journal and
// image, and the end-to-end guarantee that perf.data + journal + image
// rebuild the *identical* CPG through core::rebuild_offline (the
// paper's perf.data post-processing path, §V-B).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/inspector.h"
#include "cpg/journal.h"
#include "cpg/serialize.h"
#include "memtrack/allocator.h"
#include "perf/data_file.h"
#include "ptsim/image.h"
#include "runtime/image_builder.h"
#include "workloads/common.h"
#include "workloads/registry.h"

namespace {

using namespace inspector;

runtime::ExecutionResult journaled_run(const std::string& name) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  core::Options options;
  options.capture_journal = true;
  core::Inspector insp(options);
  return insp.run(workloads::make_workload(name, config));
}

/// The three files a traced run persists, decoded back.
struct Artifacts {
  perf::DataFile trace;
  cpg::Journal journal;
  ptsim::Image image;
};

Artifacts artifacts_of(const runtime::ExecutionResult& result) {
  return {perf::capture(*result.perf_session), *result.journal,
          result.image->image};
}

/// Every cut at the first 512 offsets and at every 257th offset after
/// must come back as a typed kInvalidArgument naming the file kind.
template <typename Decode>
void expect_truncations_typed(const std::vector<std::uint8_t>& bytes,
                              Decode decode, const std::string& kind) {
  for (std::size_t cut = 0; cut < bytes.size();
       cut += cut < 512 ? 1 : 257) {
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    const auto decoded = decode(prefix);
    ASSERT_FALSE(decoded.ok()) << kind << " cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(decoded.status().message().rfind(kind + ": ", 0), 0u)
        << decoded.status().message();
  }
}

TEST(Journal, CapturedWhenEnabled) {
  const auto result = journaled_run("histogram");
  ASSERT_NE(result.journal, nullptr);
  EXPECT_FALSE(result.journal->ops.empty());
  // Every node corresponds to exactly one kEndSub or kThreadExit.
  std::size_t closings = 0;
  for (const auto& op : result.journal->ops) {
    if (op.kind == cpg::JournalOp::Kind::kEndSub ||
        op.kind == cpg::JournalOp::Kind::kThreadExit) {
      ++closings;
    }
  }
  EXPECT_EQ(closings, result.graph->nodes().size());
}

TEST(Journal, NotCapturedByDefault) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  core::Inspector insp;
  const auto result = insp.run(workloads::make_histogram(config));
  EXPECT_EQ(result.journal, nullptr);
}

TEST(Journal, BinaryRoundTrip) {
  const auto result = journaled_run("word_count");
  const auto back = cpg::deserialize_journal(cpg::serialize(*result.journal));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(*back, *result.journal);
}

TEST(Journal, BadMagicAndTrailingBytesAreTyped) {
  const auto result = journaled_run("histogram");
  auto bytes = cpg::serialize(*result.journal);
  bytes.push_back(0);
  auto decoded = cpg::deserialize_journal(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
  bytes[0] ^= 0xFF;
  decoded = cpg::deserialize_journal(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.status().message().rfind("journal: not a journal file", 0),
            0u)
      << decoded.status().message();
}

TEST(Journal, TruncationSweepIsTyped) {
  const auto result = journaled_run("histogram");
  expect_truncations_typed(
      cpg::serialize(*result.journal),
      [](const auto& b) { return cpg::deserialize_journal(b); }, "journal");
}

// The replay's switch has no arm for an op kind outside
// JournalOp::Kind: accepted, 9 on the release ops would silently drop
// the CPG's release edges.
TEST(Journal, UnknownOpKindIsRejected) {
  auto journal = *journaled_run("histogram").journal;
  std::size_t changed = 0;
  for (auto& op : journal.ops) {
    if (op.kind == cpg::JournalOp::Kind::kRelease) {
      op.kind = static_cast<cpg::JournalOp::Kind>(9);
      ++changed;
    }
  }
  ASSERT_GT(changed, 0u);
  const auto decoded = cpg::deserialize_journal(cpg::serialize(journal));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unknown op kind 9"),
            std::string::npos)
      << decoded.status().message();
}

TEST(Journal, UnknownEventIsRejected) {
  auto journal = *journaled_run("histogram").journal;
  journal.ops.back().event = static_cast<sync::SyncEventKind>(40);
  const auto decoded = cpg::deserialize_journal(cpg::serialize(journal));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unknown event 40"),
            std::string::npos)
      << decoded.status().message();
}

// A thread id sizes dense per-thread tables in the rebuild: one op
// naming thread 2^31 would ask for about 16 GiB.
TEST(Journal, ThreadIdsAtOrAboveTheOpCountAreRejected) {
  const auto journal = *journaled_run("histogram").journal;
  auto huge = journal;
  huge.ops[0].tid = 1u << 31;
  auto decoded = cpg::deserialize_journal(cpg::serialize(huge));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("op 0: thread 2147483648"),
            std::string::npos)
      << decoded.status().message();

  auto parent = journal;
  ASSERT_EQ(parent.ops[0].kind, cpg::JournalOp::Kind::kThreadStart);
  parent.ops[0].aux = parent.ops.size();
  decoded = cpg::deserialize_journal(cpg::serialize(parent));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("op 0: parent thread"),
            std::string::npos)
      << decoded.status().message();
}

TEST(ImageSerialize, RoundTrip) {
  workloads::WorkloadConfig config;
  config.threads = 2;
  config.scale = 0.1;
  const auto built = runtime::build_image(workloads::make_histogram(config));
  const auto back =
      ptsim::deserialize_image(ptsim::serialize_image(built.image));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->block_count(), built.image.block_count());
  EXPECT_EQ(back->segments().size(), built.image.segments().size());
  // Spot-check block lookups agree.
  for (const auto& block : built.image.blocks()) {
    const auto* b = back->block_at(block.start);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->size_bytes, block.size_bytes);
    EXPECT_EQ(static_cast<int>(b->term), static_cast<int>(block.term));
    EXPECT_EQ(b->taken_target, block.taken_target);
  }
}

TEST(ImageSerialize, BadInputIsTyped) {
  const std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5};
  const auto decoded = ptsim::deserialize_image(junk);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.status().message().rfind("image: ", 0), 0u);
}

TEST(PerfDataSerialize, TruncationSweepIsTyped) {
  const auto result = journaled_run("word_count");
  expect_truncations_typed(
      perf::serialize(perf::capture(*result.perf_session)),
      [](const auto& b) { return perf::deserialize(b); }, "perf data");
}

TEST(ImageSerialize, TruncationSweepIsTyped) {
  const auto result = journaled_run("histogram");
  expect_truncations_typed(
      ptsim::serialize_image(result.image->image),
      [](const auto& b) { return ptsim::deserialize_image(b); }, "image");
}

// FlowDecoder::run's switch has no arm for a block kind outside
// TermKind: accepted, such a block would stall the walk.
TEST(ImageSerialize, UnknownBlockKindIsRejected) {
  ptsim::Image image;
  image.add_block({0x1000, 0x10, 1, static_cast<ptsim::TermKind>(7), 0, 0});
  const auto decoded = ptsim::deserialize_image(ptsim::serialize_image(image));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unknown block kind 7"),
            std::string::npos)
      << decoded.status().message();
}

// Image::add_block rejects these with std::invalid_argument; the
// decoder returns that as a typed error.
TEST(ImageSerialize, EmptyAndOverlappingBlocksAreTyped) {
  ptsim::Image image;
  image.add_block({0x1000, 0x10, 1, ptsim::TermKind::kJump, 0x1010, 0});
  image.add_block({0x1010, 0x10, 1, ptsim::TermKind::kExit, 0, 0});
  const auto bytes = ptsim::serialize_image(image);
  // The second block's start (u64) and size (u32) are its first bytes;
  // each encoded block is 33 bytes and the last one ends the file.
  const std::size_t second = bytes.size() - 33;

  auto empty = bytes;
  for (int i = 0; i < 4; ++i) empty[second + 8 + i] = 0;
  auto decoded = ptsim::deserialize_image(empty);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("non-zero size"),
            std::string::npos)
      << decoded.status().message();

  auto overlap = bytes;
  overlap[second] = 0x08;  // start 0x1008, inside the first block
  decoded = ptsim::deserialize_image(overlap);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("overlaps"), std::string::npos)
      << decoded.status().message();
}

TEST(ImageSerialize, BlocksOutOfAddressOrderAreTyped) {
  // serialize_image writes blocks ascending; a file listing them in
  // another order is rejected, not sorted on the way in.
  ptsim::Image image;
  image.add_block({0x1000, 0x10, 1, ptsim::TermKind::kJump, 0x1010, 0});
  image.add_block({0x1010, 0x10, 1, ptsim::TermKind::kExit, 0, 0});
  auto bytes = ptsim::serialize_image(image);
  const std::size_t second = bytes.size() - 33;
  std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(second - 33),
                   bytes.begin() + static_cast<std::ptrdiff_t>(second),
                   bytes.begin() + static_cast<std::ptrdiff_t>(second));
  const auto decoded = ptsim::deserialize_image(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.status().message(),
            "image: block 1 starts below its predecessor");
}

/// One script of `ops` ops: compute, with a random conditional branch
/// every 1,000 ops and a locked store every 20,000.
runtime::ThreadScript long_script(std::uint64_t ops) {
  workloads::ScriptBuilder script(7);
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (i % 1000 == 999) {
      script.random_branch(0.5);
    } else if (i % 20'000 == 0) {
      script.lock(workloads::mutex_id(0))
          .store(workloads::global_word(i / 20'000), i)
          .unlock(workloads::mutex_id(0));
    } else {
      script.compute(1);
    }
  }
  return script.take();
}

TEST(ImageBuilder, CodeWindowsAreSizedPerScriptAndBackToBack) {
  runtime::Program program;
  program.name = "windows";
  program.scripts = {long_script(10), long_script(600'000), long_script(10)};
  const auto built = runtime::build_image(program);
  const std::uint64_t base = memtrack::AddressLayout::kCodeBase;
  const std::uint64_t window = runtime::kCodeWindow;
  // 600,000 ops of 16 bytes outgrow one 8 MiB window and take two.
  EXPECT_EQ(built.entries,
            (std::vector<std::uint64_t>{base, base + window,
                                        base + 3 * window}));
  ASSERT_EQ(built.image.segments().size(), 1u);
  EXPECT_EQ(built.image.segments()[0].base, base);
  EXPECT_EQ(built.image.segments()[0].size, 4 * window);
  const std::uint64_t ends[] = {base + window, base + 3 * window,
                                base + 4 * window};
  std::size_t script = 0;
  for (const auto& block : built.image.blocks()) {
    while (block.start >= ends[script]) ++script;
    EXPECT_LE(block.end(), ends[script]) << std::hex << block.start;
  }
}

// A one-thread program whose code outgrows one window: it captures,
// its PT cross-checks, and it rebuilds offline to the online graph.
TEST(OfflineRebuild, ScriptLargerThanOneCodeWindow) {
  runtime::Program program;
  program.name = "long_script";
  program.scripts.push_back(long_script(600'000));
  core::Options options;
  options.capture_journal = true;
  const auto run = core::Inspector(options).run(program);
  ASSERT_GT(run.image->image.segments()[0].size, runtime::kCodeWindow);
  const auto pt = core::Inspector::verify_pt(run);
  EXPECT_TRUE(pt.ok) << pt.detail;
  EXPECT_GE(pt.branches_checked, 600u);
  const auto offline = core::Inspector::rebuild_offline(run);
  ASSERT_TRUE(offline.ok()) << offline.status().message();
  EXPECT_EQ(cpg::serialize(*offline), cpg::serialize(*run.graph));
}

class OfflineRebuildTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OfflineRebuildTest, RebuildsIdenticalGraph) {
  const auto result = journaled_run(GetParam());
  const auto offline = core::Inspector::rebuild_offline(result);
  ASSERT_TRUE(offline.ok()) << offline.status().message();
  // Byte-identical graphs: nodes, clocks, sets, thunks, edges, schedule.
  EXPECT_EQ(cpg::serialize(*offline), cpg::serialize(*result.graph))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Workloads, OfflineRebuildTest,
                         ::testing::Values("histogram", "word_count",
                                           "canneal", "kmeans",
                                           "streamcluster"),
                         [](const auto& info) { return info.param; });

TEST(OfflineRebuild, RequiresJournal) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  core::Inspector insp;
  const auto result = insp.run(workloads::make_histogram(config));
  const auto offline = core::Inspector::rebuild_offline(result);
  ASSERT_FALSE(offline.ok());
  EXPECT_EQ(offline.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OfflineRebuild, RunWithoutPtRebuildsFromTheJournal) {
  // With PT off no thread has a stream, and the journal asks each for
  // 0 branches: a missing stream is an empty one, not a short one.
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  core::Options options;
  options.capture_journal = true;
  options.enable_pt = false;
  core::Inspector insp(options);
  const auto result = insp.run(workloads::make_histogram(config));
  ASSERT_EQ(result.graph->stats().thunks, 0u);
  const auto offline = core::Inspector::rebuild_offline(result);
  ASSERT_TRUE(offline.ok()) << offline.status().message();
  EXPECT_EQ(cpg::serialize(*offline), cpg::serialize(*result.graph));
}

TEST(OfflineRebuild, TruncatedTraceIsDetected) {
  auto a = artifacts_of(journaled_run("histogram"));
  // Chop one AUX stream: the journal demands more branches than it
  // decodes to (or the cut lands mid-packet and the decoder objects).
  ASSERT_FALSE(a.trace.aux.empty());
  auto& data = a.trace.aux.front().data;
  ASSERT_FALSE(data.empty());
  data.resize(data.size() / 2);
  const auto offline = core::rebuild_offline(a.trace, a.journal, a.image);
  ASSERT_FALSE(offline.ok());
  EXPECT_EQ(offline.status().code(), StatusCode::kInvalidArgument);
}

TEST(OfflineRebuild, StreamShorterThanTheJournalNamesTheOp) {
  auto a = artifacts_of(journaled_run("histogram"));
  // A gap-free but short stream: drop one AUX stream altogether.
  const auto pid = a.trace.aux.back().pid;
  a.trace.aux.pop_back();
  const auto offline = core::rebuild_offline(a.trace, a.journal, a.image);
  ASSERT_FALSE(offline.ok());
  EXPECT_EQ(offline.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(offline.status().message().find(
                "PT stream of thread " + std::to_string(pid) +
                " is shorter"),
            std::string::npos)
      << offline.status().message();
  EXPECT_EQ(offline.status().message().rfind("journal op ", 0), 0u);
}

TEST(OfflineRebuild, JournalTheRecorderRefusesIsTyped) {
  auto a = artifacts_of(journaled_run("histogram"));
  ASSERT_EQ(a.journal.ops.front().kind, cpg::JournalOp::Kind::kThreadStart);
  a.journal.ops.erase(a.journal.ops.begin());
  const auto offline = core::rebuild_offline(a.trace, a.journal, a.image);
  ASSERT_FALSE(offline.ok());
  EXPECT_EQ(offline.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(offline.status().message().rfind("journal op ", 0), 0u);
  EXPECT_NE(offline.status().message().find(
                "thread 0 used before thread_started()"),
            std::string::npos)
      << offline.status().message();
}

// Every block a kJump to its own start: the walk consumes no packet
// and, unbounded, would never end.
TEST(OfflineRebuild, PacketFreeCycleIsTypedDecodeError) {
  auto a = artifacts_of(journaled_run("histogram"));
  ptsim::Image cyclic;
  for (auto block : a.image.blocks()) {
    block.term = ptsim::TermKind::kJump;
    block.taken_target = block.start;
    cyclic.add_block(block);
  }
  const auto offline = core::rebuild_offline(a.trace, a.journal, cyclic);
  ASSERT_FALSE(offline.ok());
  EXPECT_EQ(offline.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(offline.status().message().rfind("perf data: AUX stream of pid ",
                                             0),
            0u)
      << offline.status().message();
  EXPECT_NE(offline.status().message().find("cycles"), std::string::npos);
}

TEST(OfflineRebuild, SerializedArtifactsSuffice) {
  // The full offline story: persist perf.data + journal + image,
  // reload all three, rebuild.
  const auto result = journaled_run("word_count");
  const auto trace = perf::deserialize(
      perf::serialize(perf::capture(*result.perf_session)));
  const auto journal =
      cpg::deserialize_journal(cpg::serialize(*result.journal));
  const auto image =
      ptsim::deserialize_image(ptsim::serialize_image(result.image->image));
  ASSERT_TRUE(trace.ok() && journal.ok() && image.ok());
  std::uint64_t gaps = 1;
  const auto offline = core::rebuild_offline(*trace, *journal, *image, &gaps);
  ASSERT_TRUE(offline.ok()) << offline.status().message();
  EXPECT_EQ(gaps, 0u);
  EXPECT_EQ(cpg::serialize(*offline), cpg::serialize(*result.graph));
}

}  // namespace
