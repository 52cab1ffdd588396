// perf.data container tests: capture, binary round trip, the typed
// rejection of malformed bytes, and offline decoding of a persisted
// trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/inspector.h"
#include "perf/data_file.h"
#include "ptsim/flow.h"
#include "workloads/registry.h"

namespace {

using namespace inspector;

perf::DataFile sample_file() {
  perf::PerfSession session("inspector");
  session.attach_root(1, 0);
  session.on_mmap(1, 0x7F0000000000, 4096, "input.bin", 1);
  session.on_fork(1, 2, 2);
  auto* e1 = session.encoder_for(1);
  e1->on_enable(0x1000);
  for (int i = 0; i < 100; ++i) e1->on_conditional(i % 2 == 0);
  e1->on_disable();
  auto* e2 = session.encoder_for(2);
  e2->on_enable(0x2000);
  e2->on_indirect(0x3000);
  e2->on_disable();
  session.on_exit(2, 9);
  session.on_exit(1, 10);
  return perf::capture(session);
}

TEST(PerfData, CaptureCollectsRecordsAndStreams) {
  const auto file = sample_file();
  EXPECT_GE(file.records.size(), 6u);
  ASSERT_EQ(file.aux.size(), 2u);
  EXPECT_EQ(file.aux[0].pid, 1u);
  EXPECT_EQ(file.aux[1].pid, 2u);
  EXPECT_FALSE(file.aux[0].data.empty());
}

TEST(PerfData, BinaryRoundTrip) {
  const auto file = sample_file();
  const auto back = perf::deserialize(perf::serialize(file));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->records, file.records);
  ASSERT_EQ(back->aux.size(), file.aux.size());
  for (std::size_t i = 0; i < file.aux.size(); ++i) {
    EXPECT_EQ(back->aux[i].pid, file.aux[i].pid);
    EXPECT_EQ(back->aux[i].data, file.aux[i].data);
  }
}

void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& needle) {
  const auto decoded = perf::deserialize(bytes);
  ASSERT_FALSE(decoded.ok()) << needle;
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.status().message().rfind("perf data: ", 0), 0u)
      << decoded.status().message();
  EXPECT_NE(decoded.status().message().find(needle), std::string::npos)
      << decoded.status().message();
}

TEST(PerfData, BadMagicTruncationAndTrailingBytesAreTyped) {
  auto bytes = perf::serialize(sample_file());
  auto corrupt = bytes;
  corrupt[0] ^= 0xFF;
  expect_rejected(corrupt, "not a perf data file");
  auto trailing = bytes;
  trailing.push_back(0);
  expect_rejected(trailing, "1 trailing bytes");
  bytes.resize(bytes.size() / 3);
  expect_rejected(bytes, "");
}

// A count the remaining bytes cannot hold is rejected before any
// reserve(): honoring a record count of 2^40 ends in std::bad_alloc.
TEST(PerfData, ImplausibleCountsAreTyped) {
  auto bytes = perf::serialize(sample_file());
  for (int i = 0; i < 8; ++i) bytes[4 + i] = 0;
  bytes[4 + 5] = 0x01;  // record count 2^40 (u64 after the magic)
  expect_rejected(bytes, "implausible record length 1099511627776");
}

TEST(PerfData, UnknownRecordTypeIsRejected) {
  auto bytes = perf::serialize(sample_file());
  bytes[12] = 200;  // the first record's type, after magic and count
  expect_rejected(bytes, "unknown record type 200 at offset 12");
}

// Two streams for one pid would let the rebuild pick either.
TEST(PerfData, DuplicateStreamPidIsRejected) {
  auto file = sample_file();
  ASSERT_EQ(file.aux.size(), 2u);
  file.aux[1].pid = file.aux[0].pid;
  expect_rejected(perf::serialize(file), "a second AUX stream for pid 1");
}

TEST(PerfData, PersistedTraceDecodesOffline) {
  // Full offline loop: run a workload, persist the session, reload it,
  // decode the loaded AUX data against the image -- the "perf script"
  // post-processing of §V-B.
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.15;
  const auto program = workloads::make_string_match(config);
  core::Inspector insp;
  const auto result = insp.run(program);

  const auto back =
      perf::deserialize(perf::serialize(perf::capture(*result.perf_session)));
  ASSERT_TRUE(back.ok()) << back.status().message();

  std::uint64_t decoded_branches = 0;
  for (const auto& stream : back->aux) {
    ptsim::FlowDecoder decoder(result.image->image, stream.data);
    const auto flow = decoder.run();
    for (const auto& e : flow.events) {
      if (e.kind == ptsim::BranchEvent::Kind::kConditional ||
          e.kind == ptsim::BranchEvent::Kind::kIndirect) {
        ++decoded_branches;
      }
    }
  }
  EXPECT_EQ(decoded_branches, result.stats.branches)
      << "offline decode of the persisted trace must see every branch";
}

}  // namespace
