// Fault-injection tests: the failpoint registry itself (spec parsing,
// kind semantics, the global hit counter), the store's bounded-retry
// and quarantine behaviour under injected transient and permanent
// faults, degraded-mode serving, and the crash-consistency sweep --
// kill an append at every IO step and assert the reopened store serves
// byte-identical replies from the old or the new generation, never a
// hybrid.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cpg/graph.h"
#include "history_fixtures.h"
#include "query/engine.h"
#include "query/wire.h"
#include "shard/engine.h"
#include "shard/fsck.h"
#include "shard/format.h"
#include "shard/planner.h"
#include "shard/store.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace {

using namespace inspector;
using namespace inspector::query;
namespace fixtures = inspector::fixtures;
namespace fs = std::filesystem;

using util::clear_failpoints;
using util::configure_failpoints;
using util::failpoint_hits;

/// Every test disarms on exit, so a failing assertion cannot leak an
/// armed spec into later tests' file IO.
struct FailpointGuard {
  ~FailpointGuard() { clear_failpoints(); }
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// The paginated query batch shard_compat_test compares across format
/// versions, plus the two kinds it lacks, so every query kind runs --
/// here it pins reply bytes across crash points and drives each kind
/// through the degraded path.
std::string serialized_session(QueryEngine& engine, cpg::NodeId last,
                               std::uint64_t first_page) {
  const auto paged = [](Query q, std::uint64_t page_size) {
    QueryOptions options;
    options.page_size = page_size;
    return QueryEngine::BatchItem{std::move(q), options};
  };
  const std::vector<QueryEngine::BatchItem> items = {
      paged(BackwardSliceQuery{last}, 7),
      paged(ForwardSliceQuery{0}, 5),
      paged(RacesQuery{}, 13),
      paged(TaintQuery{{0, 3, 7}, true}, 9),
      paged(CriticalPathQuery{}, 6),
      {StatsQuery{}, {}},
      {HappensBeforeQuery{0, last}, {}},
      paged(PageAccessorsQuery{first_page}, 4),
      paged(LatestWritersQuery{last}, 3),
      paged(DataDependenciesQuery{last}, 3),
      paged(InvalidateQuery{{0, 3, 7}}, 9),
  };
  const auto replies = engine.run_batch(QueryEngine::kDefaultSession, items);

  std::string out;
  std::uint64_t id = 1;
  std::vector<std::uint64_t> cursors;
  for (const auto& reply : replies) {
    out += wire::serialize_reply(id++, reply);
    out += '\n';
    if (reply.ok() && reply->cursor != 0) cursors.push_back(reply->cursor);
  }
  for (const std::uint64_t cursor : cursors) {
    while (true) {
      const auto page = engine.next(cursor);
      out += wire::serialize_reply(id++, page);
      out += '\n';
      if (!page.ok() || !page->has_more) break;
    }
  }
  return out;
}

std::string serve_store(const std::string& dir, cpg::NodeId last,
                        std::uint64_t first_page,
                        bool allow_degraded = false) {
  auto store = shard::ShardStore::open(dir);
  EXPECT_TRUE(store.ok()) << store.status().message();
  shard::ShardedQueryEngine engine(std::move(store).value(), allow_degraded);
  return serialized_session(engine, last, first_page);
}

void copy_store(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

TEST(FailpointSpec, ParseErrorsNameTheClauseAndKeepThePriorSpec) {
  FailpointGuard guard;
  const Status bad_kind = configure_failpoints("shard.read_file:explode");
  EXPECT_EQ(bad_kind.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_kind.message().find("explode"), std::string::npos)
      << bad_kind.message();
  EXPECT_FALSE(configure_failpoints("no-kind-at-all").ok());
  EXPECT_FALSE(configure_failpoints("a:error:notanumber").ok());

  // A rejected spec leaves the previously armed one active.
  const std::string path = temp_path("failpoint_spec.bin");
  ASSERT_TRUE(shard::write_file_bytes(path, {1, 2, 3}).ok());
  ASSERT_TRUE(configure_failpoints("shard.read_file:error").ok());
  EXPECT_FALSE(configure_failpoints("still:bad:kind:extra").ok());
  EXPECT_EQ(shard::read_file_bytes(path).status().code(),
            StatusCode::kUnavailable);

  // An empty spec disarms.
  ASSERT_TRUE(configure_failpoints("").ok());
  EXPECT_TRUE(shard::read_file_bytes(path).ok());
}

TEST(FailpointSpec, KindSemantics) {
  FailpointGuard guard;
  const std::string path = temp_path("failpoint_kinds.bin");
  const std::vector<std::uint8_t> payload(64, 0xAB);
  ASSERT_TRUE(shard::write_file_bytes(path, payload).ok());

  // error:N passes the first N hits, then fails every later hit.
  ASSERT_TRUE(configure_failpoints("shard.read_file:error:2").ok());
  EXPECT_TRUE(shard::read_file_bytes(path).ok());
  EXPECT_TRUE(shard::read_file_bytes(path).ok());
  EXPECT_EQ(shard::read_file_bytes(path).status().code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(shard::read_file_bytes(path).ok());

  // transient:K fails the first K hits, then passes -- the shape a
  // retry loop must survive.
  ASSERT_TRUE(configure_failpoints("shard.read_file:transient:2").ok());
  EXPECT_EQ(shard::read_file_bytes(path).status().code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(shard::read_file_bytes(path).ok());
  const auto third = shard::read_file_bytes(path);
  ASSERT_TRUE(third.ok()) << third.status().message();
  EXPECT_EQ(*third, payload);

  // torn-write persists a prefix of the bytes without syncing, then
  // fails -- the on-disk state a crash mid-write leaves behind.
  const std::string torn = temp_path("failpoint_torn.bin");
  ASSERT_TRUE(configure_failpoints("shard.write_file:torn-write").ok());
  EXPECT_FALSE(shard::write_file_bytes(torn, payload).ok());
  ASSERT_TRUE(fs::exists(torn));
  EXPECT_LT(fs::file_size(torn), payload.size());

  // delay passes (and, with 0 ms, is the pure counting kind); the
  // global hit counter counts every check, armed or not.
  ASSERT_TRUE(configure_failpoints("*:delay:0").ok());
  EXPECT_EQ(failpoint_hits(), 0u);
  EXPECT_TRUE(shard::read_file_bytes(path).ok());
  EXPECT_TRUE(shard::read_file_bytes(path).ok());
  EXPECT_EQ(failpoint_hits(), 2u);
}

TEST(FailpointStore, TransientReadsRetryUnderThePolicy) {
  FailpointGuard guard;
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(42);
  const std::string dir = temp_path("failpoint_retry");
  ASSERT_TRUE(shard::write_store(source, dir, shard::PlanOptions{3}).ok());

  shard::StoreOptions options;
  options.retry_policy.max_attempts = 3;
  options.retry_policy.initial_backoff_ms = 0;
  auto store = shard::ShardStore::open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().message();

  // Two injected transient failures sit inside the three-attempt
  // budget: the load succeeds and the stats record both retries.
  ASSERT_TRUE(configure_failpoints("shard.read_file:transient:2").ok());
  const auto loaded = store.value()->load(0);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(store.value()->stats().retries, 2u);
  EXPECT_EQ(store.value()->stats().quarantined_shards, 0u);

  // Three failures exhaust it: the shard is quarantined, and the
  // quarantine is sticky -- later loads return the same typed error
  // without touching the (now healthy) disk.
  ASSERT_TRUE(configure_failpoints("shard.read_file:transient:3").ok());
  const auto failed = store.value()->load(1);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.status().message().find("quarantined"), std::string::npos)
      << failed.status().message();
  EXPECT_NE(failed.status().message().find("shard 1"), std::string::npos)
      << failed.status().message();
  clear_failpoints();
  const auto still = store.value()->load(1);
  ASSERT_FALSE(still.ok());
  EXPECT_EQ(still.status().message(), failed.status().message());
  EXPECT_EQ(store.value()->stats().quarantined_shards, 1u);
  EXPECT_EQ(store.value()->stats().retries, 4u);

  // Reopening lifts the quarantine.
  auto reopened = shard::ShardStore::open(dir, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value()->load(1).ok());
}

TEST(FailpointStore, PermanentFaultsAreNotRetried) {
  FailpointGuard guard;
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(43);
  const std::string dir = temp_path("failpoint_permanent");
  ASSERT_TRUE(shard::write_store(source, dir, shard::PlanOptions{2}).ok());

  auto manifest = shard::ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  // Corrupt bytes are permanent: one read, one decode failure, no
  // retries, straight to quarantine.
  const std::string file = dir + "/" + manifest->shards[0].file;
  auto bytes = shard::read_file_bytes(file);
  ASSERT_TRUE(bytes.ok());
  bytes.value()[bytes->size() / 2] ^= 0xFF;
  ASSERT_TRUE(shard::write_file_bytes(file, *bytes).ok());

  shard::StoreOptions options;
  options.retry_policy.max_attempts = 5;
  options.retry_policy.initial_backoff_ms = 0;
  auto store = shard::ShardStore::open(dir, options);
  ASSERT_TRUE(store.ok());
  const auto loaded = store.value()->load(0);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.value()->stats().retries, 0u)
      << "corrupt bytes must not burn the retry budget";
  // The healthy shard still serves.
  EXPECT_TRUE(store.value()->load(1).ok());
}

TEST(FailpointStore, DegradedModeServesPartialAnswers) {
  FailpointGuard guard;
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const cpg::Graph source = fixtures::random_history(44);
  const auto last = static_cast<cpg::NodeId>(source.nodes().size() - 1);
  const std::uint64_t first_page =
      source.page_count() > 0 ? source.pages()[0] : 0;
  const std::string dir = temp_path("failpoint_degraded");
  ASSERT_TRUE(shard::write_store(source, dir, shard::PlanOptions{3}).ok());

  // On a healthy store the degraded switch changes nothing: replies
  // are byte-identical with it on and off, and no reply carries the
  // marker.
  const std::string healthy = serve_store(dir, last, first_page, false);
  EXPECT_EQ(serve_store(dir, last, first_page, true), healthy);
  EXPECT_EQ(healthy.find("\"degraded\""), std::string::npos);

  // Corrupt the last shard (the highest rank range, where `last`
  // lives).
  auto manifest = shard::ShardReader::read_manifest(dir);
  ASSERT_TRUE(manifest.ok());
  const std::string file = dir + "/" + manifest->shards.back().file;
  auto bytes = shard::read_file_bytes(file);
  ASSERT_TRUE(bytes.ok());
  bytes.value()[bytes->size() / 2] ^= 0xFF;
  ASSERT_TRUE(shard::write_file_bytes(file, *bytes).ok());

  // Default serving: queries that touch the quarantined shard fail
  // with the typed kUnavailable, and nothing is marked degraded.
  const std::string plain = serve_store(dir, last, first_page, false);
  EXPECT_NE(plain.find("\"status\":\"unavailable\""), std::string::npos);
  EXPECT_EQ(plain.find("\"degraded\""), std::string::npos);

  // Opt-in degraded serving: partial answers come back marked. The
  // anchored queries whose anchor node lives on the dead shard still
  // fail -- without the anchor there is no partial answer, only a
  // wrong one.
  const std::string degraded = serve_store(dir, last, first_page, true);
  EXPECT_NE(degraded.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(degraded.find("\"status\":\"unavailable\""), std::string::npos)
      << "anchored-on-dead-shard queries must fail even in degraded mode";

  // A query confined to a healthy shard is byte-identical to its
  // healthy-store reply in both modes: node 0's backward slice is
  // itself, entirely inside shard 0.
  const auto one_query = [&](bool allow) {
    auto store = shard::ShardStore::open(dir);
    EXPECT_TRUE(store.ok());
    shard::ShardedQueryEngine engine(std::move(store).value(), allow);
    return wire::serialize_reply(
        1, engine.run(QueryEngine::kDefaultSession, BackwardSliceQuery{0}));
  };
  const std::string untouched = one_query(false);
  EXPECT_EQ(one_query(true), untouched);
  EXPECT_NE(untouched.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(untouched.find("\"degraded\""), std::string::npos);
}

TEST(FailpointStore, CrashConsistencySweepOverEveryAppendStep) {
  FailpointGuard guard;
  fixtures::ThreadCountGuard threads;
  util::set_analysis_threads(1);
  const cpg::Graph full = fixtures::barrier_history(7, 5);
  const auto last = static_cast<cpg::NodeId>(full.nodes().size() - 1);
  const std::uint64_t first_page =
      full.page_count() > 0 ? full.pages()[0] : 0;
  const auto cut = static_cast<std::uint32_t>(full.nodes().size() * 6 / 10);
  const auto prefix = shard::rank_prefix(full, cut);
  ASSERT_TRUE(prefix.ok()) << prefix.status().message();

  const std::string base = temp_path("failpoint_sweep_base");
  fs::remove_all(base);
  ASSERT_TRUE(shard::write_store(*prefix, base, shard::PlanOptions{3}).ok());
  const std::string before = serve_store(base,
      static_cast<cpg::NodeId>(prefix->nodes().size() - 1), first_page);

  // The committed-append reply stream.
  const std::string grown = temp_path("failpoint_sweep_grown");
  copy_store(base, grown);
  ASSERT_TRUE(shard::append(grown, full).ok());
  const std::string after = serve_store(grown, last, first_page);
  EXPECT_NE(before, after);

  // Counting pass: one clean append under a pass-through wildcard
  // tells us how many IO steps there are to kill.
  const std::string counting = temp_path("failpoint_sweep_count");
  copy_store(base, counting);
  ASSERT_TRUE(configure_failpoints("*:delay:0").ok());
  ASSERT_TRUE(shard::append(counting, full).ok());
  const std::uint64_t steps = failpoint_hits();
  clear_failpoints();
  ASSERT_GT(steps, 0u);

  // Kill the append at every step. Whatever step dies, the reopened
  // store must serve exactly the old or exactly the new generation's
  // bytes -- and fsck must see only repairable debris, never damage.
  const std::string victim = temp_path("failpoint_sweep_victim");
  for (std::uint64_t n = 0; n < steps; ++n) {
    copy_store(base, victim);
    ASSERT_TRUE(
        configure_failpoints("*:error:" + std::to_string(n)).ok());
    const auto crashed = shard::append(victim, full);
    EXPECT_FALSE(crashed.ok()) << "step " << n << " did not propagate";
    clear_failpoints();

    auto store = shard::ShardStore::open(victim);
    ASSERT_TRUE(store.ok())
        << "step " << n << ": " << store.status().message();
    const shard::Manifest& m = store.value()->manifest();
    const bool committed = m.total_nodes == full.nodes().size();
    shard::ShardedQueryEngine engine(std::move(store).value());
    const std::string served = serialized_session(
        engine,
        committed ? last
                  : static_cast<cpg::NodeId>(prefix->nodes().size() - 1),
        first_page);
    EXPECT_EQ(served, committed ? after : before)
        << "step " << n << " produced a hybrid generation";

    // A crash can only leave *repairable* debris -- stranded temps and
    // unreferenced new-generation files -- never damage to the files
    // the committed manifest references.
    const auto report = shard::fsck(victim);
    ASSERT_TRUE(report.ok()) << report.status().message();
    for (const auto& i : report->issues) {
      EXPECT_TRUE(i.repairable)
          << "step " << n << " left unrepairable damage: "
          << shard::to_string(i.kind) << " " << i.file << ": " << i.detail;
    }
  }

  // And the canonical recovery: repair the last victim, re-run the
  // append, and the store serves the committed stream.
  const auto repaired =
      shard::fsck(victim, shard::FsckOptions{/*repair=*/true});
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->damaged());
  ASSERT_TRUE(shard::append(victim, full).ok());
  EXPECT_EQ(serve_store(victim, last, first_page), after);
  EXPECT_TRUE(shard::fsck(victim)->clean());
}

}  // namespace
