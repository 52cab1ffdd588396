// Micro-benchmarks (google-benchmark) for the substrate hot paths: PT
// encode/decode throughput, flow reconstruction, page-fault tracking,
// twin diff commits, LZ compression, vector-clock merges, CPG queries.
// Not a paper table; used to keep the simulator fast enough to sweep.
//
// `bench_micro --threshold-check` switches to a self-timing mode that
// holds the rewritten hot kernels to named floors against their
// in-tree scalar baselines (detail::*_scalar in util/page_set.h, the
// clock-compare happens-before) and varint decode, LZ decode and the
// stripe_hash checksum to relative throughput floors against memcpy
// (the latter two on a real shard body). One JSON line per check on stdout;
// any violated floor prints to stderr and exits 1 -- the CI teeth
// that keep the speed pass from quietly regressing. Debug builds skip
// the checks (exit 0): unoptimized timings measure the compiler, not
// the kernels.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <string_view>
#include <unistd.h>

#include "util/page_set.h"
#include "util/varint.h"

#include "analysis/kernels.h"
#include "bench_json.h"
#include "core/inspector.h"
#include "cpg/recorder.h"
#include "memtrack/thread_memory.h"
#include "ptsim/decoder.h"
#include "ptsim/encoder.h"
#include "ptsim/flow.h"
#include "ptsim/sink.h"
#include "shard/format.h"
#include "shard/planner.h"
#include "snapshot/compress.h"
#include "vclock/vector_clock.h"
#include "workloads/registry.h"

namespace {

using namespace inspector;

void BM_PtEncodeConditional(benchmark::State& state) {
  ptsim::CountingSink sink;
  ptsim::PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  std::uint64_t i = 0;
  for (auto _ : state) {
    enc.on_conditional((i++ & 3) != 0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PtEncodeConditional);

void BM_PtEncodeIndirect(benchmark::State& state) {
  ptsim::CountingSink sink;
  ptsim::PacketEncoder enc(sink);
  enc.on_enable(0x400000);
  std::uint64_t target = 0x400000;
  for (auto _ : state) {
    target = 0x400000 + ((target * 2654435761u) & 0xFFFF);
    enc.on_indirect(target);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PtEncodeIndirect);

std::vector<std::uint8_t> sample_trace(int branches) {
  ptsim::VectorSink sink;
  ptsim::PacketEncoder enc(sink);
  enc.on_enable(0x1000);
  std::mt19937_64 rng(1);
  for (int i = 0; i < branches; ++i) enc.on_conditional((rng() & 1) != 0);
  enc.flush();
  return sink.take();
}

void BM_PtDecodePackets(benchmark::State& state) {
  const auto trace = sample_trace(100000);
  for (auto _ : state) {
    ptsim::PacketDecoder dec(trace);
    std::uint64_t bits = 0;
    while (auto p = dec.next()) {
      if (p->type == ptsim::PacketType::kTnt) bits += p->tnt.count;
    }
    benchmark::DoNotOptimize(bits);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_PtDecodePackets);

void BM_PageFaultTracking(benchmark::State& state) {
  memtrack::SharedMemory shm;
  memtrack::ThreadMemory tm(shm);
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    tm.begin_subcomputation();
    for (std::uint64_t p = 0; p < pages; ++p) {
      tm.write_word(p * memtrack::kPageSize, p);
    }
    benchmark::DoNotOptimize(tm.commit());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages));
}
BENCHMARK(BM_PageFaultTracking)->Arg(8)->Arg(64)->Arg(512);

void BM_CommitDiff(benchmark::State& state) {
  memtrack::SharedMemory shm;
  memtrack::ThreadMemory tm(shm);
  for (auto _ : state) {
    state.PauseTiming();
    tm.begin_subcomputation();
    for (std::uint64_t w = 0; w < 64; ++w) tm.write_word(0x1000 + w * 8, w);
    state.ResumeTiming();
    benchmark::DoNotOptimize(tm.commit());
  }
}
BENCHMARK(BM_CommitDiff);

void BM_LzCompressPtTrace(benchmark::State& state) {
  const auto trace = sample_trace(200000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot::compress(trace));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_LzCompressPtTrace);

void BM_VectorClockMerge(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  vclock::VectorClock a(width), b(width);
  for (std::size_t i = 0; i < width; ++i) {
    a.set(i, i * 3);
    b.set(i, i * 5 % 7);
  }
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_VectorClockMerge)->Arg(16)->Arg(128)->Arg(512);

void BM_RecorderSubcomputation(benchmark::State& state) {
  for (auto _ : state) {
    cpg::Recorder rec;
    rec.thread_started(0, 0);
    const PageSet reads = {1, 2, 3};
    const PageSet writes = {4};
    for (int i = 0; i < 100; ++i) {
      rec.on_branch(0, {0x1000, 0x1040, true, false});
      rec.end_subcomputation(
          0, reads, writes,
          {inspector::sync::SyncEventKind::kMutexLock, 1});
    }
    rec.thread_exiting(0, {}, {});
    benchmark::DoNotOptimize(std::move(rec).finalize());
  }
}
BENCHMARK(BM_RecorderSubcomputation);

// --- CPG query benchmarks on a synthetic many-thread/many-page graph ----
//
// Barrier-round structure: `threads` workers run `rounds` rounds; each
// round every worker writes its own page slice and reads a neighbour's
// slice from the previous round, then all cross a barrier. This yields
// a wide graph (threads x rounds nodes) with rich cross-thread dataflow
// -- the shape the indexed queries (per-page lookups instead of
// all-node scans) are built for.
cpg::Graph synthetic_cpg(std::uint32_t threads, std::uint32_t rounds,
                         std::uint64_t pages_per_node) {
  using inspector::sync::SyncEventKind;
  const auto barrier = inspector::sync::make_object_id(
      inspector::sync::ObjectKind::kBarrier, 1);
  cpg::Recorder rec;
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_started(t, t);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      PageSet reads;
      PageSet writes;
      const std::uint32_t neighbour = (t + 1) % threads;
      for (std::uint64_t p = 0; p < pages_per_node; ++p) {
        writes.push_back((static_cast<std::uint64_t>(t) * pages_per_node + p) %
                         (threads * pages_per_node));
        reads.push_back(
            (static_cast<std::uint64_t>(neighbour) * pages_per_node + p) %
            (threads * pages_per_node));
      }
      std::sort(reads.begin(), reads.end());
      std::sort(writes.begin(), writes.end());
      rec.end_subcomputation(t, std::move(reads), std::move(writes),
                             {SyncEventKind::kBarrierWait, barrier});
      rec.on_release(t, barrier);
    }
    for (std::uint32_t t = 0; t < threads; ++t) rec.on_acquire(t, barrier);
  }
  for (std::uint32_t t = 0; t < threads; ++t) rec.thread_exiting(t, {}, {});
  return std::move(rec).finalize();
}

void BM_CpgBuildIndices(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const cpg::Graph g = synthetic_cpg(threads, 32, 8);
  auto nodes = g.nodes();
  auto edges = g.edges();
  for (auto _ : state) {
    auto n = nodes;
    auto e = edges;
    cpg::Graph rebuilt(std::move(n), std::move(e), {});
    benchmark::DoNotOptimize(rebuilt.page_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes.size()));
}
BENCHMARK(BM_CpgBuildIndices)->Arg(8)->Arg(32);

void BM_QueryLatestWriters(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const cpg::Graph g = synthetic_cpg(threads, 32, 8);
  const auto n = static_cast<cpg::NodeId>(g.nodes().size());
  cpg::NodeId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::kernels::latest_writers(analysis::GraphView(g), id));
    id = (id + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryLatestWriters)->Arg(8)->Arg(32);

// The pre-index implementation (all-nodes scan per page), kept as the
// baseline so the index win stays visible in BENCH output.
void BM_QueryLatestWritersBruteForce(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const cpg::Graph g = synthetic_cpg(threads, 32, 8);
  const auto n = static_cast<cpg::NodeId>(g.nodes().size());
  const auto brute = [&g](cpg::NodeId reader) {
    std::vector<cpg::Edge> result;
    const auto& r = g.node(reader);
    for (std::uint64_t page : r.read_set) {
      std::vector<cpg::NodeId> candidates;
      for (const auto& w : g.nodes()) {
        if (w.id != reader && g.happens_before(w.id, reader) &&
            w.writes_page(page)) {
          candidates.push_back(w.id);
        }
      }
      for (cpg::NodeId c : candidates) {
        const bool superseded = std::any_of(
            candidates.begin(), candidates.end(),
            [&](cpg::NodeId d) { return d != c && g.happens_before(c, d); });
        if (!superseded) {
          result.push_back({c, reader, cpg::EdgeKind::kData, page});
        }
      }
    }
    return result;
  };
  cpg::NodeId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(brute(id));
    id = (id + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryLatestWritersBruteForce)->Arg(8)->Arg(32);

void BM_QueryBackwardSlice(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const cpg::Graph g = synthetic_cpg(threads, 32, 8);
  const auto last = static_cast<cpg::NodeId>(g.nodes().size() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::kernels::backward_slice(analysis::GraphView(g), last));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryBackwardSlice)->Arg(8)->Arg(32);

void BM_QueryForwardSlice(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const cpg::Graph g = synthetic_cpg(threads, 32, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::kernels::forward_slice(analysis::GraphView(g), 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryForwardSlice)->Arg(8)->Arg(32);

// Identical probe sequence for the happens-before benchmark pair below,
// so the fast-path-vs-baseline comparison measures only the query.
std::vector<std::pair<cpg::NodeId, cpg::NodeId>> hb_probes(
    const cpg::Graph& g) {
  const auto n = static_cast<cpg::NodeId>(g.nodes().size());
  std::mt19937_64 rng(3);
  std::vector<std::pair<cpg::NodeId, cpg::NodeId>> probes(1024);
  for (auto& p : probes) {
    p = {static_cast<cpg::NodeId>(rng() % n),
         static_cast<cpg::NodeId>(rng() % n)};
  }
  return probes;
}

// happens_before with the rank fast path: rank(a) >= rank(b) rejects
// without touching the vector clocks (two array loads), which covers
// half of random probes. The *ClockCompare baseline is the pre-fast-path
// implementation.
void BM_QueryHappensBefore(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const cpg::Graph g = synthetic_cpg(threads, 32, 8);
  const auto probes = hb_probes(g);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = probes[i];
    benchmark::DoNotOptimize(g.happens_before(a, b));
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryHappensBefore)->Arg(8)->Arg(32);

void BM_QueryHappensBeforeClockCompare(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const cpg::Graph g = synthetic_cpg(threads, 32, 8);
  const auto probes = hb_probes(g);
  const auto brute = [&g](cpg::NodeId a, cpg::NodeId b) {
    const auto& na = g.node(a);
    const auto& nb = g.node(b);
    if (na.thread == nb.thread) return na.alpha < nb.alpha;
    return na.clock.happens_before(nb.clock);
  };
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = probes[i];
    benchmark::DoNotOptimize(brute(a, b));
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryHappensBeforeClockCompare)->Arg(8)->Arg(32);

void BM_QueryRaceScan(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  const cpg::Graph g = synthetic_cpg(threads, 32, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::kernels::find_races(analysis::GraphView(g), {}, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryRaceScan)->Arg(8)->Arg(32);

// --- threshold checks ---------------------------------------------------

/// Seconds per call of `fn`, best of `repeats` timed windows of at
/// least `min_window` each -- min-of-windows filters scheduler noise
/// without google-benchmark's machinery (this mode also runs in CI).
template <typename Fn>
double seconds_per_call(Fn&& fn, int repeats = 5,
                        double min_window = 0.05) {
  using clock = std::chrono::steady_clock;
  // Calibrate a batch size that makes one window long enough to time.
  std::uint64_t batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    if (dt >= min_window / 4 || batch > (std::uint64_t{1} << 30)) break;
    batch *= 4;
  }
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = clock::now();
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    best = std::min(best, dt / static_cast<double>(batch));
  }
  return best;
}

bool report_floor(const char* check, double value, double floor,
                  const char* unit) {
  const bool pass = value >= floor;
  bench::JsonLine()
      .field("check", check)
      .field_fixed("value", value, 3)
      .field_fixed("floor", floor, 3)
      .field("unit", unit)
      .field("pass", pass)
      .emit();
  if (!pass) {
    std::fprintf(stderr,
                 "bench_micro: %s = %.3f %s is below the floor %.3f\n", check,
                 value, unit, floor);
  }
  return pass;
}

/// Seconds to memcpy `bytes` (same size, warm buffers): the yardstick
/// the varint and checksum floors divide by.
double memcpy_seconds(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> copy(bytes.size());
  return seconds_per_call([&] {
    std::memcpy(copy.data(), bytes.data(), bytes.size());
    benchmark::DoNotOptimize(copy.data());
  });
}

/// Varint decode throughput relative to memcpy over the same encoded
/// bytes. Decode is inherently byte-serial, so the floor is a
/// fraction, not parity: it catches a decoder that falls off a cliff
/// (an accidental quadratic, a per-byte allocation) while riding out
/// machine-to-machine absolute-throughput differences.
bool check_varint_decode() {
  std::mt19937_64 rng(17);
  std::vector<std::uint64_t> values;
  std::uint64_t v = 0;
  for (int i = 0; i < (1 << 18); ++i) {
    v += 1 + (rng() % 3);  // dense: mostly one-byte deltas
    values.push_back(v);
  }
  std::vector<std::uint8_t> encoded;
  if (!util::put_monotone(encoded, values).ok()) return false;

  std::vector<std::uint64_t> out;
  const double decode_s = seconds_per_call([&] {
    std::size_t pos = 0;
    if (!util::get_monotone(encoded, pos, out).ok()) std::abort();
    benchmark::DoNotOptimize(out.data());
  });
  const double memcpy_s = memcpy_seconds(encoded);
  const double decode_gbs =
      static_cast<double>(encoded.size()) / decode_s / 1e9;
  bench::JsonLine()
      .field("check", "varint_decode_abs")
      .field_fixed("value", decode_gbs, 3)
      .field("unit", "GB/s")
      .emit();
  // ~0.011x measured (0.48 GB/s decode vs an L2-resident ~40 GB/s
  // memcpy); the floor sits ~3x below that. A per-element allocation
  // or a lost fast path lands an order of magnitude under it.
  return report_floor("varint_decode_vs_memcpy", memcpy_s / decode_s, 0.004,
                      "x memcpy");
}

/// A real shard file's LZ block and its decoded body: a word_count
/// capture written as a 4-shard LZ store in a scratch directory, shard
/// 0 read back. Empty on failure.
struct ShardBody {
  std::vector<std::uint8_t> block;
  std::vector<std::uint8_t> body;
};

ShardBody real_shard_body() {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 2;
  config.seed = 1;
  core::Options options;
  options.schedule_seed = 1;
  const auto run =
      core::Inspector(options).run(workloads::make_workload("word_count", config));
  const auto dir = std::filesystem::temp_directory_path() /
                   ("bench_micro_shard_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ShardBody out;
  const auto manifest = shard::write_store(
      *run.graph, dir.string(), shard::PlanOptions{4}, shard::ShardCodec::kLz);
  if (manifest.ok()) {
    const auto bytes =
        shard::read_file_bytes((dir / manifest->shards[0].file).string());
    // The block follows the versioned header (8 bytes) and the codec
    // frame (tag + decoded size).
    if (bytes.ok() && bytes->size() > 17) {
      out.block.assign(bytes->begin() + 17, bytes->end());
      auto body = snapshot::decompress_checked(out.block);
      if (body.ok()) out.body = std::move(body).value();
    }
  }
  std::filesystem::remove_all(dir);
  return out;
}

/// LZ decode of a real shard block against the byte-at-a-time decoder
/// it replaced (snapshot::detail::decompress_bytewise), both verifying
/// the same decoded-bytes checksum on the same warm block, so the
/// machine's cache sizes cancel out of the ratio: 2.15-3.5x measured
/// (Release, 4-vCPU VM). A ratio over the byte loop cannot sit 3x
/// under its reading and still reject the byte loop (1.0x), so the
/// floor sits near the geometric middle of the two: ~1.5x under the
/// lowest reading and 1.4x over a return to byte-at-a-time decoding.
bool check_lz_decode(const ShardBody& shard) {
  if (shard.body.empty()) {
    std::fprintf(stderr, "bench_micro: no shard body to decode\n");
    return false;
  }
  const double fast_s = seconds_per_call([&] {
    auto body = snapshot::decompress_checked(shard.block);
    if (!body.ok()) std::abort();
    benchmark::DoNotOptimize(body.value().data());
  });
  const double byte_s = seconds_per_call([&] {
    auto body = snapshot::detail::decompress_bytewise(shard.block);
    if (!body.ok()) std::abort();
    benchmark::DoNotOptimize(body.value().data());
  });
  return report_floor("lz_decode_speedup", byte_s / fast_s, 1.4,
                      "x byte loop");
}

/// stripe_hash over a real shard body against a memcpy of it:
/// 0.27-0.31x measured (same machine); the floor sits ~3x below.
/// Byte-serial FNV-1a, the checksum it replaced, runs 0.017-0.021x.
bool check_checksum(const ShardBody& shard) {
  if (shard.body.empty()) {
    std::fprintf(stderr, "bench_micro: no shard body to hash\n");
    return false;
  }
  const double hash_s = seconds_per_call([&] {
    benchmark::DoNotOptimize(snapshot::stripe_hash(shard.body));
  });
  return report_floor("checksum_vs_memcpy",
                      memcpy_seconds(shard.body) / hash_s, 0.09, "x memcpy");
}

/// Both intersection kernels behind call boundaries: they are
/// header-inline, and letting them inline into the timing lambdas
/// makes the measured ratio hostage to unrelated code layout in this
/// TU (adding unrelated helpers elsewhere in the file has flipped
/// it). noinline pins each kernel's codegen to its own function.
[[gnu::noinline]] std::optional<std::uint64_t> timed_first_intersection(
    const PageSet& a, const PageSet& b, const PageSet& ignored) {
  return page_set_first_intersection(a, b, ignored);
}
[[gnu::noinline]] std::optional<std::uint64_t>
timed_first_intersection_scalar(const PageSet& a, const PageSet& b,
                                const PageSet& ignored) {
  return detail::page_set_first_intersection_scalar(a, b, ignored);
}

/// First-intersection kernel vs the scalar reference it replaced, on
/// the merge path's hot shape: randomly interleaved, match-free sets.
/// The scalar form's advance branch is then data-dependent (~50%
/// mispredict), while the block scan's advances are conditional moves
/// and its only branch -- the match test -- never fires.
bool check_intersection_speedup() {
  const std::size_t n = 4096;
  std::mt19937_64 rng(19);
  PageSet a, b;
  std::uint64_t va = 0, vb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    va += 1 + (rng() % 7);
    vb += 1 + (rng() % 7);
    a.push_back(2 * va);      // evens
    b.push_back(2 * vb + 1);  // odds -- full-length merge, no match
  }
  const PageSet ignored;
  const double fast_s = seconds_per_call([&] {
    benchmark::DoNotOptimize(timed_first_intersection(a, b, ignored));
  });
  const double scalar_s = seconds_per_call([&] {
    benchmark::DoNotOptimize(timed_first_intersection_scalar(a, b, ignored));
  });
  return report_floor("page_set_intersection_speedup", scalar_s / fast_s, 1.3,
                      "x scalar");
}

/// happens_before with the rank fast-reject vs the clock-compare
/// baseline, over the same random probe sequence the google-benchmark
/// pair uses.
bool check_happens_before_speedup() {
  const cpg::Graph g = synthetic_cpg(32, 32, 8);
  const auto probes = hb_probes(g);
  const double fast_s = seconds_per_call([&] {
    bool acc = false;
    for (const auto& [a, b] : probes) acc ^= g.happens_before(a, b);
    benchmark::DoNotOptimize(acc);
  });
  const double base_s = seconds_per_call([&] {
    bool acc = false;
    for (const auto& [a, b] : probes) {
      const auto& na = g.node(a);
      const auto& nb = g.node(b);
      acc ^= na.thread == nb.thread ? na.alpha < nb.alpha
                                    : na.clock.happens_before(nb.clock);
    }
    benchmark::DoNotOptimize(acc);
  });
  return report_floor("happens_before_speedup", base_s / fast_s, 1.3,
                      "x clock-compare");
}

int run_threshold_checks() {
#ifndef NDEBUG
  std::printf("bench_micro: debug build, skipping threshold checks\n");
  return 0;
#else
  bool ok = true;
  ok &= check_varint_decode();
  ok &= check_intersection_speedup();
  ok &= check_happens_before_speedup();
  const ShardBody shard = real_shard_body();
  ok &= check_lz_decode(shard);
  ok &= check_checksum(shard);
  return ok ? 0 : 1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--threshold-check") {
      return run_threshold_checks();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
