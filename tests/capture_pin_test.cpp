// Pinned capture bytes: FNV-1a fingerprints of every file a traced run
// writes -- the CPG, the binary image, perf.data and the journal -- and
// the run's fault, commit and trace counts, for five programs at two
// seeds. The capture path (AUX rings, twin diffs, the code image) may be
// made faster, never different: a change that moves any of these values
// must update this table deliberately, and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>

#include "core/inspector.h"
#include "cpg/journal.h"
#include "cpg/serialize.h"
#include "perf/data_file.h"
#include "ptsim/image.h"
#include "snapshot/compress.h"
#include "workloads/registry.h"

namespace {

using namespace inspector;

struct Pin {
  const char* program;
  double scale;
  std::uint64_t seed;
  std::uint64_t cpg;
  std::uint64_t image;
  std::uint64_t perf_data;
  std::uint64_t journal;
  std::uint64_t page_faults;
  std::uint64_t commits;
  std::uint64_t pages_committed;
  std::uint64_t bytes_committed;
  std::uint64_t pt_bytes;
  std::uint64_t sim_time_ns;
};

// clang-format off
constexpr Pin kPins[] = {
    {"word_count", 0.5, 0, 0xa484388b74043599, 0x2dadff1b8053ee72, 0xdd1d3be11a8217c3, 0x6e6f0b4c87a4ba40,
     1544, 1037, 512, 405, 1085, 2271462},
    {"word_count", 0.5, 1, 0xc2538faf4575080b, 0x2dadff1b8053ee72, 0x4572d6b60c8439a4, 0xfe05a1d6e6107b04,
     1544, 1037, 512, 414, 1085, 5357759},
    {"canneal", 2, 0, 0xcd343a84a653c33e, 0xd9bbc7b15cb715aa, 0x602bd27d4ae21142, 0x1ecfd780e59067f0,
     2878, 1165, 576, 3545, 517, 2157225},
    {"canneal", 2, 1, 0x2db29c1228c50153, 0xd9bbc7b15cb715aa, 0x5ad3f261693cee71, 0x1121ec168bde66a6,
     2880, 1165, 576, 3556, 517, 3568543},
    {"streamcluster", 0.2, 0, 0x60b73d8c71877367, 0x118bbf2f13c2c0d1, 0xf7f9aad4463af794, 0x4b570709f520cfe7,
     154, 55, 7, 4, 1381, 878600},
    {"streamcluster", 0.2, 1, 0x18bc79fc6468bce9, 0x9fdb3af99d7f2dbc, 0x2d01edda6e864d72, 0x5a88026d0ae83527,
     156, 57, 8, 4, 1381, 3770061},
    {"kmeans", 0.1, 0, 0xd819a7425b3ec217, 0xe4d3af8e4d20fd92, 0xc82a8efb39d137cd, 0x3b62389306eaee19,
     184, 81, 60, 22, 877, 554835},
    {"kmeans", 0.1, 1, 0xe65dfd110e25b0fb, 0xe4d3af8e4d20fd92, 0x30e3cf52bbe6558e, 0x5e3245c1ee8abb61,
     184, 81, 60, 22, 877, 854518},
    {"histogram", 0.3, 0, 0xf2ab733453917f23, 0xdf046276971d4d14, 0xa6137776996e14e9, 0xb5e0c673fa9497eb,
     357, 21, 24, 815, 1057, 1013035},
    {"histogram", 0.3, 1, 0x56c4ce423f13a5c6, 0xdf046276971d4d14, 0xfc103abb26af5ca9, 0x7ec17f81132bfbe1,
     357, 21, 24, 815, 1057, 4331143},
};
// clang-format on

Pin capture(const char* program, double scale, std::uint64_t seed) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = scale;
  config.seed = seed;
  core::Options options;
  options.capture_journal = true;
  options.schedule_seed = seed;
  const auto run = core::Inspector(options).run(
      workloads::make_workload(program, config));
  const auto& s = run.stats;
  return Pin{program,
             scale,
             seed,
             snapshot::fnv1a(cpg::serialize(*run.graph)),
             snapshot::fnv1a(ptsim::serialize_image(run.image->image)),
             snapshot::fnv1a(perf::serialize(perf::capture(*run.perf_session))),
             snapshot::fnv1a(cpg::serialize(*run.journal)),
             s.page_faults,
             s.commits,
             s.pages_committed,
             s.bytes_committed,
             s.pt_bytes,
             s.sim_time_ns};
}

/// The pin as a table row, so a deliberate change can paste it back.
std::string row(const Pin& p) {
  std::ostringstream out;
  out << std::hex << std::setfill('0') << "    {\"" << p.program << "\", "
      << p.scale << ", " << std::dec << p.seed << ", " << std::hex
      << "0x" << std::setw(16) << p.cpg << ", 0x" << std::setw(16) << p.image
      << ", 0x" << std::setw(16) << p.perf_data << ", 0x" << std::setw(16)
      << p.journal << std::dec << ",\n     " << p.page_faults << ", "
      << p.commits << ", " << p.pages_committed << ", " << p.bytes_committed
      << ", " << p.pt_bytes << ", " << p.sim_time_ns << "},";
  return out.str();
}

TEST(CapturePin, BytesAndCountsMatchTheTable) {
  ASSERT_EQ(std::size(kPins), 10u);
  for (const Pin& want : kPins) {
    const Pin got = capture(want.program, want.scale, want.seed);
    SCOPED_TRACE(row(got));
    EXPECT_EQ(got.cpg, want.cpg) << "cpg::serialize";
    EXPECT_EQ(got.image, want.image) << "ptsim::serialize_image";
    EXPECT_EQ(got.perf_data, want.perf_data) << "perf::serialize";
    EXPECT_EQ(got.journal, want.journal) << "journal";
    EXPECT_EQ(got.page_faults, want.page_faults);
    EXPECT_EQ(got.commits, want.commits);
    EXPECT_EQ(got.pages_committed, want.pages_committed);
    EXPECT_EQ(got.bytes_committed, want.bytes_committed);
    EXPECT_EQ(got.pt_bytes, want.pt_bytes);
    EXPECT_EQ(got.sim_time_ns, want.sim_time_ns);
  }
}

}  // namespace
