// inspector_report -- offline CPG reconstruction from persisted
// artifacts (the `perf script`-style post-processing of §V-B).
//
//   inspector_report <perf.data> <journal.bin> <image.bin>
//                    [--dump-text F] [--analysis-threads N]
//
// Loads the three files a traced run persists (PT trace container,
// threading-library journal, binary image), rebuilds the Concurrent
// Provenance Graph through core::rebuild_offline, validates it, and
// prints a summary. A malformed file exits 1 with a message naming its
// kind ("perf data: ...", "journal: ...", "image: ...").
//
// lint: allow-file(finalizer-purity) report printer; stdout is its UI, it never serves query replies
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/inspector.h"
#include "core/report.h"
#include "cpg/journal.h"
#include "cpg/serialize.h"
#include "perf/data_file.h"
#include "ptsim/image.h"
#include "query/engine.h"
#include "util/parallel.h"

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open " + path);
  const auto size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw std::runtime_error("read failed: " + path);
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: inspector_report <perf.data> <journal.bin> "
                 "<image.bin> [--dump-text FILE] [--analysis-threads N]\n";
    return 2;
  }
  try {
    // Applied before the rebuild: Graph::build_indices and the critical
    // path below run on the analysis pool.
    for (int i = 4; i < argc; ++i) {
      if (std::string(argv[i]) == "--analysis-threads") {
        const auto workers =
            i + 1 < argc
                ? inspector::util::parse_analysis_threads(argv[i + 1])
                : std::nullopt;
        if (!workers) {
          std::cerr << "--analysis-threads must be an integer in "
                       "[1, 1024]\n";
          return 2;
        }
        inspector::util::set_analysis_threads(*workers);
        ++i;
      }
    }
    // Each file decodes to a typed error naming its kind; nothing past
    // this point sees unchecked bytes.
    const auto data = inspector::perf::deserialize(read_file(argv[1]));
    const auto journal =
        inspector::cpg::deserialize_journal(read_file(argv[2]));
    const auto image = inspector::ptsim::deserialize_image(read_file(argv[3]));
    for (const inspector::Status* st :
         {&data.status(), &journal.status(), &image.status()}) {
      if (!st->ok()) {
        std::cerr << "error: " << st->message() << "\n";
        return 1;
      }
    }
    std::uint64_t gaps = 0;
    auto rebuilt =
        inspector::core::rebuild_offline(*data, *journal, *image, &gaps);
    if (!rebuilt.ok()) {
      std::cerr << "error: " << rebuilt.status().message() << "\n";
      return 1;
    }
    const auto snapshot = std::make_shared<const inspector::cpg::Graph>(
        std::move(rebuilt).value());
    const auto& graph = *snapshot;
    std::string reason;
    const bool valid = graph.validate(&reason);
    const auto stats = graph.stats();

    // Summary analytics go through the unified query engine, like
    // every other consumer of a captured run.
    inspector::query::QueryEngine engine(snapshot);
    const auto cp_reply =
        engine.run(inspector::query::CriticalPathQuery{});
    if (!cp_reply.ok()) {
      std::cerr << "critical-path query failed: "
                << cp_reply.status().message() << "\n";
      return 1;
    }
    const auto& cp = std::get<inspector::query::CriticalPathResult>(
        cp_reply->result);

    std::cout << "offline CPG rebuilt from " << argv[1] << " + " << argv[2]
              << "\n"
              << "  processes traced: " << data->aux.size() << ", sideband "
              << "records: " << data->records.size() << ", trace gaps: "
              << gaps << "\n"
              << "  sub-computations: " << stats.nodes << " across "
              << stats.threads << " threads\n"
              << "  edges: " << stats.control_edges << " control + "
              << stats.sync_edges << " sync\n"
              << "  thunks: " << stats.thunks << ", pages: "
              << stats.read_pages << " read / " << stats.write_pages
              << " written\n"
              << "  critical path: " << cp.length() << " (parallelism "
              << inspector::core::format_fixed(cp.parallelism(), 2) << ")\n"
              << "  valid: " << (valid ? "yes" : reason) << "\n";

    for (int i = 4; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--dump-text") {
        std::ofstream out(argv[i + 1], std::ios::trunc);
        out << inspector::cpg::to_text(graph);
        std::cout << "wrote " << argv[i + 1] << "\n";
      }
    }
    return valid ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
