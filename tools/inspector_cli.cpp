// inspector_cli -- run any bundled workload under INSPECTOR and operate
// on the resulting provenance.
//
//   inspector_cli list
//   inspector_cli run <workload> [options]
//
// options:
//   --threads N        worker threads (default 8)
//   --analysis-threads N   analysis pool workers, >= 1 (default: the
//                      INSPECTOR_ANALYSIS_THREADS env var, else all cores)
//   --size s|m|l       input size for the fig-8 apps (default l)
//   --scale F          op-count scale factor (default 1.0)
//   --seed N           schedule seed (0 = no jitter)
//   --compare          also run natively and print the overhead
//
// lint: allow-file(finalizer-purity) report printer; stdout is its UI, it never serves query replies
//   --verify-pt        decode the PT trace and cross-check the thunks
//   --races            run the happens-before race detector
//   --taint            DIFT: taint the input, report tainted sinks
//   --replay           replay from the CPG and verify the final state
//   --critical-path    print dependency-chain statistics
//   --dump-cpg FILE    write the CPG (binary format)
//   --shard-out DIR    write the CPG as a sharded store (see src/shard/)
//   --shards N         shard count for --shard-out (default 4, max 255)
//   --compress         LZ-compress shard payloads (--shard-out /
//                      --shard-append; the paper's fig-9 codec)
//   --shard-append DIR incrementally re-shard an existing store for
//                      this capture (which must extend the stored
//                      history; only suffix shards are rewritten)
//   --shard-prefix P   with --shard-out: store only the capture's
//                      largest clean rank-prefix covering <= P% of the
//                      nodes -- the bootstrap for --shard-append
//   --dump-dot FILE    write the CPG as graphviz dot
//   --dump-text FILE   write the CPG as text
//   --perf-data FILE   write the perf.data-style trace container
//   --journal FILE     write the threading-library journal
//   --image FILE       write the binary image (for inspector_report)
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/inspector.h"
#include "core/report.h"
#include "cpg/journal.h"
#include "cpg/serialize.h"
#include "ptsim/image.h"
#include "memtrack/shared_memory.h"
#include "perf/data_file.h"
#include "query/engine.h"
#include "replay/replay.h"
#include "shard/planner.h"
#include "snapshot/compress.h"
#include "util/parallel.h"
#include "workloads/registry.h"

namespace {

using namespace inspector;

struct CliArgs {
  std::string command;
  std::string workload;
  workloads::WorkloadConfig config;
  bool compare = false;
  bool verify_pt = false;
  bool races = false;
  bool taint = false;
  bool replay = false;
  bool critical_path = false;
  unsigned analysis_threads = 0;  ///< 0 = keep the environment default
  std::string dump_cpg, dump_dot, dump_text, perf_data, journal, image;
  std::string shard_out;          ///< sharded store directory
  std::string shard_append;       ///< existing store to append to
  std::uint32_t shards = 4;
  bool shards_given = false;
  bool compress = false;          ///< LZ-compress shard payloads
  std::uint32_t shard_prefix_pct = 0;  ///< 0 = store the whole capture
};

int usage() {
  std::cerr << "usage: inspector_cli list | run <workload> [options]\n"
               "see the header of tools/inspector_cli.cpp for options\n";
  return 2;
}

/// Parse a small decimal flag value into [lo, hi]; false on anything
/// else (non-digits, empty, out of range).
bool parse_bounded_uint(const std::string& value, unsigned long lo,
                        unsigned long hi, std::uint32_t& out) {
  if (value.empty() || value.size() > 3) return false;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
  }
  const unsigned long parsed = std::stoul(value);
  if (parsed < lo || parsed > hi) return false;
  out = static_cast<std::uint32_t>(parsed);
  return true;
}

bool parse(int argc, char** argv, CliArgs& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  if (args.command == "list") return true;
  if (args.command != "run" || argc < 3) return false;
  args.workload = argv[2];
  args.config.threads = 8;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--threads") {
      args.config.threads = static_cast<std::uint32_t>(std::stoul(next()));
      if (args.config.threads == 0) {
        std::cerr << "--threads must be >= 1\n";
        return false;
      }
    } else if (a == "--analysis-threads") {
      const auto workers = util::parse_analysis_threads(next());
      if (!workers) {
        std::cerr << "--analysis-threads must be an integer in [1, 1024]\n";
        return false;
      }
      args.analysis_threads = *workers;
    } else if (a == "--size") {
      const std::string s = next();
      args.config.size = s == "s"   ? workloads::InputSize::kSmall
                         : s == "m" ? workloads::InputSize::kMedium
                                    : workloads::InputSize::kLarge;
    } else if (a == "--scale") {
      args.config.scale = std::stod(next());
    } else if (a == "--seed") {
      args.config.seed = std::stoull(next());
    } else if (a == "--compare") {
      args.compare = true;
    } else if (a == "--verify-pt") {
      args.verify_pt = true;
    } else if (a == "--races") {
      args.races = true;
    } else if (a == "--taint") {
      args.taint = true;
    } else if (a == "--replay") {
      args.replay = true;
    } else if (a == "--critical-path") {
      args.critical_path = true;
    } else if (a == "--dump-cpg") {
      args.dump_cpg = next();
    } else if (a == "--shard-out") {
      args.shard_out = next();
    } else if (a == "--shard-append") {
      args.shard_append = next();
    } else if (a == "--compress") {
      args.compress = true;
    } else if (a == "--shard-prefix") {
      if (!parse_bounded_uint(next(), 1, 100, args.shard_prefix_pct)) {
        std::cerr << "--shard-prefix must be a percentage in [1, 100]\n";
        return false;
      }
    } else if (a == "--shards") {
      if (!parse_bounded_uint(next(), 1, 255, args.shards)) {
        std::cerr << "--shards must be in [1, 255]\n";
        return false;
      }
      args.shards_given = true;
    } else if (a == "--dump-dot") {
      args.dump_dot = next();
    } else if (a == "--dump-text") {
      args.dump_text = next();
    } else if (a == "--perf-data") {
      args.perf_data = next();
    } else if (a == "--journal") {
      args.journal = next();
    } else if (a == "--image") {
      args.image = next();
    } else {
      std::cerr << "unknown option: " << a << "\n";
      return false;
    }
  }
  if (args.shards_given && args.shard_out.empty()) {
    std::cerr << "--shards requires --shard-out\n";
    return false;
  }
  if (args.compress && args.shard_out.empty() && args.shard_append.empty()) {
    std::cerr << "--compress requires --shard-out or --shard-append\n";
    return false;
  }
  if (args.shard_prefix_pct != 0 && args.shard_out.empty()) {
    std::cerr << "--shard-prefix requires --shard-out\n";
    return false;
  }
  return true;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << content;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

int run(const CliArgs& args) {
  // Before the run: graph construction and every analysis below share
  // the pool.
  if (args.analysis_threads != 0) {
    util::set_analysis_threads(args.analysis_threads);
  }
  const auto program = workloads::make_workload(args.workload, args.config);
  core::Options options;
  options.schedule_seed = args.config.seed;
  options.capture_journal = !args.journal.empty();
  core::Inspector insp(options);

  const auto result = insp.run(program);
  const auto& stats = result.stats;
  const auto& graph = *result.graph;
  // The analysis flags below are thin shims over the unified query
  // engine. The snapshot aliases the run's graph (non-owning: `result`
  // outlives the engine for the rest of this function).
  query::QueryEngine engine(
      std::shared_ptr<const cpg::Graph>(&graph, [](const cpg::Graph*) {}));
  const auto gstats = graph.stats();

  std::cout << args.workload << ": " << stats.threads_spawned << " threads, "
            << stats.instructions << " instructions, " << stats.branches
            << " branches\n"
            << "CPG: " << gstats.nodes << " sub-computations, "
            << gstats.control_edges << " control + " << gstats.sync_edges
            << " sync edges, " << gstats.thunks << " thunks\n"
            << "memtrack: " << stats.page_faults << " faults, "
            << stats.commits << " commits, " << stats.bytes_committed
            << " bytes committed\n"
            << "PT: " << stats.pt_bytes << " bytes, " << stats.pt_tnt_bits
            << " TNT bits, " << stats.pt_tip_packets << " TIPs\n";

  if (args.compare) {
    const auto native = insp.run_native(program);
    const double overhead = static_cast<double>(stats.sim_time_ns) /
                            static_cast<double>(native.stats.sim_time_ns);
    std::cout << "overhead vs native: " << core::format_overhead(overhead)
              << " (native " << native.stats.sim_time_ns / 1000
              << " us, inspector " << stats.sim_time_ns / 1000 << " us)\n";
  }
  if (args.verify_pt) {
    const auto v = core::Inspector::verify_pt(result);
    std::cout << "PT decode cross-check: " << (v.ok ? "OK" : "MISMATCH")
              << " (" << v.branches_checked << " branches, " << v.gaps
              << " gaps)\n";
    if (!v.ok) std::cout << v.detail;
  }
  if (args.races) {
    query::RacesQuery races_query;
    races_query.limit = 20;
    const auto reply = engine.run(races_query);
    if (!reply.ok()) {
      std::cerr << "race query failed: " << reply.status().message() << "\n";
      return 1;
    }
    const auto& races = std::get<query::RaceListResult>(reply->result).races;
    std::cout << "race detector: " << races.size()
              << " conflicting concurrent pair(s)\n";
    for (const auto& r : races) std::cout << "  " << r << "\n";
  }
  if (args.taint) {
    query::TaintQuery taint_query;
    for (const auto& w : program.input) {
      taint_query.seed_pages.push_back(memtrack::page_id_of(w.addr));
    }
    const auto reply = engine.run(taint_query);  // engine normalizes seeds
    if (!reply.ok()) {
      std::cerr << "taint query failed: " << reply.status().message() << "\n";
      return 1;
    }
    const auto& flow = std::get<query::FlowResult>(reply->result);
    std::cout << "taint: " << flow.nodes.size() << "/" << gstats.nodes
              << " sub-computations, " << flow.pages.size() << " pages, "
              << flow.sinks.size() << " tainted output site(s)\n";
  }
  if (args.replay) {
    const bool ok = replay::replay_matches(program, graph, *result.memory);
    std::cout << "replay: " << (ok ? "final state reproduced" : "MISMATCH")
              << "\n";
    if (!ok) return 1;
  }
  if (args.critical_path) {
    const auto reply = engine.run(query::CriticalPathQuery{});
    if (!reply.ok()) {
      std::cerr << "critical-path query failed: " << reply.status().message()
                << "\n";
      return 1;
    }
    const auto& cp = std::get<query::CriticalPathResult>(reply->result);
    std::cout << "critical path: " << cp.length() << " of " << cp.total_nodes
              << " sub-computations (parallelism "
              << core::format_fixed(cp.parallelism(), 2) << ")\n";
  }
  if (!args.dump_cpg.empty()) {
    write_file(args.dump_cpg, cpg::serialize(graph));
    std::cout << "wrote " << args.dump_cpg << "\n";
  }
  if (!args.shard_out.empty()) {
    shard::PlanOptions plan_options;
    plan_options.shard_count = args.shards;
    const shard::ShardCodec codec = args.compress ? shard::ShardCodec::kLz
                                                  : shard::ShardCodec::kRaw;
    const cpg::Graph* to_store = &graph;
    cpg::Graph prefix;
    if (args.shard_prefix_pct != 0) {
      const auto max_nodes = static_cast<std::uint32_t>(
          graph.nodes().size() * args.shard_prefix_pct / 100);
      auto cut = shard::rank_prefix(graph, max_nodes);
      if (!cut.ok()) {
        std::cerr << "shard prefix failed: " << cut.status().message()
                  << "\n";
        return 1;
      }
      prefix = std::move(cut).value();
      to_store = &prefix;
    }
    const auto manifest =
        shard::write_store(*to_store, args.shard_out, plan_options, codec);
    if (!manifest.ok()) {
      std::cerr << "sharded store failed: " << manifest.status().message()
                << "\n";
      return 1;
    }
    std::uint64_t bytes = 0;
    std::uint64_t decoded = 0;
    for (const auto& info : manifest->shards) {
      bytes += info.byte_size;
      decoded += info.decoded_bytes;
    }
    std::cout << "wrote " << args.shard_out << ": " << manifest->shard_count
              << " shard(s), " << manifest->total_nodes << " nodes, "
              << bytes << " shard bytes";
    if (args.compress) {
      std::cout << " (" << decoded << " decoded, "
                << core::format_fixed(
                       snapshot::compression_ratio(decoded, bytes), 2)
                << "x)";
    }
    std::cout << "\n";
  }
  if (!args.shard_append.empty()) {
    shard::AppendOptions append_options;
    if (args.compress) append_options.codec = shard::ShardCodec::kLz;
    const auto appended = shard::append(args.shard_append, graph,
                                        append_options);
    if (!appended.ok()) {
      std::cerr << "shard append failed: " << appended.status().message()
                << "\n";
      return 1;
    }
    std::cout << "appended to " << args.shard_append << ": "
              << appended->manifest.shard_count << " shard(s), "
              << appended->manifest.total_nodes << " nodes ("
              << appended->shards_kept << " kept, "
              << appended->shards_rewritten << " rewritten)\n";
  }
  if (!args.dump_dot.empty()) {
    write_file(args.dump_dot, cpg::to_dot(graph));
    std::cout << "wrote " << args.dump_dot << "\n";
  }
  if (!args.dump_text.empty()) {
    write_file(args.dump_text, cpg::to_text(graph));
    std::cout << "wrote " << args.dump_text << "\n";
  }
  if (!args.perf_data.empty()) {
    write_file(args.perf_data,
               perf::serialize(perf::capture(*result.perf_session)));
    std::cout << "wrote " << args.perf_data << "\n";
  }
  if (!args.journal.empty()) {
    write_file(args.journal, cpg::serialize(*result.journal));
    std::cout << "wrote " << args.journal << "\n";
  }
  if (!args.image.empty()) {
    write_file(args.image, ptsim::serialize_image(result.image->image));
    std::cout << "wrote " << args.image << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  try {
    if (!parse(argc, argv, args)) return usage();
    if (args.command == "list") {
      for (const auto& e : workloads::all_workloads()) {
        std::cout << e.name << "  (" << e.suite << ": " << e.paper_dataset
                  << ")\n";
      }
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
