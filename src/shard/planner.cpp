#include "shard/planner.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "snapshot/compress.h"
#include "util/parallel.h"

namespace inspector::shard {

namespace {

/// Where every node of a history goes.
struct ShardPlan {
  std::uint32_t shard_count = 0;
  /// shard_count+1 rank fences; shard k owns ranks
  /// [rank_fences[k], rank_fences[k+1]).
  std::vector<std::uint32_t> rank_fences;
  std::vector<std::uint8_t> node_shard;   ///< global node id -> shard
  std::vector<std::uint32_t> node_level;  ///< global topological level
  /// Global node ids per shard, ascending (so a shard's local id order
  /// is its global id order).
  std::vector<std::vector<cpg::NodeId>> shard_nodes;
};

/// The preconditions both write paths share: a topological order
/// exists and every recorded edge advances the hb rank (what makes
/// rank ranges topological sections).
Status validate_shardable(const cpg::Graph& graph) {
  try {
    (void)graph.topological_view();
  } catch (const std::logic_error&) {
    return Status(StatusCode::kFailedPrecondition,
                  "cannot shard a cyclic graph: the rank partition needs a "
                  "topological order");
  }
  for (const cpg::Edge& e : graph.edges()) {
    if (graph.rank(e.from) >= graph.rank(e.to)) {
      return Status(StatusCode::kFailedPrecondition,
                    "edge " + std::to_string(e.from) + " -> " +
                        std::to_string(e.to) +
                        " does not advance the happens-before rank; the "
                        "history's clocks are inconsistent");
    }
  }
  return Status::Ok();
}

/// Fill node_shard / node_level / shard_nodes for a fence vector that
/// is already in place (write_store() and append() share this loop).
void assign_nodes(const cpg::Graph& graph, ShardPlan& plan) {
  const std::size_t n = graph.nodes().size();
  plan.node_shard.resize(n);
  plan.node_level.resize(n);
  plan.shard_nodes.assign(plan.shard_count, {});
  for (std::size_t lvl = 0; lvl < graph.level_count(); ++lvl) {
    for (const cpg::NodeId id : graph.level_nodes(lvl)) {
      plan.node_level[id] = static_cast<std::uint32_t>(lvl);
    }
  }
  for (cpg::NodeId id = 0; id < n; ++id) {
    const std::uint32_t rank = graph.rank(id);
    const auto it = std::upper_bound(plan.rank_fences.begin(),
                                     plan.rank_fences.end(), rank);
    const auto shard =
        static_cast<std::uint8_t>(it - plan.rank_fences.begin() - 1);
    plan.node_shard[id] = shard;
    plan.shard_nodes[shard].push_back(id);  // ascending: id loop order
  }
}

/// Generation 0 (a fresh write) uses the plain names; appends embed
/// their generation so a rewritten shard never shares a name with the
/// file the previous manifest references.
std::string shard_file_name(std::uint32_t index, std::uint64_t generation) {
  char buf[48];
  if (generation == 0) {
    std::snprintf(buf, sizeof buf, "shard-%03u.bin", index);
  } else {
    std::snprintf(buf, sizeof buf, "shard-%03u.g%llu.bin", index,
                  static_cast<unsigned long long>(generation));
  }
  return buf;
}

/// Best-effort removal of every shard-file-shaped entry (shard-*.bin)
/// the committed manifest does not reference: the generation an
/// append just superseded, plus orphans left by a crash between an
/// earlier commit and its own sweep. Never touches the manifest or
/// anything else in the directory.
void sweep_unreferenced_shard_files(const std::string& dir,
                                    const Manifest& manifest) try {
  std::unordered_set<std::string> referenced;
  for (const ShardInfo& info : manifest.shards) referenced.insert(info.file);
  // Non-throwing iteration end to end: the sweep runs after the
  // manifest already committed, inside Status-returning APIs -- a
  // transient readdir failure must not turn a successful append into
  // an escaped exception.
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  const std::filesystem::directory_iterator end;
  while (!ec && it != end) {
    std::error_code entry_ec;
    if (it->is_regular_file(entry_ec)) {
      const std::string name = it->path().filename().string();
      if (name.starts_with("shard-") && name.ends_with(".bin") &&
          !referenced.contains(name)) {
        std::error_code remove_ec;
        std::filesystem::remove(it->path(), remove_ec);
      }
    }
    it.increment(ec);
  }
} catch (...) {
  // Best-effort only; an unlucky allocation failure here changes
  // nothing about the committed store.
}

/// The global edge list bucketed once: intra-shard edges per owner,
/// frontier edges per both endpoints' shards, all in global edge index
/// order (the order analyses tie-break on).
struct EdgeBuckets {
  std::vector<std::vector<std::uint64_t>> intra, fin, fout;
};

EdgeBuckets bucket_edges(const cpg::Graph& graph, const ShardPlan& plan) {
  EdgeBuckets b;
  b.intra.resize(plan.shard_count);
  b.fin.resize(plan.shard_count);
  b.fout.resize(plan.shard_count);
  const auto& edges = graph.edges();
  for (std::uint64_t e = 0; e < edges.size(); ++e) {
    const std::uint8_t sf = plan.node_shard[edges[e].from];
    const std::uint8_t st = plan.node_shard[edges[e].to];
    if (sf == st) {
      b.intra[sf].push_back(e);
    } else {
      b.fout[sf].push_back(e);
      b.fin[st].push_back(e);
    }
  }
  return b;
}

/// Build, encode, and write shards [first_shard, plan.shard_count)
/// into `dir`, filling the matching `infos` slots. Per-shard payloads
/// are independent, so they fan out over the shared pool.
Status materialize_shards(const cpg::Graph& graph, const ShardPlan& plan,
                          const EdgeBuckets& buckets,
                          std::uint32_t first_shard, const std::string& dir,
                          ShardCodec codec, std::uint64_t generation,
                          std::vector<ShardInfo>& infos) {
  const std::uint32_t k = plan.shard_count;
  const auto& edges = graph.edges();
  Status failure = Status::Ok();
  std::mutex failure_mu;
  const auto pool = util::shared_pool();
  pool->parallel_for(
      first_shard, k, 1, [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t s = b; s < e; ++s) {
          ShardData data;
          data.shard_index = static_cast<std::uint32_t>(s);
          data.rank_lo = plan.rank_fences[s];
          data.rank_hi = plan.rank_fences[s + 1];
          data.global_ids.assign(plan.shard_nodes[s].begin(),
                                 plan.shard_nodes[s].end());
          const std::size_t m = data.global_ids.size();
          data.global_ranks.resize(m);
          data.global_levels.resize(m);
          std::vector<cpg::SubComputation> nodes;
          nodes.reserve(m);
          cpg::ThunkColumn thunks;
          for (std::size_t i = 0; i < m; ++i) {
            const cpg::NodeId gid = data.global_ids[i];
            data.global_ranks[i] = graph.rank(gid);
            data.global_levels[i] = plan.node_level[gid];
            cpg::SubComputation node = graph.node(gid);
            node.id = static_cast<cpg::NodeId>(i);
            nodes.push_back(std::move(node));
            const auto records = graph.thunks(gid).bytes();
            thunks.records.insert(thunks.records.end(), records.begin(),
                                  records.end());
            thunks.end_node();
          }
          const auto local_of = [&](cpg::NodeId gid) {
            return static_cast<cpg::NodeId>(
                std::lower_bound(data.global_ids.begin(),
                                 data.global_ids.end(), gid) -
                data.global_ids.begin());
          };
          std::vector<cpg::Edge> local_edges;
          local_edges.reserve(buckets.intra[s].size());
          data.edge_globals.reserve(buckets.intra[s].size());
          for (const std::uint64_t ei : buckets.intra[s]) {
            cpg::Edge edge = edges[ei];
            edge.from = local_of(edge.from);
            edge.to = local_of(edge.to);
            local_edges.push_back(edge);
            data.edge_globals.push_back(ei);
          }
          const auto frontier_of =
              [&](const std::vector<std::uint64_t>& list) {
                std::vector<FrontierEdge> out;
                out.reserve(list.size());
                for (const std::uint64_t ei : list) {
                  const cpg::Edge& edge = edges[ei];
                  out.push_back(
                      {ei, edge.from, edge.to, edge.kind, edge.object});
                }
                return out;
              };
          data.frontier_in = frontier_of(buckets.fin[s]);
          data.frontier_out = frontier_of(buckets.fout[s]);
          data.graph = cpg::Graph(std::move(nodes), std::move(local_edges),
                                  {}, std::move(thunks));

          ShardInfo& info = infos[s];
          info.file = shard_file_name(static_cast<std::uint32_t>(s),
                                      generation);
          info.rank_lo = data.rank_lo;
          info.rank_hi = data.rank_hi;
          info.node_count = m;
          info.edge_count = data.edge_globals.size();
          info.frontier_count =
              data.frontier_in.size() + data.frontier_out.size();
          const auto local_pages = data.graph.pages();
          info.pages.assign(local_pages.begin(), local_pages.end());
          info.min_level = 0;
          info.max_level = 0;
          if (m > 0) {
            const auto [lo, hi] = std::minmax_element(
                data.global_levels.begin(), data.global_levels.end());
            info.min_level = *lo;
            info.max_level = *hi;
          }
          info.codec = codec;
          const std::vector<std::uint8_t> bytes =
              serialize_shard(data, codec, &info.decoded_bytes);
          info.byte_size = bytes.size();
          info.file_checksum = snapshot::stripe_hash(bytes);
          if (Status st = write_file_bytes(dir + "/" + info.file, bytes);
              !st.ok()) {
            std::lock_guard lock(failure_mu);
            if (failure.ok()) failure = std::move(st);
          }
        }
      });
  return failure;
}

/// Manifest fields derived from the whole graph (shared by write and
/// append; the shard table is filled separately). The graph's page
/// universe is the union of its shards' page sets, which is what a
/// reader derives.
Manifest manifest_skeleton(const cpg::Graph& graph, const ShardPlan& plan) {
  Manifest manifest;
  manifest.shard_count = plan.shard_count;
  manifest.total_nodes = graph.nodes().size();
  manifest.total_edges = graph.edges().size();
  manifest.thread_count = graph.thread_count();
  manifest.level_count = graph.level_count();
  manifest.stats = graph.stats();
  const auto universe = graph.pages();
  manifest.pages.assign(universe.begin(), universe.end());
  manifest.node_shard = plan.node_shard;
  manifest.shards.resize(plan.shard_count);
  return manifest;
}

}  // namespace

Result<Manifest> write_store(const cpg::Graph& graph, const std::string& dir,
                             PlanOptions options, ShardCodec codec) {
  const std::uint32_t k = options.shard_count;
  if (k == 0 || k > 255) {
    return Status(StatusCode::kInvalidArgument,
                  "shard count must be in [1, 255], got " +
                      std::to_string(k));
  }
  if (Status st = validate_shardable(graph); !st.ok()) return st;
  const std::size_t n = graph.nodes().size();
  ShardPlan plan;
  plan.shard_count = k;
  plan.rank_fences.resize(k + 1);
  for (std::uint32_t i = 0; i <= k; ++i) {
    plan.rank_fences[i] = static_cast<std::uint32_t>(n * i / k);
  }
  assign_nodes(graph, plan);

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status(StatusCode::kInternal,
                  "cannot create store directory " + dir + ": " +
                      ec.message());
  }
  const EdgeBuckets buckets = bucket_edges(graph, plan);
  Manifest manifest = manifest_skeleton(graph, plan);
  // Re-exporting over a directory that already holds a committed
  // store must not truncate files that store's manifest references: a
  // crash mid-rewrite would brick it. Adopt the next generation, so
  // the new files land under fresh names and the old store stays
  // readable until the new manifest commits (same protocol as
  // append()).
  if (auto existing = ShardReader::read_manifest(dir); existing.ok()) {
    manifest.generation = existing->generation + 1;
  }
  if (Status st = materialize_shards(graph, plan, buckets, 0, dir, codec,
                                     manifest.generation, manifest.shards);
      !st.ok()) {
    return st;
  }
  // The shard files' directory entries must be durable before the
  // manifest that references them commits.
  if (Status st = sync_directory(dir); !st.ok()) return st;
  if (Status st = replace_file_bytes(dir + "/" + kManifestFileName,
                                     serialize_manifest(manifest));
      !st.ok()) {
    return st;
  }
  // Re-writing over a directory that held an appended store leaves
  // generation-named files behind; collect them now that the fresh
  // manifest is committed.
  sweep_unreferenced_shard_files(dir, manifest);
  return manifest;
}

Result<AppendResult> append(const std::string& dir, const cpg::Graph& graph,
                            AppendOptions options) {
  auto read = ShardReader::read_manifest(dir);
  if (!read.ok()) return read.status();
  const Manifest old_m = std::move(read).value();
  const std::uint64_t n = graph.nodes().size();
  const std::uint64_t e = graph.edges().size();
  const std::uint64_t n_old = old_m.total_nodes;
  const std::uint64_t e_old = old_m.total_edges;
  if (n < n_old || e < e_old) {
    return Status(StatusCode::kInvalidArgument,
                  "append: the capture (" + std::to_string(n) + " nodes, " +
                      std::to_string(e) + " edges) is smaller than the "
                      "stored history (" + std::to_string(n_old) +
                      " nodes, " + std::to_string(e_old) + " edges)");
  }
  if (Status st = validate_shardable(graph); !st.ok()) return st;
  // The stored history must be a literal prefix: every stored edge
  // index must still connect stored nodes. (Node payload drift cannot
  // be detected without opening every kept file; the property suite's
  // byte-identical-replies contract covers it.)
  const auto& edges = graph.edges();
  for (std::uint64_t i = 0; i < e_old; ++i) {
    if (edges[i].from >= n_old || edges[i].to >= n_old) {
      return Status(StatusCode::kInvalidArgument,
                    "append: edge " + std::to_string(i) +
                        " touches appended nodes but is inside the stored "
                        "edge range; the capture does not extend the "
                        "stored history");
    }
  }
  // Old fences must tile [0, n_old) -- a manifest that does not cannot
  // anchor the kept prefix.
  std::uint32_t prev_hi = 0;
  for (const ShardInfo& s : old_m.shards) {
    if (s.rank_lo != prev_hi) {
      return Status(StatusCode::kInvalidArgument,
                    "append: the stored manifest's rank fences are not "
                    "contiguous");
    }
    prev_hi = s.rank_hi;
  }
  if (prev_hi != n_old) {
    return Status(StatusCode::kInvalidArgument,
                  "append: the stored manifest's rank fences do not cover "
                  "the stored history");
  }
  if (n == n_old && e == e_old) {
    // Nothing appended: the store already serves this capture.
    return AppendResult{old_m, old_m.shard_count, 0};
  }

  // The dirty rank: everything at or above it may differ from the
  // stored layout -- appended nodes shift later ranks, and an appended
  // edge changes both endpoints' frontiers.
  std::uint32_t dirty = static_cast<std::uint32_t>(n);
  for (std::uint64_t id = n_old; id < n; ++id) {
    dirty = std::min(dirty, graph.rank(static_cast<cpg::NodeId>(id)));
  }
  for (std::uint64_t i = e_old; i < e; ++i) {
    dirty = std::min({dirty, graph.rank(edges[i].from),
                      graph.rank(edges[i].to)});
  }
  std::uint32_t keep = 0;
  while (keep < old_m.shard_count && old_m.shards[keep].rank_hi <= dirty) {
    ++keep;
  }
  // Something is being appended (the no-op case returned above), so
  // at least one tail shard must fit under the 255-shard ceiling: a
  // store already at 255 shards gives one back up rather than
  // becoming permanently un-appendable.
  keep = std::min(keep, 254u);
  const std::uint32_t cut_rank = keep == 0 ? 0 : old_m.shards[keep - 1].rank_hi;

  // Tail sizing: aim at the shard width the store would have if the
  // *grown* history were re-cut at its original shard count -- so
  // repeated appends keep the store near its configured granularity
  // instead of inheriting the width of a small bootstrap prefix --
  // within the 255-shard (one-byte node map) ceiling, which keep <=
  // 254 leaves room for.
  const std::uint64_t tail_nodes = n - cut_rank;
  const std::uint64_t width = std::max<std::uint64_t>(
      1, (n + old_m.shard_count - 1) / old_m.shard_count);
  std::uint32_t tail = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(255, (tail_nodes + width - 1) / width));
  tail = std::max(tail, 1u);
  tail = std::min(tail, 255u - keep);

  ShardPlan plan;
  plan.shard_count = keep + tail;
  plan.rank_fences.resize(plan.shard_count + 1);
  for (std::uint32_t j = 0; j < keep; ++j) {
    plan.rank_fences[j] = old_m.shards[j].rank_lo;
  }
  for (std::uint32_t i = 0; i <= tail; ++i) {
    plan.rank_fences[keep + i] =
        cut_rank + static_cast<std::uint32_t>(tail_nodes * i / tail);
  }
  assign_nodes(graph, plan);

  // Kept-prefix consistency against the stored manifest: every node
  // the new ranks place below the cut must be a stored node in exactly
  // the shard the manifest recorded (appending cannot reorder the
  // prefix), and the per-shard populations must match. Any mismatch
  // means the capture is not an extension of this store.
  const auto mismatch = [&](const std::string& what) {
    return Status(StatusCode::kInvalidArgument,
                  "append: the capture does not extend the stored "
                  "history (" + what + ")");
  };
  for (std::uint64_t id = 0; id < n; ++id) {
    if (plan.node_shard[id] >= keep) continue;
    if (id >= n_old) return mismatch("an appended node sorts into a kept shard");
    if (old_m.node_shard[id] != plan.node_shard[id]) {
      return mismatch("node " + std::to_string(id) +
                      " moved between shards");
    }
  }
  for (std::uint32_t j = 0; j < keep; ++j) {
    if (plan.shard_nodes[j].size() != old_m.shards[j].node_count) {
      return mismatch("shard " + std::to_string(j) +
                      " changed population");
    }
  }
  const EdgeBuckets buckets = bucket_edges(graph, plan);
  for (std::uint32_t j = 0; j < keep; ++j) {
    if (buckets.intra[j].size() != old_m.shards[j].edge_count ||
        buckets.fin[j].size() + buckets.fout[j].size() !=
            old_m.shards[j].frontier_count) {
      return mismatch("shard " + std::to_string(j) + " changed edges");
    }
  }

  const ShardCodec codec =
      options.codec.has_value()
          ? *options.codec
          : (old_m.shards.empty() ? ShardCodec::kRaw
                                  : old_m.shards[keep > 0 ? keep - 1 : 0]
                                        .codec);
  Manifest manifest = manifest_skeleton(graph, plan);
  manifest.generation = old_m.generation + 1;
  // Kept shards keep their page sets too: they hold page ids, not
  // indices, so a grown universe does not shift them.
  for (std::uint32_t j = 0; j < keep; ++j) {
    manifest.shards[j] = old_m.shards[j];
  }
  // Rewritten shards land under generation-suffixed names, so nothing
  // the old manifest references is touched until the new manifest
  // commits: a crash anywhere before that leaves the old store fully
  // readable (plus some unreferenced new-generation files).
  if (Status st = materialize_shards(graph, plan, buckets, keep, dir, codec,
                                     manifest.generation, manifest.shards);
      !st.ok()) {
    return st;
  }
  // Commit order: new-generation shard files durable (data fsynced at
  // write, names by the directory sync) strictly before the manifest
  // that references them replaces the old one.
  if (Status st = sync_directory(dir); !st.ok()) return st;
  if (Status st = replace_file_bytes(dir + "/" + kManifestFileName,
                                     serialize_manifest(manifest));
      !st.ok()) {
    return st;
  }
  // Only after the manifest commit: sweep every shard file the new
  // manifest does not reference -- the generation just superseded,
  // plus any orphans an earlier crashed append left behind (a crash
  // right here strands this generation's losers the same way; the
  // next successful append collects them).
  sweep_unreferenced_shard_files(dir, manifest);
  return AppendResult{std::move(manifest), keep, tail};
}

Result<cpg::Graph> rank_prefix(const cpg::Graph& graph,
                               std::uint32_t max_nodes) {
  const std::size_t n = graph.nodes().size();
  if (n == 0 || max_nodes == 0) {
    return Status(StatusCode::kFailedPrecondition,
                  "rank_prefix: nothing to cut");
  }
  const auto& edges = graph.edges();
  // prefix_max_rank[c] = max rank among ids 0..c-1; a cut c is
  // id/rank-consistent iff that max is c-1 (ids {0..c-1} are exactly
  // ranks {0..c-1}).
  std::vector<std::uint32_t> prefix_max(n + 1, 0);
  for (std::size_t id = 0; id < n; ++id) {
    prefix_max[id + 1] =
        std::max(prefix_max[id], graph.rank(static_cast<cpg::NodeId>(id)));
  }
  // A cut c is edge-clean iff the edges among ids < c form a prefix
  // of the edge list (the capture's edge indices up to the cut must be
  // final): equivalently, the leading run of edges whose max endpoint
  // is < c already holds *all* such edges. Both counts are answerable
  // from O(e)-precomputed arrays -- the running max of edge endpoints
  // (non-decreasing, so the run length is one binary search) and a
  // histogram prefix sum of max endpoints -- so the candidate loop
  // never rescans the edge list.
  std::vector<cpg::NodeId> edge_running_max(edges.size());
  std::vector<std::size_t> edges_below(n + 1, 0);  // count with max < c
  cpg::NodeId running = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const cpg::NodeId me = std::max(edges[i].from, edges[i].to);
    running = std::max(running, me);
    edge_running_max[i] = running;
    ++edges_below[std::min<std::size_t>(me + 1, n)];
  }
  for (std::size_t c = 1; c <= n; ++c) edges_below[c] += edges_below[c - 1];
  const std::size_t target = std::min<std::size_t>(max_nodes, n);
  for (std::size_t c = target; c >= 1; --c) {
    if (prefix_max[c] != c - 1) continue;
    const std::size_t leading_run = static_cast<std::size_t>(
        std::lower_bound(edge_running_max.begin(), edge_running_max.end(),
                         static_cast<cpg::NodeId>(c)) -
        edge_running_max.begin());
    const std::size_t prefix_edges = edges_below[c];
    if (leading_run != prefix_edges) continue;
    std::vector<cpg::SubComputation> nodes(graph.nodes().begin(),
                                           graph.nodes().begin() +
                                               static_cast<std::ptrdiff_t>(c));
    std::vector<cpg::Edge> prefix(edges.begin(),
                                  edges.begin() +
                                      static_cast<std::ptrdiff_t>(prefix_edges));
    // The first c rows of the column, and the records they end at.
    const cpg::ThunkColumn& all = graph.thunk_column();
    cpg::ThunkColumn thunks;
    if (!all.ends.empty()) {
      thunks.ends.assign(all.ends.begin(),
                         all.ends.begin() + static_cast<std::ptrdiff_t>(c));
      thunks.records.assign(
          all.records.begin(),
          all.records.begin() + static_cast<std::ptrdiff_t>(
                                    thunks.ends.back() * cpg::kThunkRecordBytes));
    }
    return cpg::Graph(std::move(nodes), std::move(prefix), {},
                      std::move(thunks));
  }
  return Status(StatusCode::kFailedPrecondition,
                "rank_prefix: no clean cut at or below " +
                    std::to_string(max_nodes) + " nodes");
}

}  // namespace inspector::shard
