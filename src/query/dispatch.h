// The one per-kind query dispatch, over either storage view.
//
// GraphQueryBackend runs it on an analysis::GraphView and
// shard::ShardBackend on its store view, so validation, typed errors
// and result payloads are written once and every reply is
// backend-independent byte for byte. Each kind calls its kernel in
// analysis/kernels.h; a new kind lands here and nowhere else.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "analysis/kernels.h"
#include "query/engine.h"
#include "query/overloaded.h"

namespace inspector::query::detail {

inline Status node_range_error(cpg::NodeId id, std::size_t count) {
  return {StatusCode::kOutOfRange, "node id " + std::to_string(id) +
                                       " out of range [0, " +
                                       std::to_string(count) + ")"};
}

inline Status untouched_page_error(std::uint64_t page) {
  return {StatusCode::kNotFound, "page " + std::to_string(page) +
                                     " was not touched by any recorded node"};
}

inline Status cyclic_error(const char* what) {
  return {StatusCode::kFailedPrecondition,
          std::string(what) +
              " requires a topological order, but the graph has a cycle"};
}

/// Validate + execute one canonicalized query against `view`. A view
/// that cannot deliver a node (a store's quarantined shard on a strict
/// lookup) throws; its backend converts that into a typed Status.
template <typename View>
[[nodiscard]] Result<Execution> execute_on(const View& view, const Query& q) {
  namespace kernels = analysis::kernels;
  const std::size_t node_count = view.node_count();
  const auto valid_node = [&](cpg::NodeId id) { return id < node_count; };

  Result<QueryResult> r = std::visit(
      Overloaded{
          [&](const BackwardSliceQuery& s) -> Result<QueryResult> {
            if (!valid_node(s.node)) return node_range_error(s.node, node_count);
            return QueryResult(
                NodeListResult{kernels::backward_slice(view, s.node)});
          },
          [&](const ForwardSliceQuery& s) -> Result<QueryResult> {
            if (!valid_node(s.node)) return node_range_error(s.node, node_count);
            return QueryResult(
                NodeListResult{kernels::forward_slice(view, s.node)});
          },
          [&](const LatestWritersQuery& s) -> Result<QueryResult> {
            if (!valid_node(s.node)) return node_range_error(s.node, node_count);
            return QueryResult(
                EdgeListResult{kernels::latest_writers(view, s.node)});
          },
          [&](const DataDependenciesQuery& s) -> Result<QueryResult> {
            if (!valid_node(s.node)) return node_range_error(s.node, node_count);
            return QueryResult(
                EdgeListResult{kernels::data_dependencies(view, s.node)});
          },
          [&](const PageAccessorsQuery& s) -> Result<QueryResult> {
            const auto idx = page_index(view.pages(), s.page);
            if (!idx) return untouched_page_error(s.page);
            auto scope = view.scope();
            const auto writers = scope.writers(*idx);
            const auto readers = scope.readers(*idx);
            PageAccessorsResult out;
            out.page = s.page;
            out.writers.reserve(writers.size());
            out.readers.reserve(readers.size());
            for (std::size_t i = 0; i < writers.size(); ++i) {
              out.writers.push_back(writers[i].id);
            }
            for (std::size_t i = 0; i < readers.size(); ++i) {
              out.readers.push_back(readers[i].id);
            }
            return QueryResult(std::move(out));
          },
          [&](const HappensBeforeQuery& s) -> Result<QueryResult> {
            if (!valid_node(s.first)) {
              return node_range_error(s.first, node_count);
            }
            if (!valid_node(s.second)) {
              return node_range_error(s.second, node_count);
            }
            HappensBeforeResult out;
            if (s.first == s.second) {
              out.ordering = Ordering::kEqual;
              return QueryResult(out);
            }
            auto scope = view.scope();
            const auto a = scope.node(s.first);
            const auto b = scope.node(s.second);
            if (cpg::happens_before(a, b)) {
              out.ordering = Ordering::kBefore;
            } else if (cpg::happens_before(b, a)) {
              out.ordering = Ordering::kAfter;
            } else {
              out.ordering = Ordering::kConcurrent;
            }
            return QueryResult(out);
          },
          [&](const RacesQuery& s) -> Result<QueryResult> {
            return QueryResult(RaceListResult{kernels::find_races(
                view, s.ignored_pages, static_cast<std::size_t>(s.limit))});
          },
          [&](const TaintQuery& s) -> Result<QueryResult> {
            if (!view.acyclic()) return cyclic_error("taint");
            auto flow = kernels::propagate_pages(
                view, s.seed_pages, s.track_register_carryover, s.sink_kind);
            FlowResult out;
            out.sinks = std::move(flow.sinks);
            out.nodes = std::move(flow.nodes);
            out.pages = std::move(flow.pages);
            return QueryResult(std::move(out));
          },
          [&](const InvalidateQuery& s) -> Result<QueryResult> {
            if (!view.acyclic()) return cyclic_error("invalidate");
            // Register carry-over is always on: once a thread consumed
            // changed data, everything it does afterwards may differ.
            auto flow = kernels::propagate_pages(view, s.changed_pages,
                                                 /*thread_carryover=*/true);
            FlowResult out;
            out.nodes = std::move(flow.nodes);
            out.pages = std::move(flow.pages);
            return QueryResult(std::move(out));
          },
          [&](const CriticalPathQuery&) -> Result<QueryResult> {
            if (!view.acyclic()) return cyclic_error("critical_path");
            auto cp = kernels::critical_path(view);
            CriticalPathResult out;
            out.nodes = std::move(cp.nodes);
            out.total_nodes = cp.total_nodes;
            return QueryResult(std::move(out));
          },
          [&](const StatsQuery&) -> Result<QueryResult> {
            return QueryResult(StatsResult{view.stats()});
          },
      },
      q);
  if (!r.ok()) return r.status();
  return Execution{std::move(r).value(), view.degraded()};
}

}  // namespace inspector::query::detail
