#include "analysis/races.h"

#include <ostream>

#include "analysis/kernels.h"

namespace inspector::analysis {

std::ostream& operator<<(std::ostream& os, const RaceReport& report) {
  return os << (report.write_write ? "W/W" : "R/W") << " race on page "
            << report.page << " between node " << report.first << " and "
            << report.second;
}

std::vector<RaceReport> find_races(const cpg::Graph& graph,
                                   const RaceOptions& options) {
  return kernels::find_races(GraphView(graph), options.ignored_pages,
                             options.limit);
}

bool race_free(const cpg::Graph& graph) {
  RaceOptions options;
  options.limit = 1;
  return find_races(graph, options).empty();
}

}  // namespace inspector::analysis
