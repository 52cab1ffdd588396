// Figure 5: "Performance overhead over the native execution with
// increasing number of threads" -- all 12 apps, 2/4/8/16 threads.
//
// The paper runs streamcluster at 14/15 threads too because its PT log
// no longer fits memory at 16 (§VII-A); we reproduce those extra
// columns.
//
// The overhead table is modelled (the cost model's simulated time); a
// second table beside it gives the measured wall time of run and
// run_native for every cell.
//
//   ./bench_fig5_overhead [--threads 2,4,8,16]
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/inspector.h"
#include "core/report.h"
#include "measured.h"
#include "workloads/registry.h"

namespace {

std::vector<std::uint32_t> parse_threads(int argc, char** argv) {
  std::vector<std::uint32_t> threads = {2, 4, 8, 16};
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      threads.clear();
      std::stringstream ss(argv[i + 1]);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        threads.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
      }
    }
  }
  return threads;
}

}  // namespace

int main(int argc, char** argv) {
  const auto thread_counts = parse_threads(argc, argv);

  std::cout << "Figure 5: provenance overhead w.r.t. native execution\n\n"
            << "Modelled (cost-model simulated time): modelled@N = "
               "INSPECTOR time / pthreads time at N threads; work@N = the "
               "same ratio of total CPU over all threads.\n\n";

  std::vector<std::string> headers = {"workload"};
  for (auto t : thread_counts) {
    headers.push_back("modelled@" + std::to_string(t));
  }
  // The companion *work* measurement (total CPU over all threads) the
  // paper's tech report carries.
  for (auto t : thread_counts) headers.push_back("work@" + std::to_string(t));
  inspector::core::Table table(headers);

  std::vector<std::string> wall_headers = {"workload"};
  for (auto t : thread_counts) {
    wall_headers.push_back("run_ms@" + std::to_string(t));
    wall_headers.push_back("native_ms@" + std::to_string(t));
  }
  inspector::core::Table wall(wall_headers);

  inspector::core::Inspector insp;
  for (const auto& entry : inspector::workloads::all_workloads()) {
    std::vector<std::string> row = {entry.name};
    std::vector<std::string> work_cells;
    std::vector<std::string> wall_row = {entry.name};
    for (std::uint32_t threads : thread_counts) {
      inspector::workloads::WorkloadConfig config;
      config.threads = threads;
      const auto m =
          inspector::bench::measured_compare(insp, entry.make(config));
      row.push_back(inspector::core::format_overhead(m.cmp.time_overhead()));
      work_cells.push_back(
          inspector::core::format_overhead(m.cmp.work_overhead()));
      wall_row.push_back(inspector::bench::format_ms(m.run_ms));
      wall_row.push_back(inspector::bench::format_ms(m.native_ms));
    }
    row.insert(row.end(), work_cells.begin(), work_cells.end());
    table.add_row(std::move(row));
    wall.add_row(std::move(wall_row));

    // The paper's footnote run: streamcluster at 14 and 15 threads.
    if (entry.name == "streamcluster") {
      std::vector<std::string> extra = {"streamcluster (14/15T)"};
      std::vector<std::string> wall_extra = {"streamcluster (14/15T)"};
      for (std::uint32_t threads : {14u, 15u}) {
        inspector::workloads::WorkloadConfig config;
        config.threads = threads;
        const auto m =
            inspector::bench::measured_compare(insp, entry.make(config));
        extra.push_back(
            inspector::core::format_overhead(m.cmp.time_overhead()));
        wall_extra.push_back(inspector::bench::format_ms(m.run_ms));
        wall_extra.push_back(inspector::bench::format_ms(m.native_ms));
      }
      while (extra.size() < headers.size()) extra.push_back("-");
      while (wall_extra.size() < wall_headers.size()) {
        wall_extra.push_back("-");
      }
      table.add_row(std::move(extra));  // work columns not re-measured
      wall.add_row(std::move(wall_extra));
    }
  }
  std::cout << table
            << "\npaper shape: 9/12 apps between 1x and ~2.5x; canneal, "
               "reverse_index and kmeans exceptionally high; "
               "linear_regression below 1x; overhead grows with threads.\n"
            << "\nMeasured (wall time of this build): run_ms@N = "
               "Inspector::run, native_ms@N = Inspector::run_native, in "
               "milliseconds.\n\n"
            << wall;
  return 0;
}
