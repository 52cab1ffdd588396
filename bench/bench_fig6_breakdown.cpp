// Figure 6: "Performance overheads breakdown with 16 threads" (15 for
// streamcluster) -- total overhead split into the threading library
// (page faults, commits, process creation) and the OS support for
// Intel PT (trace generation + perf).
//
// The breakdown is modelled (the cost model's simulated time); beside
// it are the measured wall times of run and run_native and of the two
// ablations, enable_memtrack = false and enable_pt = false.
#include <iostream>

#include "core/inspector.h"
#include "core/report.h"
#include "measured.h"
#include "workloads/registry.h"

int main() {
  std::cout << "Figure 6: overhead breakdown, 16 threads "
               "(streamcluster: 15 threads as in the paper)\n\n"
            << "modelled_* and *_share: cost-model simulated time. *_ms: "
               "measured wall time of this build -- Inspector::run, "
               "run_native, and run with enable_memtrack = false and with "
               "enable_pt = false.\n\n";

  inspector::core::Table table(
      {"workload", "modelled_total", "modelled_lib", "modelled_pt",
       "lib_share", "pt_share", "run_ms", "native_ms", "no_memtrack_ms",
       "no_pt_ms"});
  inspector::core::Inspector insp;
  inspector::core::Options no_memtrack;
  no_memtrack.enable_memtrack = false;
  inspector::core::Options no_pt;
  no_pt.enable_pt = false;

  for (const auto& entry : inspector::workloads::all_workloads()) {
    inspector::workloads::WorkloadConfig config;
    config.threads = entry.name == "streamcluster" ? 15 : 16;
    const auto program = entry.make(config);
    const auto m = inspector::bench::measured_compare(insp, program);

    const auto& b = m.cmp.traced.stats.breakdown;
    // Express each component as its share of the extra time, scaled to
    // the observed total overhead (the figure's stacked bars).
    const double total = m.cmp.time_overhead();
    const double extra = total - 1.0;
    const double lib_frac =
        b.total() == 0 ? 0.0
                       : static_cast<double>(b.threading_lib_ns) /
                             static_cast<double>(b.total());
    const double lib_x = 1.0 + extra * lib_frac;   // native + lib part
    const double pt_x = 1.0 + extra * (1 - lib_frac);

    table.add_row(
        {entry.name, inspector::core::format_overhead(total),
         inspector::core::format_overhead(lib_x),
         inspector::core::format_overhead(pt_x),
         inspector::core::format_fixed(100 * lib_frac, 0) + "%",
         inspector::core::format_fixed(100 * (1 - lib_frac), 0) + "%",
         inspector::bench::format_ms(m.run_ms),
         inspector::bench::format_ms(m.native_ms),
         inspector::bench::format_ms(
             inspector::bench::traced_run_ms(no_memtrack, program)),
         inspector::bench::format_ms(
             inspector::bench::traced_run_ms(no_pt, program))});
  }
  std::cout << table
            << "\npaper shape: canneal, reverse_index and kmeans spend the "
               "majority of their overhead in the threading library; for "
               "most other applications Intel PT tracing dominates.\n";
  return 0;
}
