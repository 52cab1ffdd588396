// Figure 8: "Scalability of overheads with increase in the input data
// sizes with 16 threads" -- histogram, linear_regression, string_match,
// word_count at small/medium/large inputs. The paper's observation: the
// gap between pthreads and INSPECTOR narrows as inputs grow.
//
// The overheads are modelled (the cost model's simulated time); beside
// them are the measured wall times of run and run_native.
#include <iostream>

#include "core/inspector.h"
#include "core/report.h"
#include "measured.h"
#include "workloads/registry.h"

int main() {
  std::cout << "Figure 8: overhead vs input size, 16 threads\n\n"
            << "modelled_*: cost-model simulated time, INSPECTOR / "
               "pthreads. *_ms: measured wall time of this build -- "
               "Inspector::run and run_native.\n\n";

  using inspector::workloads::InputSize;
  inspector::core::Table table({"workload", "size", "input_MB",
                                "modelled_overhead", "modelled_work",
                                "run_ms", "native_ms"});
  inspector::core::Inspector insp;

  for (const auto& name : inspector::workloads::sized_workload_names()) {
    for (InputSize size :
         {InputSize::kSmall, InputSize::kMedium, InputSize::kLarge}) {
      inspector::workloads::WorkloadConfig config;
      config.threads = 16;
      config.size = size;
      const auto program = inspector::workloads::make_workload(name, config);
      const auto m = inspector::bench::measured_compare(insp, program);
      table.add_row(
          {name, inspector::workloads::size_name(size),
           inspector::core::format_fixed(
               static_cast<double>(program.input_bytes) / (1 << 20), 0),
           inspector::core::format_overhead(m.cmp.time_overhead()),
           inspector::core::format_overhead(m.cmp.work_overhead()),
           inspector::bench::format_ms(m.run_ms),
           inspector::bench::format_ms(m.native_ms)});
    }
  }
  std::cout << table
            << "\npaper shape: for each app the overhead decreases "
               "monotonically from small to large inputs (threads spend "
               "more time computing per synchronization point).\n";
  return 0;
}
