// Measured wall time beside the paper figures' modelled numbers. The
// figures' overhead columns are simulated nanoseconds from the cost
// model (runtime/cost_model.h): what the paper's testbed would take.
// These helpers time what our own code takes to run the same program.
#pragma once

#include <chrono>
#include <string>
#include <utility>

#include "core/inspector.h"
#include "core/report.h"

namespace inspector::bench {

/// Wall milliseconds `fn` takes; its result lands in `out`.
template <typename Fn>
double wall_ms(runtime::ExecutionResult& out, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  out = std::forward<Fn>(fn)();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Inspector::compare, with the wall time of each half.
struct MeasuredComparison {
  core::Comparison cmp;
  double native_ms = 0;
  double run_ms = 0;
};

inline MeasuredComparison measured_compare(const core::Inspector& insp,
                                           const runtime::Program& program) {
  MeasuredComparison m;
  m.native_ms =
      wall_ms(m.cmp.native, [&] { return insp.run_native(program); });
  m.run_ms = wall_ms(m.cmp.traced, [&] { return insp.run(program); });
  return m;
}

/// Wall time of one traced run under `options`.
inline double traced_run_ms(const core::Options& options,
                            const runtime::Program& program) {
  runtime::ExecutionResult result;
  return wall_ms(result,
                 [&] { return core::Inspector(options).run(program); });
}

[[nodiscard]] inline std::string format_ms(double ms) {
  return core::format_fixed(ms, 1);
}

}  // namespace inspector::bench
