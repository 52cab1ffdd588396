// LINT-PATH: src/perf/fixture_data_file.cpp
//
// no-throw-across-boundary covers src/perf/: perf.data decodes to a
// typed Result, so a `throw` there is a finding unless annotated.
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace fixture {

std::uint32_t magic(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 4) {
    throw std::runtime_error("perf data: truncated");  // EXPECT: no-throw-across-boundary
  }
  return bytes[0];
}

}  // namespace fixture
