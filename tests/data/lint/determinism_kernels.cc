// LINT-PATH: src/analysis/kernels.h
//
// determinism-hygiene covers the query kernels both storage views run:
// a kernel computes reply payloads, so hash order there is reply order.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fixture {

std::vector<std::uint64_t> pair_keys(
    const std::unordered_map<std::uint64_t, int>& pairs) {
  std::vector<std::uint64_t> keys;
  for (const auto& [key, c] : pairs) {  // EXPECT: determinism-hygiene
    if (c != 0) keys.push_back(key);
  }
  return keys;
}

}  // namespace fixture
