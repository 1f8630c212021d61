#include "util/run_length.hpp"

#include <cstddef>

namespace odtn::util {

double traceable_rate(const std::vector<bool>& bits) {
  if (bits.empty()) return 0.0;
  std::size_t sum = 0;  // sum of squared run lengths: Eq. 1's numerator
  std::size_t cur = 0;
  for (bool b : bits) {
    if (b) {
      ++cur;
    } else {
      sum += cur * cur;
      cur = 0;
    }
  }
  sum += cur * cur;
  const double eta = static_cast<double>(bits.size());
  return static_cast<double>(sum) / (eta * eta);
}

}  // namespace odtn::util
