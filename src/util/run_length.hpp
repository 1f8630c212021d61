// The traceable rate of a path bit string.
//
// The paper's traceable-rate analysis (Sec. IV-D) reduces "how much of a
// routing path is disclosed" to computing runs of 1s in the binary
// representation of a path: bit i is 1 iff the sender of hop i is
// compromised. The adversary measurement reads it.
#pragma once

#include <vector>

namespace odtn::util {

/// Traceable rate of a path bit string (Eq. 1):
///   P_trace = (1/eta^2) * sum_i (run_i)^2
/// over the maximal runs of `true`, where eta = bits.size() is the hop
/// count. Example: 0110111 -> (2^2 + 3^2) / 7^2. Returns 0 for empty input.
double traceable_rate(const std::vector<bool>& bits);

}  // namespace odtn::util
