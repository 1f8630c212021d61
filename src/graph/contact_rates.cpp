#include "graph/contact_rates.hpp"

#include <stdexcept>

namespace odtn::graph {

double ContactRates::mean_set_to_set_rate(std::span<const NodeId> from,
                                          std::span<const NodeId> to) const {
  if (from.empty()) throw std::invalid_argument("mean_set_to_set_rate: empty");
  double sum = 0.0;
  for (NodeId i : from) sum += rate_to_set(i, to);
  return sum / static_cast<double>(from.size());
}

}  // namespace odtn::graph
