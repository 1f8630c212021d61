#include "recovery/recovery.hpp"

#include <stdexcept>

#include "groups/group_directory.hpp"

namespace odtn::recovery {

SuspicionTracker::SuspicionTracker(double alpha, double threshold)
    : alpha_(alpha), threshold_(threshold) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("SuspicionTracker: alpha must be in (0, 1]");
  }
  if (threshold <= 0.0 || threshold > 1.0) {
    throw std::invalid_argument(
        "SuspicionTracker: threshold must be in (0, 1]");
  }
}

void SuspicionTracker::record(GroupId group, bool acked) {
  double& s = score_[group];  // default-inserts 0 (unsuspected)
  const bool was = s >= threshold_;
  s = (1.0 - alpha_) * s + alpha_ * (acked ? 0.0 : 1.0);
  if ((s >= threshold_) != was) ++flips_;
}

void SuspicionTracker::record(std::span<const GroupId> groups, bool acked) {
  for (GroupId g : groups) record(g, acked);
}

double SuspicionTracker::suspicion(GroupId group) const {
  auto it = score_.find(group);
  return it == score_.end() ? 0.0 : it->second;
}

bool SuspicionTracker::suspected(GroupId group) const {
  return suspicion(group) >= threshold_;
}

std::vector<GroupId> select_relay_groups_avoiding(
    const groups::GroupDirectory& directory, const SuspicionTracker* tracker,
    NodeId src, NodeId dst, std::size_t k, util::Rng& rng,
    std::size_t attempts) {
  std::vector<GroupId> best;
  std::size_t best_tainted = static_cast<std::size_t>(-1);
  for (std::size_t a = 0; a < attempts; ++a) {
    std::vector<GroupId> draw =
        directory.select_relay_groups(src, dst, k, rng);
    std::size_t tainted = 0;
    if (tracker != nullptr) {
      for (GroupId g : draw) tainted += tracker->suspected(g);
    }
    if (tainted < best_tainted) {
      best_tainted = tainted;
      best = std::move(draw);
      if (best_tainted == 0) break;
    }
  }
  return best;
}

Time RetxSchedule::arm(Time from, std::size_t sent, util::Rng& rng) {
  double window = interval_;
  if (config_->retx_jitter > 0.0) {
    window *= 1.0 + config_->retx_jitter * (2.0 * rng.uniform01() - 1.0);
  }
  interval_ *= config_->retx_backoff;
  const Time due = from + window;
  return sent < config_->retx_max && due < deadline_ ? due : kTimeInfinity;
}

SaturationWindow::SaturationWindow(std::size_t window)
    : bits_(window == 0 ? 1 : window, 0) {}

void SaturationWindow::record(bool saturated) {
  if (filled_ == bits_.size()) {
    ones_ -= bits_[next_];
  } else {
    ++filled_;
  }
  bits_[next_] = saturated ? 1 : 0;
  ones_ += bits_[next_];
  next_ = (next_ + 1) % bits_.size();
}

double SaturationWindow::fraction() const {
  return filled_ == 0
             ? 0.0
             : static_cast<double>(ones_) / static_cast<double>(filled_);
}

}  // namespace odtn::recovery
