// Unit tests for the odtn::recovery building blocks: config validation,
// the suspicion tracker's EWMA and flip accounting, suspicion-biased
// relay-group selection, the retransmission schedule, and the saturation
// window.
#include "recovery/recovery.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "groups/group_directory.hpp"
#include "util/rng.hpp"

namespace odtn::recovery {
namespace {

TEST(RecoveryConfig, DefaultsAreDisabledAndValid) {
  RecoveryConfig rc;
  EXPECT_FALSE(rc.enabled());
  EXPECT_FALSE(rc.shedding());
  EXPECT_NO_THROW(rc.validate());
}

TEST(RecoveryConfig, RejectsBadKnobs) {
  RecoveryConfig rc;
  rc.retx_timeout = -1.0;
  EXPECT_THROW(rc.validate(), std::invalid_argument);

  rc = {};
  rc.retx_timeout = 10.0;
  rc.retx_max = 0;
  EXPECT_THROW(rc.validate(), std::invalid_argument);

  rc = {};
  rc.retx_timeout = 10.0;
  rc.retx_backoff = 0.5;  // must not shrink the interval
  EXPECT_THROW(rc.validate(), std::invalid_argument);

  rc = {};
  rc.retx_timeout = 10.0;
  rc.retx_jitter = 1.0;  // jitter fraction must stay below 1
  EXPECT_THROW(rc.validate(), std::invalid_argument);

  rc = {};
  rc.suspicion_alpha = 0.5;  // suspicion learns from timeouts: needs retx
  EXPECT_THROW(rc.validate(), std::invalid_argument);

  rc = {};
  rc.retx_timeout = 10.0;
  rc.suspicion_alpha = 1.5;
  EXPECT_THROW(rc.validate(), std::invalid_argument);

  rc = {};
  rc.shed_occupancy = 1.5;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
}

TEST(SuspicionTracker, ConvergesOnFailuresAndHealsOnAcks) {
  SuspicionTracker tracker(0.5, 0.75);
  EXPECT_EQ(tracker.suspicion(7), 0.0);
  EXPECT_FALSE(tracker.suspected(7));

  // Three straight timeouts: 0 -> 0.5 -> 0.75 -> 0.875; the threshold is
  // crossed (>=) at the second record.
  tracker.record(7, false);
  EXPECT_FALSE(tracker.suspected(7));
  tracker.record(7, false);
  EXPECT_TRUE(tracker.suspected(7));
  tracker.record(7, false);
  EXPECT_DOUBLE_EQ(tracker.suspicion(7), 0.875);
  EXPECT_EQ(tracker.flips(), 1u);
  EXPECT_EQ(tracker.suspected_count(), 1u);

  // Acked sends exonerate: 0.875 -> 0.4375 drops below the threshold.
  tracker.record(7, true);
  EXPECT_FALSE(tracker.suspected(7));
  EXPECT_EQ(tracker.flips(), 2u);
  EXPECT_EQ(tracker.suspected_count(), 0u);
}

TEST(SuspicionTracker, TracksGroupsIndependently) {
  SuspicionTracker tracker(1.0, 0.75);  // alpha 1: last outcome wins
  tracker.record(1, false);
  tracker.record(2, true);
  EXPECT_TRUE(tracker.suspected(1));
  EXPECT_FALSE(tracker.suspected(2));
  EXPECT_EQ(tracker.suspected_count(), 1u);
}

// With clean candidate groups available, the biased selection must return
// a set free of suspected groups; node i is group i (g = 1), so groups
// are identifiable exactly.
TEST(SelectRelayGroupsAvoiding, AvoidsSuspectedGroupsWhenPossible) {
  groups::GroupDirectory dir(20, 1);
  SuspicionTracker tracker(1.0, 0.5);
  // Poison four relay candidates (endpoints 0 and 1 are excluded from
  // selection anyway). With 32 attempts a draw free of all four is found
  // with near-certainty, so every returned set must be clean.
  for (GroupId g = 2; g < 6; ++g) tracker.record(g, false);

  util::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    auto groups =
        select_relay_groups_avoiding(dir, &tracker, 0, 1, 3, rng, 32);
    ASSERT_EQ(groups.size(), 3u);
    for (GroupId g : groups) {
      EXPECT_FALSE(tracker.suspected(g)) << "picked suspected group " << g;
    }
  }
}

// When every draw is tainted the selection degrades gracefully to the
// least-suspected candidate set instead of looping forever.
TEST(SelectRelayGroupsAvoiding, FallsBackWhenAllGroupsSuspected) {
  groups::GroupDirectory dir(6, 1);
  SuspicionTracker tracker(1.0, 0.5);
  for (GroupId g = 0; g < 6; ++g) tracker.record(g, false);
  util::Rng rng(1);
  auto groups = select_relay_groups_avoiding(dir, &tracker, 0, 1, 2, rng);
  EXPECT_EQ(groups.size(), 2u);
}

TEST(SelectRelayGroupsAvoiding, NullTrackerIsPlainSelection) {
  groups::GroupDirectory dir(20, 2);
  util::Rng a(5), b(5);
  EXPECT_EQ(select_relay_groups_avoiding(dir, nullptr, 0, 1, 3, a),
            dir.select_relay_groups(0, 1, 3, b));
  EXPECT_EQ(a.next(), b.next());  // one draw, not `attempts` draws
}

TEST(SuspicionTracker, RecordsAGenerationsGroups) {
  SuspicionTracker tracker(1.0, 0.5);
  const std::vector<GroupId> gen = {3, 7};
  tracker.record(gen, /*acked=*/false);
  EXPECT_TRUE(tracker.suspected(3));
  EXPECT_TRUE(tracker.suspected(7));
  EXPECT_EQ(tracker.flips(), 2u);
  tracker.record(gen, /*acked=*/true);
  EXPECT_EQ(tracker.suspected_count(), 0u);
}

RecoveryConfig retx_config(double jitter, std::size_t max) {
  RecoveryConfig rc;
  rc.retx_timeout = 10.0;
  rc.retx_backoff = 2.0;
  rc.retx_jitter = jitter;
  rc.retx_max = max;
  return rc;
}

// Window n lasts timeout * backoff^n, measured from each arm's `from`.
TEST(RetxSchedule, WindowsBackOffGeometrically) {
  const RecoveryConfig rc = retx_config(0.0, 5);
  RetxSchedule s(rc, 1e9);
  util::Rng rng(1), untouched(1);
  EXPECT_EQ(s.arm(0.0, 0, rng), 10.0);
  EXPECT_EQ(s.arm(10.0, 1, rng), 30.0);
  EXPECT_EQ(s.arm(30.0, 2, rng), 70.0);
  EXPECT_EQ(s.arm(100.0, 3, rng), 180.0);
  EXPECT_EQ(rng.next(), untouched.next());  // no jitter, no draw
}

// Exactly one jitter draw per arm, scaling the window by
// 1 + jitter * (2u - 1) — also for arms that return kTimeInfinity, past
// the deadline (arm 1) or the attempt cap (arms 2 and 3).
TEST(RetxSchedule, DrawsOnceOnEveryArm) {
  const RecoveryConfig rc = retx_config(0.25, 2);
  RetxSchedule s(rc, 60.0);
  util::Rng rng(7), ref(7);
  double base = 10.0;
  for (std::size_t sent = 0; sent < 4; ++sent) {
    const double window = base * (1.0 + 0.25 * (2.0 * ref.uniform01() - 1.0));
    base *= 2.0;
    const Time from = sent == 1 ? 45.0 : 0.0;  // arm 1 lands past 60
    const Time due = s.arm(from, sent, rng);
    if (sent == 0) {
      EXPECT_EQ(due, window);
    } else {
      EXPECT_EQ(due, kTimeInfinity) << "arm " << sent;
    }
  }
  EXPECT_EQ(rng.next(), ref.next());
}

TEST(RetxSchedule, AttemptCapStopsArming) {
  const RecoveryConfig rc = retx_config(0.0, 2);
  RetxSchedule s(rc, 1e9);
  util::Rng rng(1);
  EXPECT_EQ(s.arm(0.0, 0, rng), 10.0);
  EXPECT_EQ(s.arm(10.0, 1, rng), 30.0);
  EXPECT_EQ(s.arm(30.0, 2, rng), kTimeInfinity);
}

// A timer due exactly at the deadline is not armed: a retransmission sent
// then can never deliver. Due strictly before it is.
TEST(RetxSchedule, DeadlineIsExclusive) {
  const RecoveryConfig rc = retx_config(0.0, 5);
  util::Rng rng(1);
  RetxSchedule at(rc, 10.0);
  EXPECT_EQ(at.arm(0.0, 0, rng), kTimeInfinity);
  RetxSchedule after(rc, 10.5);
  EXPECT_EQ(after.arm(0.0, 0, rng), 10.0);
  EXPECT_EQ(after.arm(10.0, 1, rng), kTimeInfinity);  // due 30 > 10.5
}

TEST(SaturationWindow, TracksSlidingFraction) {
  SaturationWindow w(4);
  EXPECT_EQ(w.fraction(), 0.0);
  w.record(true);
  EXPECT_DOUBLE_EQ(w.fraction(), 1.0);
  w.record(false);
  EXPECT_DOUBLE_EQ(w.fraction(), 0.5);
  w.record(false);
  w.record(false);
  EXPECT_DOUBLE_EQ(w.fraction(), 0.25);
  // The window slides: the original `true` falls out.
  w.record(false);
  EXPECT_DOUBLE_EQ(w.fraction(), 0.0);
}

}  // namespace
}  // namespace odtn::recovery
