// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Round timing of gossip without Optimization 2. A peer keeps its global
// round pending only while its cache holds an ad; whenever a round runs,
// it falls on exactly the tick an always-on periodic series with the
// peer's phase would have produced. Dormancy removes events, nothing else.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/opportunistic_gossip.h"
#include "mobility/constant_velocity.h"
#include "net/medium.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace madnet::core {
namespace {

using mobility::Stationary;
using net::Medium;
using net::NodeId;

constexpr double kRound = 5.0;
constexpr uint64_t kSeedBase = 9000;

AdContent PetrolAd() { return {"petrol", {"discount"}, "cheap fuel"}; }

/// Stationary peers running pure gossip. A flight recorder on the shared
/// trace keeps the medium's and the protocols' records with their exact
/// virtual times (the text trace rounds them to nanoseconds).
class RoundBed {
 public:
  RoundBed()
      : medium_(Medium::Options{}, &sim_, Rng(404)),
        trace_(obs::TraceOptions{}) {
    trace_.SetFlightRecorder(&recorder_);
    medium_.SetTrace(&trace_);
  }

  /// Adds one stationary peer per position and starts pure gossip on each.
  void Start(const std::vector<Vec2>& positions) {
    for (const Vec2& at : positions) {
      const NodeId id = static_cast<NodeId>(mobilities_.size());
      mobilities_.push_back(std::make_unique<Stationary>(at));
      EXPECT_TRUE(medium_.AddNode(id, mobilities_.back().get()).ok());
      ProtocolContext context;
      context.simulator = &sim_;
      context.medium = &medium_;
      context.self = id;
      context.rng = Rng(kSeedBase + id);
      context.trace = &trace_;
      gossips_.push_back(std::make_unique<OpportunisticGossip>(
          context, GossipOptions::Pure()));
      gossips_.back()->Start();
    }
  }

  /// The round phase peer `id` drew in Start(): the first draw of its
  /// stream.
  static double PhaseOf(NodeId id) {
    Rng rng(kSeedBase + id);
    return rng.Uniform(0.0, kRound);
  }

  /// Times of `node`'s deliver records after time `after`.
  std::vector<double> DeliveriesOf(NodeId node, double after = -1.0) const {
    return TimesOf(node, after, /*rounds=*/false);
  }

  /// Times of `node`'s gossip rounds after time `after`. With one cached
  /// ad, every round leaves exactly one record: a tx if the Bernoulli draw
  /// broadcast the ad, a "bernoulli" suppress otherwise.
  std::vector<double> RoundsOf(NodeId node, double after = -1.0) const {
    return TimesOf(node, after, /*rounds=*/true);
  }

  sim::Simulator sim_;
  Medium medium_;
  obs::FlightRecorder recorder_;
  obs::Trace trace_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobilities_;
  std::vector<std::unique_ptr<OpportunisticGossip>> gossips_;

 private:
  std::vector<double> TimesOf(NodeId node, double after, bool rounds) const {
    std::vector<double> times;
    for (const obs::FlightRecord& record : recorder_.Snapshot()) {
      if (record.a != node || record.t <= after) continue;
      const bool round =
          record.category == obs::kTraceTx ||
          (record.category == obs::kTraceSuppress &&
           std::string(record.reason) == "bernoulli");
      if (rounds ? round : record.category == obs::kTraceDeliver) {
        times.push_back(record.t);
      }
    }
    return times;
  }
};

/// The ticks of the periodic series with `phase` in [from, until), built
/// by the same repeated addition a periodic chain performs.
std::vector<double> SeriesTicks(double phase, double from, double until) {
  std::vector<double> ticks;
  for (double t = phase; t < until; t += kRound) {
    if (t >= from) ticks.push_back(t);
  }
  return ticks;
}

TEST(GossipRoundsTest, PopulationWithoutAdsSchedulesNothing) {
  RoundBed bed;
  std::vector<Vec2> positions;
  for (int i = 0; i < 20; ++i) positions.push_back({50.0 * i, 0.0});
  bed.Start(positions);
  EXPECT_EQ(bed.sim_.PendingEvents(), 0u);
  bed.sim_.RunUntil(100.0);
  EXPECT_EQ(bed.sim_.ExecutedEvents(), 0u);
}

TEST(GossipRoundsTest, RoundsAfterFirstReceiptFallOnThePeriodicSeries) {
  RoundBed bed;
  bed.Start({{0.0, 0.0}, {100.0, 0.0}});
  // A shadow series started with the receiver's phase, at the same
  // instant as its Start().
  std::vector<double> shadow;
  bed.sim_.SchedulePeriodic(RoundBed::PhaseOf(1), kRound, [&] {
    shadow.push_back(bed.sim_.Now());
    return true;
  });
  bed.sim_.RunUntil(12.3);
  ASSERT_TRUE(bed.gossips_[0]->Issue(PetrolAd(), 1000.0, 800.0).ok());
  bed.sim_.RunUntil(80.0);

  const std::vector<double> receipt = bed.DeliveriesOf(1);
  ASSERT_EQ(receipt.size(), 1u);
  const std::vector<double> rounds = bed.RoundsOf(1);
  ASSERT_GE(rounds.size(), 10u);
  size_t first = 0;
  while (first < shadow.size() && shadow[first] < receipt[0]) ++first;
  ASSERT_EQ(shadow.size() - first, rounds.size());
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i], shadow[first + i]) << "round " << i;
  }
}

TEST(GossipRoundsTest, ExpiryLeavesThePeerDormantAndANewAdReArmsIt) {
  RoundBed bed;
  bed.Start({{0.0, 0.0}});
  const double phase = RoundBed::PhaseOf(0);
  bed.sim_.RunUntil(1.0);
  ASSERT_TRUE(bed.gossips_[0]->Issue(PetrolAd(), 1000.0, 20.0).ok());
  EXPECT_EQ(bed.sim_.PendingEvents(), 1u);
  bed.sim_.RunUntil(40.0);
  // The first round after expiry dropped the ad and did not re-arm.
  EXPECT_EQ(bed.gossips_[0]->cache().Size(), 0u);
  EXPECT_EQ(bed.sim_.PendingEvents(), 0u);
  EXPECT_EQ(bed.RoundsOf(0, 1.0), SeriesTicks(phase, 1.0, 21.0));

  ASSERT_TRUE(bed.gossips_[0]->Issue(PetrolAd(), 1000.0, 20.0).ok());
  EXPECT_EQ(bed.sim_.PendingEvents(), 1u);
  bed.sim_.RunUntil(80.0);
  EXPECT_EQ(bed.sim_.PendingEvents(), 0u);
  EXPECT_EQ(bed.RoundsOf(0, 40.0), SeriesTicks(phase, 40.0, 60.0));
}

TEST(GossipRoundsTest, CrashLeavesNoStaleRoundAndRejoinStaysOnTheSeries) {
  RoundBed bed;
  bed.Start({{0.0, 0.0}});
  const double phase = RoundBed::PhaseOf(0);
  ASSERT_TRUE(bed.gossips_[0]->Issue(PetrolAd(), 1000.0, 800.0).ok());
  bed.sim_.RunUntil(17.0);
  ASSERT_EQ(bed.sim_.PendingEvents(), 1u);

  ASSERT_TRUE(bed.medium_.SetOnline(0, false).ok());
  bed.gossips_[0]->OnCrash();
  EXPECT_EQ(bed.sim_.PendingEvents(), 0u);
  bed.sim_.RunUntil(30.0);
  ASSERT_TRUE(bed.medium_.SetOnline(0, true).ok());
  bed.gossips_[0]->OnRejoin();
  EXPECT_EQ(bed.sim_.PendingEvents(), 0u);
  const uint64_t executed = bed.sim_.ExecutedEvents();
  bed.sim_.RunUntil(50.0);
  EXPECT_EQ(bed.sim_.ExecutedEvents(), executed);

  // The next ad arms the round on the series Start() phased.
  ASSERT_TRUE(bed.gossips_[0]->Issue(PetrolAd(), 1000.0, 800.0).ok());
  EXPECT_EQ(bed.sim_.PendingEvents(), 1u);
  bed.sim_.RunUntil(90.0);
  EXPECT_EQ(bed.RoundsOf(0, 50.0), SeriesTicks(phase, 50.0, 90.0));
}

}  // namespace
}  // namespace madnet::core
