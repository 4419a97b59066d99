// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/resource_exchange.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mobility/constant_velocity.h"
#include "net/medium.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "stats/delivery.h"

namespace madnet::core {
namespace {

using mobility::ConstantVelocity;
using mobility::MobilityModel;
using mobility::Stationary;
using net::Medium;
using net::NodeId;
using sim::Simulator;

AdContent PetrolAd() { return {"petrol", {"discount"}, "cheap fuel"}; }

class ExchangeTestBed {
 public:
  ExchangeTestBed() {
    Medium::Options medium_options;
    medium_options.max_speed_mps = 50.0;
    medium_ = std::make_unique<Medium>(medium_options, &sim_, Rng(11));
  }

  NodeId AddNode(std::unique_ptr<MobilityModel> mobility) {
    const NodeId id = static_cast<NodeId>(mobilities_.size());
    mobilities_.push_back(std::move(mobility));
    EXPECT_TRUE(medium_->AddNode(id, mobilities_.back().get()).ok());
    return id;
  }

  void Start(const ResourceExchange::Options& options = {}) {
    for (NodeId id = 0; id < mobilities_.size(); ++id) {
      ProtocolContext context;
      context.simulator = &sim_;
      context.medium = medium_.get();
      context.self = id;
      context.delivery_log = &log_;
      context.rng = Rng(7000 + id);
      peers_.push_back(std::make_unique<ResourceExchange>(
          std::move(context), options));
      peers_.back()->Start();
    }
  }

  Simulator sim_;
  std::unique_ptr<Medium> medium_;
  stats::DeliveryLog log_;
  std::vector<std::unique_ptr<MobilityModel>> mobilities_;
  std::vector<std::unique_ptr<ResourceExchange>> peers_;
};

TEST(RelevanceTest, LinearDecayInAgeAndDistance) {
  Advertisement ad;
  ad.issue_time = 0.0;
  ad.issue_location = {0.0, 0.0};
  ad.radius_m = 1000.0;
  ad.duration_s = 800.0;
  ResourceExchange::Options options;  // Weights 0.5 / 0.5.

  // Fresh and at the issue location: fully relevant.
  EXPECT_DOUBLE_EQ(
      ResourceExchange::Relevance(ad, {0.0, 0.0}, 0.0, options), 1.0);
  // Half-life and half-radius: 1 - 0.25 - 0.25 = 0.5.
  EXPECT_DOUBLE_EQ(
      ResourceExchange::Relevance(ad, {500.0, 0.0}, 400.0, options), 0.5);
  // Fully aged and at the boundary: zero.
  EXPECT_DOUBLE_EQ(
      ResourceExchange::Relevance(ad, {1000.0, 0.0}, 800.0, options), 0.0);
  // Way outside clamps at zero.
  EXPECT_DOUBLE_EQ(
      ResourceExchange::Relevance(ad, {5000.0, 0.0}, 0.0, options), 0.0);
}

TEST(RelevanceTest, WeightsShiftTheBalance) {
  Advertisement ad;
  ad.issue_time = 0.0;
  ad.issue_location = {0.0, 0.0};
  ad.radius_m = 1000.0;
  ad.duration_s = 800.0;
  ResourceExchange::Options age_only;
  age_only.age_weight = 1.0;
  age_only.distance_weight = 0.0;
  // Distance does not matter with a zero distance weight.
  EXPECT_DOUBLE_EQ(
      ResourceExchange::Relevance(ad, {900.0, 0.0}, 400.0, age_only), 0.5);
}

TEST(ExchangeTest, MutualExchangeOnEncounter) {
  ExchangeTestBed bed;
  bed.AddNode(std::make_unique<Stationary>(Vec2{0.0, 0.0}));
  bed.AddNode(std::make_unique<Stationary>(Vec2{100.0, 0.0}));
  bed.Start();
  auto a = bed.peers_[0]->Issue(PetrolAd(), 1000.0, 800.0);
  auto b = bed.peers_[1]->Issue(
      {"grocery", {"fruit"}, "mango sale"}, 1000.0, 800.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bed.sim_.RunUntil(10.0);
  // Each peer holds both resources after the first encounter.
  EXPECT_TRUE(bed.peers_[0]->Holds(b->Key()));
  EXPECT_TRUE(bed.peers_[1]->Holds(a->Key()));
  EXPECT_GE(bed.log_.FirstReceipt(a->Key(), 1), 0.0);
  EXPECT_GE(bed.log_.FirstReceipt(b->Key(), 0), 0.0);
}

TEST(ExchangeTest, BeaconsFireOnPhasePlusIntervalsAcrossCrashAndRejoin) {
  ExchangeTestBed bed;
  obs::FlightRecorder recorder;
  obs::Trace trace{obs::TraceOptions{}};
  trace.SetFlightRecorder(&recorder);
  bed.medium_->SetTrace(&trace);
  bed.AddNode(std::make_unique<Stationary>(Vec2{0.0, 0.0}));
  ResourceExchange::Options options;
  bed.Start(options);
  // The phase is the first draw of the node's stream.
  Rng rng(7000);
  const double phase = rng.Uniform(0.0, options.beacon_interval_s);

  bed.sim_.RunUntil(20.0);
  ASSERT_TRUE(bed.medium_->SetOnline(0, false).ok());
  bed.peers_[0]->OnCrash();
  bed.sim_.RunUntil(31.0);
  ASSERT_TRUE(bed.medium_->SetOnline(0, true).ok());
  bed.peers_[0]->OnRejoin();
  bed.sim_.RunUntil(60.0);
  EXPECT_EQ(bed.sim_.PendingEvents(), 1u);  // Only the next beacon.

  // Each tick is the previous one plus the interval, by the same double
  // addition the re-arming performs. Ticks keep running while the node is
  // down; only the frames of those ticks stay off the air.
  std::vector<double> on_air;
  uint64_t ticks = 0;
  for (double t = phase; t <= 60.0; t += options.beacon_interval_s) {
    ++ticks;
    if (t <= 20.0 || t > 31.0) on_air.push_back(t);
  }
  std::vector<double> sent;
  for (const obs::FlightRecord& record : recorder.Snapshot()) {
    if (record.category == obs::kTraceTx) sent.push_back(record.t);
  }
  EXPECT_EQ(sent, on_air);
  EXPECT_EQ(bed.peers_[0]->beacons_sent(), ticks);
}

TEST(ExchangeTest, NoReExchangeWithinTimeout) {
  ExchangeTestBed bed;
  bed.AddNode(std::make_unique<Stationary>(Vec2{0.0, 0.0}));
  bed.AddNode(std::make_unique<Stationary>(Vec2{100.0, 0.0}));
  ResourceExchange::Options options;
  options.encounter_timeout_s = 1e9;  // Never forget a neighbour.
  bed.Start(options);
  ASSERT_TRUE(bed.peers_[0]->Issue(PetrolAd(), 1000.0, 800.0).ok());
  bed.sim_.RunUntil(200.0);
  // Exactly one data frame each (first encounter), despite 100 beacons.
  EXPECT_EQ(bed.peers_[0]->exchanges_sent(), 1u);
  EXPECT_EQ(bed.peers_[1]->exchanges_sent(), 1u);
  EXPECT_GT(bed.peers_[0]->beacons_sent(), 50u);
}

TEST(ExchangeTest, ReEncounterAfterTimeout) {
  ExchangeTestBed bed;
  bed.AddNode(std::make_unique<Stationary>(Vec2{0.0, 0.0}));
  bed.AddNode(std::make_unique<Stationary>(Vec2{100.0, 0.0}));
  ResourceExchange::Options options;
  options.encounter_timeout_s = 20.0;
  bed.Start(options);
  ASSERT_TRUE(bed.peers_[0]->Issue(PetrolAd(), 1000.0, 800.0).ok());
  bed.sim_.RunUntil(200.0);
  // Stationary neighbours re-trigger... they never stop hearing beacons,
  // so the encounter clock keeps refreshing and no re-exchange happens.
  EXPECT_EQ(bed.peers_[0]->exchanges_sent(), 1u);
}

TEST(ExchangeTest, MemoryBoundEnforcedByRelevance) {
  ExchangeTestBed bed;
  const NodeId listener =
      bed.AddNode(std::make_unique<Stationary>(Vec2{0.0, 0.0}));
  // Issuers near the listener; ads differ in radius => differ in relevance
  // at the listener (distance fraction d/R smaller for bigger R).
  std::vector<NodeId> issuers;
  for (int i = 0; i < 5; ++i) {
    issuers.push_back(
        bed.AddNode(std::make_unique<Stationary>(Vec2{50.0, 10.0 * i})));
  }
  ResourceExchange::Options options;
  options.memory_capacity = 3;
  bed.Start(options);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 5; ++i) {
    auto issued =
        bed.peers_[issuers[i]]->Issue(PetrolAd(), 100.0 + 300.0 * i, 800.0);
    ASSERT_TRUE(issued.ok());
    keys.push_back(issued->Key());
  }
  bed.sim_.RunUntil(30.0);
  EXPECT_LE(bed.peers_[listener]->MemorySize(), 3u);
  // The largest-radius (most relevant at the listener) resources survive.
  EXPECT_TRUE(bed.peers_[listener]->Holds(keys[4]));
  EXPECT_TRUE(bed.peers_[listener]->Holds(keys[3]));
  EXPECT_FALSE(bed.peers_[listener]->Holds(keys[0]));
}

TEST(ExchangeTest, ExpiredResourcesPruned) {
  ExchangeTestBed bed;
  bed.AddNode(std::make_unique<Stationary>(Vec2{0.0, 0.0}));
  bed.Start();
  auto issued = bed.peers_[0]->Issue(PetrolAd(), 1000.0, 20.0);
  ASSERT_TRUE(issued.ok());
  bed.sim_.RunUntil(5.0);
  EXPECT_TRUE(bed.peers_[0]->Holds(issued->Key()));
  bed.sim_.RunUntil(30.0);
  EXPECT_FALSE(bed.peers_[0]->Holds(issued->Key()));
}

TEST(ExchangeTest, StoreAndCarryAcrossPartition) {
  // A courier drives from an isolated issuer to an isolated listener.
  ExchangeTestBed bed;
  const NodeId issuer =
      bed.AddNode(std::make_unique<Stationary>(Vec2{0.0, 0.0}));
  const NodeId listener =
      bed.AddNode(std::make_unique<Stationary>(Vec2{1200.0, 0.0}));
  const NodeId courier = bed.AddNode(std::make_unique<ConstantVelocity>(
      Rect{{-2000.0, -2000.0}, {4000.0, 2000.0}}, Vec2{0.0, 100.0},
      Vec2{20.0, 0.0}));
  bed.Start();
  auto issued = bed.peers_[issuer]->Issue(PetrolAd(), 2000.0, 800.0);
  ASSERT_TRUE(issued.ok());
  // Courier is in range of the issuer at t=0 and reaches the listener
  // (1200 m away) at t=60; allow beacon cycles on both ends.
  bed.sim_.RunUntil(120.0);
  EXPECT_TRUE(bed.peers_[listener]->Holds(issued->Key()));
  EXPECT_GE(bed.log_.FirstReceipt(issued->Key(), courier), 0.0);
  EXPECT_GE(bed.log_.FirstReceipt(issued->Key(), listener), 0.0);
}

TEST(ExchangeTest, BatchLimitSendsOnlyMostRelevant) {
  // A peer holding more resources than fit in one exchange frame sends
  // only the most relevant ones.
  ExchangeTestBed bed;
  const NodeId holder = bed.AddNode(
      std::make_unique<Stationary>(Vec2{0.0, 0.0}));
  ResourceExchange::Options options;
  options.memory_capacity = 10;
  options.exchange_batch = 2;
  bed.Start(options);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 5; ++i) {
    // Staggered issue times: later ads are younger, hence more relevant
    // at the encounter (all are issued at the holder's own position, so
    // only the age term differentiates them).
    auto issued = bed.peers_[holder]->Issue(PetrolAd(), 1000.0, 200.0);
    ASSERT_TRUE(issued.ok());
    keys.push_back(issued->Key());
    bed.sim_.RunUntil(10.0 * (i + 1));
  }
  // A listener appears in range; after the first encounter it holds only
  // the two most relevant resources.
  // (Add the node after issuing so the first beacon happens now.)
  const NodeId listener = bed.mobilities_.size();
  bed.mobilities_.push_back(
      std::make_unique<Stationary>(Vec2{50.0, 0.0}));
  ASSERT_TRUE(
      bed.medium_->AddNode(listener, bed.mobilities_.back().get()).ok());
  ProtocolContext context;
  context.simulator = &bed.sim_;
  context.medium = bed.medium_.get();
  context.self = listener;
  context.delivery_log = &bed.log_;
  context.rng = Rng(99);
  auto listener_peer =
      std::make_unique<ResourceExchange>(std::move(context), options);
  listener_peer->Start();
  bed.sim_.RunUntil(60.0);  // Clock is already at ~50 from the issues.
  EXPECT_EQ(listener_peer->MemorySize(), 2u);
  EXPECT_TRUE(listener_peer->Holds(keys[4]));
  EXPECT_TRUE(listener_peer->Holds(keys[3]));
  EXPECT_FALSE(listener_peer->Holds(keys[0]));
}

TEST(ExchangeTest, IgnoresGossipFrames) {
  ExchangeTestBed bed;
  bed.AddNode(std::make_unique<Stationary>(Vec2{0.0, 0.0}));
  bed.AddNode(std::make_unique<Stationary>(Vec2{50.0, 0.0}));
  bed.Start();
  // Hand-deliver a gossip frame; the exchange peer must ignore it.
  Advertisement ad;
  ad.id = {9, 9};
  ad.issue_time = 0.0;
  ad.radius_m = 1000.0;
  ad.duration_s = 800.0;
  ASSERT_TRUE(bed.medium_->Broadcast(0, MakeGossipPacket(ad)).ok());
  bed.sim_.RunUntil(1.0);
  EXPECT_FALSE(bed.peers_[1]->Holds(ad.id.Key()));
}

}  // namespace
}  // namespace madnet::core
