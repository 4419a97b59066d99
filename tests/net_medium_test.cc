// Copyright (c) 2026 madnet authors. All rights reserved.

#include "net/medium.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mobility/constant_velocity.h"
#include "mobility/random_waypoint.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace madnet::net {
namespace {

using mobility::ConstantVelocity;
using mobility::RandomWaypoint;
using mobility::Stationary;
using sim::Simulator;

struct TestPayload : Payload {
  explicit TestPayload(int v) : value(v) {}
  int value;
};

Packet MakePacket(int value, uint32_t size = 100) {
  Packet p;
  p.payload = std::make_shared<TestPayload>(value);
  p.size_bytes = size;
  return p;
}

class MediumTest : public ::testing::Test {
 protected:
  /// Builds a medium with stationary nodes at the given positions.
  void Build(const std::vector<Vec2>& positions,
             Medium::Options options = {}) {
    options_ = options;
    medium_ = std::make_unique<Medium>(options, &sim_, Rng(7));
    received_.assign(positions.size(), {});
    for (size_t i = 0; i < positions.size(); ++i) {
      mobilities_.push_back(std::make_unique<Stationary>(positions[i]));
      ASSERT_TRUE(
          medium_->AddNode(static_cast<NodeId>(i), mobilities_.back().get())
              .ok());
      ASSERT_TRUE(medium_
                      ->SetReceiver(static_cast<NodeId>(i),
                                    [this, i](const Packet& p, NodeId from,
                                              NodeId /*to*/) {
                                      const auto* tp =
                                          dynamic_cast<const TestPayload*>(
                                              p.payload.get());
                                      received_[i].push_back(
                                          {from, tp ? tp->value : -1});
                                    })
                      .ok());
    }
  }

  Simulator sim_;
  Medium::Options options_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobilities_;
  std::vector<std::vector<std::pair<NodeId, int>>> received_;
};

TEST_F(MediumTest, BroadcastReachesOnlyNodesInRange) {
  // Node 1 at 200 m (in range), node 2 at 300 m (out of range).
  Build({{0.0, 0.0}, {200.0, 0.0}, {300.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(42)).ok());
  sim_.Run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0], (std::pair<NodeId, int>{0, 42}));
  EXPECT_TRUE(received_[2].empty());
  EXPECT_TRUE(received_[0].empty());  // No self-delivery.
}

TEST_F(MediumTest, RangeBoundaryInclusive) {
  Build({{0.0, 0.0}, {250.0, 0.0}, {250.0001, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_TRUE(received_[2].empty());
}

TEST_F(MediumTest, CountsOneMessagePerBroadcast) {
  Build({{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1, 64)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(2, 36)).ok());
  sim_.Run();
  EXPECT_EQ(medium_->stats().messages_sent, 2u);
  EXPECT_EQ(medium_->stats().bytes_sent, 100u);
  EXPECT_EQ(medium_->stats().deliveries, 6u);  // 3 receivers each.
}

TEST_F(MediumTest, DeliveryLatencyWithinBounds) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  double sent_at = -1.0;
  double received_at = -1.0;
  ASSERT_TRUE(medium_
                  ->SetReceiver(1,
                                [&](const Packet&, NodeId, NodeId) {
                                  received_at = sim_.Now();
                                })
                  .ok());
  sim_.Schedule(5.0, [&] {
    sent_at = sim_.Now();
    (void)medium_->Broadcast(0, MakePacket(1));
  });
  sim_.Run();
  ASSERT_GE(received_at, 0.0);
  EXPECT_GE(received_at - sent_at, options_.min_latency_s);
  EXPECT_LE(received_at - sent_at, options_.max_latency_s);
}

TEST_F(MediumTest, OfflineSenderRejected) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  ASSERT_TRUE(medium_->SetOnline(0, false).ok());
  EXPECT_FALSE(medium_->IsOnline(0));
  Status status = medium_->Broadcast(0, MakePacket(1));
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(medium_->stats().messages_sent, 0u);
}

TEST_F(MediumTest, OfflineReceiverSkipped) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  ASSERT_TRUE(medium_->SetOnline(1, false).ok());
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Run();
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(MediumTest, ReceiverGoingOfflineInFlightDropsFrame) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  // Take node 1 offline before the delivery event (latency >= 0.5 ms).
  sim_.Schedule(0.0, [&] { (void)medium_->SetOnline(1, false); });
  sim_.Run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(medium_->stats().dropped_offline, 1u);
}

TEST_F(MediumTest, UnknownNodesRejected) {
  Build({{0.0, 0.0}});
  EXPECT_EQ(medium_->Broadcast(99, MakePacket(1)).code(),
            Status::Code::kNotFound);
  EXPECT_EQ(medium_->SetOnline(99, true).code(), Status::Code::kNotFound);
  EXPECT_EQ(medium_->SetReceiver(99, nullptr).code(),
            Status::Code::kNotFound);
  EXPECT_FALSE(medium_->IsOnline(99));
}

TEST_F(MediumTest, DuplicateNodeIdRejected) {
  Build({{0.0, 0.0}});
  Stationary extra({1.0, 1.0});
  EXPECT_EQ(medium_->AddNode(0, &extra).code(),
            Status::Code::kAlreadyExists);
}

TEST_F(MediumTest, NullMobilityRejected) {
  Build({{0.0, 0.0}});
  EXPECT_EQ(medium_->AddNode(5, nullptr).code(),
            Status::Code::kInvalidArgument);
}

TEST_F(MediumTest, LossProbabilityDropsFraction) {
  Medium::Options options;
  options.loss_probability = 0.3;
  Build({{0.0, 0.0}, {10.0, 0.0}}, options);
  const int sends = 5000;
  for (int i = 0; i < sends; ++i) {
    ASSERT_TRUE(medium_->Broadcast(0, MakePacket(i)).ok());
  }
  sim_.Run();
  const double delivered = static_cast<double>(received_[1].size());
  EXPECT_NEAR(delivered / sends, 0.7, 0.03);
  EXPECT_EQ(medium_->stats().dropped_loss + received_[1].size(),
            static_cast<uint64_t>(sends));
}

TEST_F(MediumTest, CollisionsDropOverlappingFrames) {
  Medium::Options options;
  options.enable_collisions = true;
  options.collision_window_s = 1e-3;
  options.min_latency_s = 1e-4;
  options.max_latency_s = 2e-4;
  // Nodes 0 and 1 both in range of node 2; simultaneous sends collide.
  Build({{0.0, 0.0}, {100.0, 0.0}, {50.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(2)).ok());
  sim_.Run();
  // Node 2 hears one frame; the second (different sender, within the
  // window) is dropped.
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(medium_->stats().dropped_collision, 1u);
}

TEST_F(MediumTest, NoCollisionAcrossWindow) {
  Medium::Options options;
  options.enable_collisions = true;
  options.collision_window_s = 1e-3;
  Build({{0.0, 0.0}, {100.0, 0.0}, {50.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Schedule(0.5, [&] { (void)medium_->Broadcast(1, MakePacket(2)); });
  sim_.Run();
  EXPECT_EQ(received_[2].size(), 2u);
  EXPECT_EQ(medium_->stats().dropped_collision, 0u);
}

TEST_F(MediumTest, NeighborsOfExactFilter) {
  Build({{0.0, 0.0}, {100.0, 0.0}, {200.0, 0.0}, {400.0, 0.0}});
  auto neighbors = medium_->NeighborsOf({0.0, 0.0}, 250.0);
  std::sort(neighbors.begin(), neighbors.end());
  EXPECT_EQ(neighbors, (std::vector<NodeId>{0, 1, 2}));
}

TEST_F(MediumTest, RepeatQueryAtSameInstantSeesSetOnline) {
  // The same-instant neighbour memo is keyed on the mutation epoch, not
  // just the clock: a repeat query after a SetOnline toggle, with time
  // standing still, must reflect the toggle.
  Build({{0.0, 0.0}, {100.0, 0.0}, {200.0, 0.0}});
  auto neighbors = [&] {
    auto ids = medium_->NeighborsOf({0.0, 0.0}, 250.0);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(neighbors(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(neighbors(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(medium_->stats().batch_memo_hits, 1u);  // The repeat hit.
  ASSERT_TRUE(medium_->SetOnline(1, false).ok());
  EXPECT_EQ(neighbors(), (std::vector<NodeId>{0, 2}));
  ASSERT_TRUE(medium_->SetOnline(1, true).ok());
  EXPECT_EQ(neighbors(), (std::vector<NodeId>{0, 1, 2}));
}

TEST_F(MediumTest, SentByTracksPerNodeTransmissions) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(3)).ok());
  sim_.Run();
  EXPECT_EQ(medium_->SentBy(0), 2u);
  EXPECT_EQ(medium_->SentBy(1), 1u);
  EXPECT_EQ(medium_->SentBy(99), 0u);  // Unknown id.
  // Offline rejections do not count.
  ASSERT_TRUE(medium_->SetOnline(0, false).ok());
  EXPECT_FALSE(medium_->Broadcast(0, MakePacket(4)).ok());
  EXPECT_EQ(medium_->SentBy(0), 2u);
}

TEST_F(MediumTest, PerNodeByteAndRxCounters) {
  Build({{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1, 100)).ok());
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2, 50)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(3, 30)).ok());
  sim_.Run();
  EXPECT_EQ(medium_->SentBytesBy(0), 150u);
  EXPECT_EQ(medium_->SentBytesBy(1), 30u);
  // Node 2 received all three frames; node 0 only node 1's frame.
  EXPECT_EQ(medium_->ReceivedBy(2), 3u);
  EXPECT_EQ(medium_->ReceivedBytesBy(2), 180u);
  EXPECT_EQ(medium_->ReceivedBy(0), 1u);
  EXPECT_EQ(medium_->ReceivedBytesBy(0), 30u);
  EXPECT_EQ(medium_->ReceivedBy(99), 0u);
}

TEST_F(MediumTest, BroadcastObserverSeesEveryTransmission) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  std::vector<std::pair<NodeId, Vec2>> observed;
  medium_->SetBroadcastObserver(
      [&](NodeId from, const Packet&, const Vec2& origin) {
        observed.emplace_back(from, origin);
      });
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(2)).ok());
  sim_.Run();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0].first, 0u);
  EXPECT_EQ(observed[0].second, (Vec2{0.0, 0.0}));
  EXPECT_EQ(observed[1].first, 1u);
  EXPECT_EQ(observed[1].second, (Vec2{10.0, 0.0}));
  // Clearing the observer stops the callbacks.
  medium_->SetBroadcastObserver(nullptr);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(3)).ok());
  sim_.Run();
  EXPECT_EQ(observed.size(), 2u);
}

// ------------------------------------------------ loss/collision semantics
//
// Regression pins for the delivery-time loss model and the garbled-window
// collision bookkeeping. Latency is pinned (min == max) so frame arrival
// order and spacing are exact.

TEST_F(MediumTest, LostFrameStillOccupiesTheCollisionWindow) {
  // Loss is decided at DELIVERY time, and a frame destroyed by loss still
  // put RF energy on the air: a second frame from a different sender
  // arriving inside the window is a collision, not another loss.
  Medium::Options options;
  options.loss_probability = 1.0;  // Every surviving frame is lost.
  options.enable_collisions = true;
  options.collision_window_s = 1e-3;
  options.min_latency_s = 1e-4;
  options.max_latency_s = 1e-4;
  // Senders 0 and 1 are out of range of each other (300 m); both reach
  // the receiver at 150 m, so every counter below is exact.
  Build({{0.0, 0.0}, {300.0, 0.0}, {150.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Schedule(2e-4, [&] { (void)medium_->Broadcast(1, MakePacket(2)); });
  sim_.Run();
  EXPECT_TRUE(received_[2].empty());
  EXPECT_EQ(medium_->stats().dropped_loss, 1u);       // First frame only.
  EXPECT_EQ(medium_->stats().dropped_collision, 1u);  // Second frame.
}

TEST_F(MediumTest, OfflineReceiverIsNotChargedAsLoss) {
  // A receiver that is offline when the frame arrives drops it as
  // dropped_offline — never as dropped_loss, even at loss probability 1.
  Medium::Options options;
  options.loss_probability = 1.0;
  Build({{0.0, 0.0}, {100.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Schedule(0.0, [&] { (void)medium_->SetOnline(1, false); });
  sim_.Run();
  EXPECT_EQ(medium_->stats().dropped_offline, 1u);
  EXPECT_EQ(medium_->stats().dropped_loss, 0u);
}

TEST_F(MediumTest, SameSenderBackToBackFramesDoNotCollide) {
  // Two frames from ONE sender inside the window are serialized by that
  // sender's MAC, not colliding transmissions: both must deliver.
  Medium::Options options;
  options.enable_collisions = true;
  options.collision_window_s = 1e-3;
  options.min_latency_s = 1e-4;
  options.max_latency_s = 1e-4;
  Build({{0.0, 0.0}, {100.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Schedule(2e-4, [&] { (void)medium_->Broadcast(0, MakePacket(2)); });
  sim_.Run();
  EXPECT_EQ(received_[1].size(), 2u);
  EXPECT_EQ(medium_->stats().dropped_collision, 0u);
}

TEST_F(MediumTest, GarbledWindowDropsTheOriginalSendersNextFrame) {
  // Once a collision garbles the window, EVERY frame inside it is lost —
  // including a third frame from the sender that delivered first. (The old
  // bookkeeping overwrote last_rx_from on the dropped frame, letting the
  // original sender "sail through" its own garbled window.)
  Medium::Options options;
  options.enable_collisions = true;
  options.collision_window_s = 1e-3;
  options.min_latency_s = 1e-4;
  options.max_latency_s = 1e-4;
  Build({{0.0, 0.0}, {300.0, 0.0}, {150.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());  // Delivers.
  sim_.Schedule(2e-4, [&] { (void)medium_->Broadcast(1, MakePacket(2)); });
  sim_.Schedule(4e-4, [&] { (void)medium_->Broadcast(0, MakePacket(3)); });
  sim_.Run();
  ASSERT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[2][0], (std::pair<NodeId, int>{0, 1}));
  EXPECT_EQ(medium_->stats().dropped_collision, 2u);
}

TEST_F(MediumTest, ExtraLossAppliesAtDeliveryTime) {
  // SetExtraLoss between transmit and delivery must affect the in-flight
  // frame: the draw happens when the frame arrives, not when it is sent.
  Build({{0.0, 0.0}, {100.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Schedule(0.0, [&] { medium_->SetExtraLoss(1.0); });
  sim_.Run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(medium_->stats().dropped_loss, 1u);
  // Clearing the episode restores delivery.
  medium_->SetExtraLoss(0.0);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2)).ok());
  sim_.Run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0], (std::pair<NodeId, int>{0, 2}));
}

TEST_F(MediumTest, JamZoneSilencesOnlyReceiversInside) {
  Build({{0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}});
  medium_->SetJamZones({Rect{{50.0, -50.0}, {150.0, 50.0}}});  // Node 1.
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Run();
  EXPECT_TRUE(received_[1].empty());
  ASSERT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(medium_->stats().dropped_jammed, 1u);
  // Lifting the jam restores the inside receiver.
  medium_->SetJamZones({});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2)).ok());
  sim_.Run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(medium_->stats().dropped_jammed, 1u);
}

TEST(MediumMovingTest, StaleIndexStillFindsMovingNodes) {
  // Nodes move quickly; the spatial index refreshes only every second, so
  // the slack logic must keep delivery exact. Compare against brute force
  // on live positions at many instants.
  Simulator sim;
  Medium::Options options;
  options.range_m = 250.0;
  options.max_speed_mps = 30.0;
  options.reindex_interval_s = 1.0;
  Medium medium(options, &sim, Rng(3));

  RandomWaypoint::Options waypoint;
  waypoint.area = Rect{{0.0, 0.0}, {1500.0, 1500.0}};
  waypoint.min_speed_mps = 20.0;
  waypoint.max_speed_mps = 30.0;
  waypoint.max_pause_s = 0.0;

  std::vector<std::unique_ptr<RandomWaypoint>> models;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    models.push_back(
        std::make_unique<RandomWaypoint>(waypoint, Rng(100 + i)));
    ASSERT_TRUE(medium.AddNode(static_cast<NodeId>(i), models[i].get()).ok());
  }

  int checks = 0;
  for (double t = 0.1; t < 30.0; t += 0.37) {
    sim.ScheduleAt(t, [&, t] {
      for (NodeId center : {NodeId{0}, NodeId{7}, NodeId{23}}) {
        const Vec2 origin = medium.PositionOf(center);
        auto got = medium.NeighborsOf(origin, options.range_m);
        std::vector<NodeId> expected;
        for (int i = 0; i < n; ++i) {
          if (DistanceSquared(models[i]->PositionAt(t), origin) <=
              options.range_m * options.range_m) {
            expected.push_back(static_cast<NodeId>(i));
          }
        }
        std::sort(got.begin(), got.end());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(got, expected) << "t=" << t;
        ++checks;
      }
    });
  }
  sim.Run();
  EXPECT_GT(checks, 200);
}

TEST(MediumVelocityTest, VelocityOfMatchesTheModelBitForBit) {
  // VelocityOf answers from the mirrored leg strictly inside it and asks
  // the model elsewhere; both must equal the model's VelocityAt exactly,
  // at interior instants, at leg boundaries and during pauses.
  Simulator sim;
  Medium medium(Medium::Options{}, &sim, Rng(5));
  RandomWaypoint::Options waypoint;
  waypoint.area = Rect{{0.0, 0.0}, {1000.0, 1000.0}};
  waypoint.max_pause_s = 4.0;
  std::vector<std::unique_ptr<RandomWaypoint>> models;
  std::vector<std::unique_ptr<RandomWaypoint>> twins;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    models.push_back(std::make_unique<RandomWaypoint>(waypoint, Rng(50 + i)));
    twins.push_back(std::make_unique<RandomWaypoint>(waypoint, Rng(50 + i)));
    ASSERT_TRUE(medium.AddNode(static_cast<NodeId>(i), models[i].get()).ok());
  }
  std::vector<double> times;
  for (double t = 0.05; t < 60.0; t += 0.29) times.push_back(t);
  // Node 0's leg boundaries, from a third copy: extending a twin's
  // trajectory ahead of time would change what VelocityAt reports at the
  // end of its last generated leg.
  RandomWaypoint probe(waypoint, Rng(50));
  probe.EnsureHorizon(60.0);
  for (const mobility::Leg& leg : probe.legs()) times.push_back(leg.end);
  std::sort(times.begin(), times.end());
  int checks = 0;
  for (double t : times) {
    sim.ScheduleAt(t, [&, t] {
      for (int i = 0; i < n; ++i) {
        const NodeId id = static_cast<NodeId>(i);
        (void)medium.PositionOf(id);  // Refreshes the leg mirror.
        const Vec2 got = medium.VelocityOf(id);
        // The twin sees the calls the medium used to make.
        (void)twins[i]->PositionAt(t);
        const Vec2 expected = twins[i]->VelocityAt(t);
        EXPECT_EQ(got.x, expected.x) << "node " << i << " t=" << t;
        EXPECT_EQ(got.y, expected.y) << "node " << i << " t=" << t;
        ++checks;
      }
    });
  }
  sim.Run();
  EXPECT_GT(checks, 1500);
}

}  // namespace
}  // namespace madnet::net
