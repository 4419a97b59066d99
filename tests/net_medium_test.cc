// Copyright (c) 2026 madnet authors. All rights reserved.

#include "net/medium.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
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

// A receiver registered by pointer.
struct CountingReceiver : Receiver {
  void OnFrame(const Packet&, NodeId from, NodeId to) override {
    frames.push_back({from, to});
  }
  std::vector<std::pair<NodeId, NodeId>> frames;
};

TEST_F(MediumTest, PointerAndFunctionReceiversBothGetFrames) {
  Build({{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}});
  CountingReceiver receiver;
  ASSERT_TRUE(medium_->SetReceiver(1, &receiver).ok());
  // Node 2 keeps its function receiver from Build; node 1's adapter is gone.
  EXPECT_EQ(medium_->handler_adapter_count(), 2u);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(5)).ok());
  sim_.Run();
  EXPECT_EQ(receiver.frames,
            (std::vector<std::pair<NodeId, NodeId>>{{0, 1}}));
  EXPECT_TRUE(received_[1].empty());
  ASSERT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[2][0], (std::pair<NodeId, int>{0, 5}));
}

TEST_F(MediumTest, ReRegisteringAFunctionReceiverKeepsOneAdapter) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  EXPECT_EQ(medium_->handler_adapter_count(), 2u);
  int last = -1;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(medium_
                    ->SetReceiver(1, [&last, i](const Packet&, NodeId,
                                                NodeId) { last = i; })
                    .ok());
  }
  EXPECT_EQ(medium_->handler_adapter_count(), 2u);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Run();
  EXPECT_EQ(last, 999);  // The latest registration receives.
}

TEST_F(MediumTest, EmptyHandlerDetachesTheNode) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  ASSERT_TRUE(medium_->SetReceiver(1, Medium::ReceiveHandler{}).ok());
  EXPECT_EQ(medium_->handler_adapter_count(), 1u);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Run();
  EXPECT_TRUE(received_[1].empty());
  // The frame still reached the node's radio: node 1 is node 0's only
  // neighbour.
  EXPECT_EQ(medium_->stats().deliveries, 1u);
}

TEST_F(MediumTest, DuplicateNodeIdRejected) {
  Build({{0.0, 0.0}});
  Stationary extra({1.0, 1.0});
  EXPECT_EQ(medium_->AddNode(0, &extra).code(),
            Status::Code::kAlreadyExists);
}

TEST_F(MediumTest, NonDenseNodeIdRejected) {
  // A node id is its dense index: after ids 0 and 1, only 2 is accepted.
  Build({{0.0, 0.0}, {10.0, 0.0}});
  Stationary extra({1.0, 1.0});
  const Status skipped = medium_->AddNode(3, &extra);
  EXPECT_EQ(skipped.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(skipped.message().find("expected id 2"), std::string::npos)
      << skipped.message();
  EXPECT_EQ(medium_->node_count(), 2u);
  EXPECT_TRUE(medium_->AddNode(2, &extra).ok());
  EXPECT_EQ(medium_->node_count(), 3u);
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

TEST_F(MediumTest, PerLinkLossMatchesTheBinomialOracle) {
  // Stationary nodes, no collisions: every (sender, in-range receiver)
  // pair of a broadcast is one Bernoulli(loss) trial. The drops must lie
  // within 4 sigma of the binomial mean over all trials, and each link's
  // deliveries within 5 sigma of its own mean (556 links).
  constexpr int kNodes = 40;
  constexpr int kRounds = 250;
  Rng place(41);
  std::vector<Vec2> positions(kNodes);
  for (Vec2& position : positions) {
    position = place.UniformInRect(Rect{{0.0, 0.0}, {600.0, 600.0}});
  }
  for (double loss : {0.1, 0.3, 0.7}) {
    SCOPED_TRACE(loss);
    Medium::Options options;
    options.loss_probability = loss;
    mobilities_.clear();
    Build(positions, options);
    // links[from][to]: in range, so one trial per broadcast of `from`.
    std::vector<std::vector<bool>> links(kNodes, std::vector<bool>(kNodes));
    uint64_t trials = 0;
    for (int from = 0; from < kNodes; ++from) {
      for (int to = 0; to < kNodes; ++to) {
        links[from][to] =
            to != from && DistanceSquared(positions[from], positions[to]) <=
                              options.range_m * options.range_m;
        if (links[from][to]) trials += kRounds;
      }
    }
    for (int round = 0; round < kRounds; ++round) {
      for (int from = 0; from < kNodes; ++from) {
        ASSERT_TRUE(
            medium_->Broadcast(static_cast<NodeId>(from), MakePacket(round))
                .ok());
      }
    }
    sim_.Run();
    const double mean = loss * static_cast<double>(trials);
    const double sigma =
        std::sqrt(static_cast<double>(trials) * loss * (1.0 - loss));
    const double dropped = static_cast<double>(medium_->stats().dropped_loss);
    EXPECT_NEAR(dropped, mean, 4.0 * sigma) << trials << " trials";
    EXPECT_EQ(medium_->stats().dropped_loss + medium_->stats().deliveries,
              trials);
    std::vector<std::vector<int>> delivered(kNodes, std::vector<int>(kNodes));
    for (int to = 0; to < kNodes; ++to) {
      for (const auto& [from, value] : received_[to]) ++delivered[from][to];
    }
    const double link_mean = (1.0 - loss) * kRounds;
    const double link_sigma = std::sqrt(kRounds * loss * (1.0 - loss));
    int link_count = 0;
    for (int from = 0; from < kNodes; ++from) {
      for (int to = 0; to < kNodes; ++to) {
        if (!links[from][to]) {
          EXPECT_EQ(delivered[from][to], 0);
          continue;
        }
        ++link_count;
        EXPECT_NEAR(delivered[from][to], link_mean, 5.0 * link_sigma)
            << "link " << from << " -> " << to;
      }
    }
    EXPECT_GT(link_count, 500);
  }
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
  // Per-node sends are tallied through the broadcast observer: it reports
  // every accepted broadcast with its sender, and none that is rejected.
  Build({{0.0, 0.0}, {10.0, 0.0}});
  std::vector<uint64_t> sent(2);
  medium_->SetBroadcastObserver(
      [&](NodeId from, const Packet&, const Vec2&) { ++sent[from]; });
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(3)).ok());
  sim_.Run();
  EXPECT_EQ(sent, (std::vector<uint64_t>{2, 1}));
  // Unknown senders and offline senders are rejected and not reported.
  EXPECT_FALSE(medium_->Broadcast(99, MakePacket(4)).ok());
  ASSERT_TRUE(medium_->SetOnline(0, false).ok());
  EXPECT_FALSE(medium_->Broadcast(0, MakePacket(5)).ok());
  sim_.Run();
  EXPECT_EQ(sent, (std::vector<uint64_t>{2, 1}));
  EXPECT_EQ(medium_->stats().messages_sent, 3u);
}

TEST_F(MediumTest, PerNodeByteAndRxCounters) {
  // What a per-node load or energy tally relies on, under both MACs: the
  // broadcast observer reports every frame put on the air with its size,
  // and a handler that counts each frame and then forwards it to the
  // node's own receiver sees exactly the deliveries the medium counts.
  struct Inbox final : Receiver {
    void OnFrame(const Packet&, NodeId, NodeId) override { ++frames; }
    uint64_t frames = 0;
  };
  for (const bool csma : {false, true}) {
    SCOPED_TRACE(csma ? "CSMA" : "ideal");
    Medium::Options options;
    options.csma = csma;
    // Nodes 0-2 hear each other; node 3 is out of everyone's range.
    Build({{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {1000.0, 0.0}}, options);
    std::vector<uint64_t> sent(4), sent_bytes(4), received(4),
        received_bytes(4);
    std::vector<Inbox> inboxes(4);
    medium_->SetBroadcastObserver(
        [&](NodeId from, const Packet& packet, const Vec2&) {
          ++sent[from];
          sent_bytes[from] += packet.size_bytes;
        });
    for (NodeId id = 0; id < 4; ++id) {
      Receiver* own = &inboxes[id];
      ASSERT_TRUE(medium_
                      ->SetReceiver(id,
                                    [&, own](const Packet& packet,
                                             NodeId from, NodeId to) {
                                      ++received[to];
                                      received_bytes[to] += packet.size_bytes;
                                      own->OnFrame(packet, from, to);
                                    })
                      .ok());
    }
    for (int round = 0; round < 20; ++round) {
      ASSERT_TRUE(medium_->Broadcast(0, MakePacket(round, 100)).ok());
      ASSERT_TRUE(medium_->Broadcast(1, MakePacket(round, 30)).ok());
      ASSERT_TRUE(medium_->Broadcast(3, MakePacket(round, 7)).ok());
      sim_.Run();
    }
    // An offline sender's rejected broadcast is not reported.
    ASSERT_TRUE(medium_->SetOnline(3, false).ok());
    EXPECT_FALSE(medium_->Broadcast(3, MakePacket(99)).ok());
    sim_.Run();

    EXPECT_EQ(sent, (std::vector<uint64_t>{20, 20, 0, 20}));
    EXPECT_EQ(sent_bytes, (std::vector<uint64_t>{2000, 600, 0, 140}));
    EXPECT_EQ(medium_->stats().messages_sent, 60u);
    EXPECT_EQ(medium_->stats().bytes_sent, 2740u);
    // Node 2 hears nodes 0 and 1; each of those hears the other.
    EXPECT_EQ(received, (std::vector<uint64_t>{20, 20, 40, 0}));
    EXPECT_EQ(received_bytes, (std::vector<uint64_t>{600, 2000, 2600, 0}));
    EXPECT_EQ(medium_->stats().deliveries, 80u);
    for (NodeId id = 0; id < 4; ++id) {
      EXPECT_EQ(inboxes[id].frames, received[id]) << "node " << id;
    }
  }
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

TEST(MediumOracleTest, IndexSlackCoversANodeClosingHeadOnAtMaxSpeed) {
  // The worst case for the grid's staleness slack: a node moving straight
  // at the query centre at max_speed_mps, queried at the last instant the
  // grid built at t = 0 is still used (reindex_interval_s). It started
  // range + max_speed * staleness - 1e-6 m away, so it is 1e-6 m inside
  // range now (the margin absorbs rounding, as in SortAsSnapshot), and
  // only a slack of the full drift finds it.
  Medium::Options options;
  options.range_m = 250.0;
  options.max_speed_mps = 20.0;
  options.reindex_interval_s = 2.0;
  const double staleness = options.reindex_interval_s;
  const double start =
      options.range_m + options.max_speed_mps * staleness - 1e-6;
  const Vec2 center{1500.0, 1500.0};
  const Rect area{{0.0, 0.0}, {3000.0, 3000.0}};
  for (double angle : {0.0, 0.7, 1.5707963267948966, 2.5, 3.9}) {
    SCOPED_TRACE(angle);
    Simulator sim;
    Medium medium(options, &sim, Rng(13));
    const Vec2 direction{std::cos(angle), std::sin(angle)};
    Stationary sender(center);
    ConstantVelocity closing(area, center + direction * start,
                             direction * -options.max_speed_mps);
    ASSERT_TRUE(medium.AddNode(0, &sender).ok());
    ASSERT_TRUE(medium.AddNode(1, &closing).ok());
    // Builds the grid at t = 0; the node is still out of range.
    EXPECT_EQ(medium.NeighborsOf(center, options.range_m),
              (std::vector<NodeId>{0}));
    sim.RunUntil(staleness);
    ASSERT_EQ(sim.Now(), staleness);
    ASSERT_LT(Distance(closing.PositionAt(staleness), center),
              options.range_m);
    std::vector<NodeId> found = medium.NeighborsOf(center, options.range_m);
    std::sort(found.begin(), found.end());
    EXPECT_EQ(found, (std::vector<NodeId>{0, 1}));
    EXPECT_EQ(medium.stats().index_rebuilds, 1u);  // Still the t = 0 grid.
  }
}

TEST(MediumOracleTest, EveryBroadcastReachesExactlyTheBruteForceDisc) {
  // Inside a run, with the index refreshed lazily, every frame must reach
  // exactly the nodes other than its sender within range of its origin at
  // send time. 300 random-waypoint nodes at Table-II density (1000 peers
  // per 5000 m square) and speeds beacon about once a second for 120 s,
  // with no loss, collisions or churn, so every scheduled receiver
  // receives. The reference is an O(N^2) scan of the mobility models.
  constexpr int kNodes = 300;
  constexpr double kSeconds = 120.0;
  const double side = 5000.0 * std::sqrt(kNodes / 1000.0);
  for (double reindex_interval_s : {0.25, 1.0, 4.0}) {
    SCOPED_TRACE(reindex_interval_s);
    Simulator sim;
    Medium::Options options;
    options.reindex_interval_s = reindex_interval_s;
    Medium medium(options, &sim, Rng(11));
    RandomWaypoint::Options waypoint;
    waypoint.area = Rect{{0.0, 0.0}, {side, side}};
    std::vector<std::unique_ptr<RandomWaypoint>> models;
    // expected[s] and received[s]: the receivers of tx seq s.
    std::vector<std::vector<NodeId>> expected(1);
    std::vector<std::vector<NodeId>> received(1);
    for (NodeId id = 0; id < kNodes; ++id) {
      models.push_back(std::make_unique<RandomWaypoint>(waypoint, Rng(id)));
      ASSERT_TRUE(medium.AddNode(id, models.back().get()).ok());
      ASSERT_TRUE(medium
                      .SetReceiver(id,
                                   [&](const Packet& packet, NodeId, NodeId to) {
                                     const uint64_t seq =
                                         medium.delivering_tx_seq();
                                     EXPECT_EQ(seq, packet.ad_key);
                                     received[seq].push_back(to);
                                   })
                      .ok());
    }
    medium.SetBroadcastObserver(
        [&](NodeId from, const Packet& packet, const Vec2& origin) {
          ASSERT_EQ(packet.ad_key, expected.size());
          const double r2 = options.range_m * options.range_m;
          std::vector<NodeId>& disc = expected.emplace_back();
          for (NodeId id = 0; id < kNodes; ++id) {
            if (id != from &&
                DistanceSquared(models[id]->PositionAt(sim.Now()), origin) <=
                    r2) {
              disc.push_back(id);
            }
          }
          received.emplace_back();
        });
    Rng timing(23);
    uint64_t next_key = 1;
    for (NodeId id = 0; id < kNodes; ++id) {
      for (double t = timing.Uniform(0.0, 1.0); t < kSeconds;
           t += timing.Uniform(0.9, 1.1)) {
        sim.ScheduleAt(t, [&medium, &next_key, id] {
          Packet beacon = MakePacket(0, 20);
          beacon.ad_key = next_key++;  // Equals the tx seq it will get.
          ASSERT_TRUE(medium.Broadcast(id, beacon).ok());
        });
      }
    }
    sim.Run();
    ASSERT_EQ(received.size(), expected.size());
    uint64_t deliveries = 0;
    for (size_t seq = 1; seq < expected.size(); ++seq) {
      std::sort(received[seq].begin(), received[seq].end());
      EXPECT_EQ(received[seq], expected[seq]) << "tx seq " << seq;
      deliveries += expected[seq].size();
    }
    EXPECT_GT(expected.size(), 35'000u);
    EXPECT_EQ(medium.stats().deliveries, deliveries);
    EXPECT_GT(deliveries, 100'000u);
  }
}

TEST(MediumVelocityTest, VelocityOfMatchesTheModelBitForBit) {
  // VelocityOf must equal the model's VelocityAt exactly, at interior
  // instants, at leg boundaries and during pauses, after the position
  // query that moves the model's cursor leg.
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
        (void)medium.PositionOf(id);  // Moves the model's cursor leg.
        const Vec2 got = medium.VelocityOf(id);
        // The twin sees the same calls the medium makes.
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
