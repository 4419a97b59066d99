// Copyright (c) 2026 madnet authors. All rights reserved.

#include "net/medium.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/logging.h"

namespace madnet::net {

Medium::Medium(const Options& options, Simulator* simulator, Rng rng)
    : options_(options),
      simulator_(simulator),
      rng_(rng),
      index_(options.range_m > 0.0 ? options.range_m : 1.0) {
  MADNET_DCHECK(simulator != nullptr);
  MADNET_DCHECK(options.range_m > 0.0 && std::isfinite(options.range_m));
  MADNET_DCHECK(options.max_latency_s >= options.min_latency_s &&
                options.min_latency_s >= 0.0);
  MADNET_DCHECK(options.loss_probability >= 0.0 &&
                options.loss_probability <= 1.0);
  MADNET_DCHECK(options.fading_exponent >= 0.0);
}

Status Medium::AddNode(NodeId id, MobilityModel* mobility) {
  if (mobility == nullptr) {
    return Status::InvalidArgument("mobility model must not be null");
  }
  if (Known(id)) return Status::AlreadyExists("node id already registered");
  if (id != node_count()) {
    return Status::InvalidArgument("node ids are dense: expected id " +
                                   std::to_string(node_count()));
  }
  mobility_.push_back(mobility);
  receivers_.push_back(nullptr);
  online_.push_back(1);
  if (CollisionWindow()) {
    last_rx_time_.push_back(-1.0);
    last_rx_from_.push_back(kInvalidNodeId);
    rx_garbled_.push_back(0);
  }
  if (options_.csma) channel_busy_until_.push_back(-1.0);
  ++online_count_;
  index_time_ = -1.0;  // Force reindex: the node set changed.
  ++mutation_epoch_;
  return Status::Ok();
}

void Medium::Reserve(size_t node_count) {
  mobility_.reserve(node_count);
  receivers_.reserve(node_count);
  online_.reserve(node_count);
  if (CollisionWindow()) {
    last_rx_time_.reserve(node_count);
    last_rx_from_.reserve(node_count);
    rx_garbled_.reserve(node_count);
  }
  if (options_.csma) channel_busy_until_.reserve(node_count);
}

Status Medium::SetReceiver(NodeId id, Receiver* receiver) {
  if (!Known(id)) return Status::NotFound("unknown node id");
  receivers_[id] = receiver;
  adapters_.erase(id);
  return Status::Ok();
}

Status Medium::SetReceiver(NodeId id, ReceiveHandler handler) {
  if (!handler) return SetReceiver(id, static_cast<Receiver*>(nullptr));
  if (!Known(id)) return Status::NotFound("unknown node id");
  HandlerReceiver& adapter = adapters_[id];
  adapter.handler = std::move(handler);
  receivers_[id] = &adapter;
  return Status::Ok();
}

Status Medium::SetOnline(NodeId id, bool online) {
  if (!Known(id)) return Status::NotFound("unknown node id");
  // Index rebuilds skip offline nodes, so a node coming back must become
  // queryable immediately: force a rebuild at the next query. Going
  // offline needs none — queries filter on the live flag anyway.
  if (online && !online_[id]) {
    index_time_ = -1.0;
    ++online_count_;
  }
  if (!online && online_[id]) --online_count_;
  online_[id] = online ? 1 : 0;
  ++mutation_epoch_;  // Invalidate the same-tick neighbour memo.
  return Status::Ok();
}

void Medium::SetExtraLoss(double probability) {
  MADNET_DCHECK(probability >= 0.0 && probability <= 1.0 &&
                std::isfinite(probability));
  extra_loss_ = probability;
}

bool Medium::IsOnline(NodeId id) const { return Known(id) && online_[id]; }

Vec2 Medium::PositionOf(NodeId id) const {
  MADNET_DCHECK(Known(id));  // PositionOf on unknown node.
  return mobility_[id]->PositionAt(simulator_->Now());
}

Vec2 Medium::VelocityOf(NodeId id) const {
  MADNET_DCHECK(Known(id));  // VelocityOf on unknown node.
  return mobility_[id]->VelocityAt(simulator_->Now());
}

void Medium::BuildIndex(Time now) const {
  const size_t n = mobility_.size();
  index_.BeginBuild(online_count_);
  for (NodeId id = 0; id < n; ++id) {
    // Offline nodes are excluded: under heavy churn they would bloat
    // every query's candidate set just to be filtered out one by one.
    // SetOnline(…, true) forces a rebuild, so exclusion never hides a
    // node that has come back.
    if (!online_[id]) continue;
    index_.Add(id, mobility_[id]->PositionAt(now));
  }
  index_.EndBuild();
  base_time_ = now;
  scanned_since_build_ = 0;
  stats_.index_rebuilds += 1;
}

double Medium::RefreshIndex() const {
  const Time now = simulator_->Now();
  const bool forced = index_time_ < 0.0;
  if (forced || now - index_time_ > options_.reindex_interval_s) {
    // A forced move may follow a node joining or coming back online, which
    // the grid lacks. Otherwise rebuild once the queries have scanned more
    // candidates than a build costs, or before a grid built now could
    // coarsen: the snapshot order is the order of a grid with the
    // configured cell edge, which SortAsSnapshot can recreate from cell
    // coordinates alone. Every online node is within max_speed * age of
    // its grid entry, so RebuildKeepsCellSize bounds that grid's size.
    if (forced || scanned_since_build_ > index_.Size() ||
        !index_.RebuildKeepsCellSize(
            options_.max_speed_mps * (now - base_time_), online_count_)) {
      BuildIndex(now);
    }
    index_time_ = now;
  }
  // Grid positions are up to (now - base_time_) old. The query centre is
  // a given point, not an indexed position, so only the candidate's drift
  // counts: a node within radius of the centre now was within radius +
  // max_speed * staleness of it at the build, and that enlarged query is
  // a guaranteed superset (and the tightest one: a node closing head-on
  // at max_speed needs all of it).
  MADNET_DCHECK_GE(now, base_time_);  // Slack must be >= 0.
  return options_.max_speed_mps * (now - base_time_);
}

void Medium::SortAsSnapshot(const Vec2& center, double radius) const {
  const Time now = simulator_->Now();
  const double reach = options_.max_speed_mps * (now - index_time_);
  // QueryRange on a grid built at index_time_, with that grid's slack,
  // walks only this cell box and keeps only points passing this
  // indexed-distance check. Both are applied so the result matches it
  // even where rounding puts a point of the disc's rim outside the box.
  const double index_radius = radius + reach;
  const double index_r2 = index_radius * index_radius;
  const int64_t lo_cx = index_.CellCoord(center.x - index_radius);
  const int64_t hi_cx = index_.CellCoord(center.x + index_radius);
  const int64_t lo_cy = index_.CellCoord(center.y - index_radius);
  const int64_t hi_cy = index_.CellCoord(center.y + index_radius);
  snapshot_scratch_.clear();
  for (NodeId id : neighbor_scratch_) {
    const Vec2 position = mobility_[id]->PositionAt(index_time_);
    // The snapshot order is only exact if no node outran max_speed_mps
    // (Validate checks that for the built-in mobility models only).
    MADNET_DCHECK(Distance(position, mobility_[id]->PositionAt(now)) <=
                  reach + 1e-6);
    const double dx = position.x - center.x;
    const double dy = position.y - center.y;
    if (dx * dx + dy * dy > index_r2) continue;
    const int64_t cx = index_.CellCoord(position.x);
    const int64_t cy = index_.CellCoord(position.y);
    if (cx < lo_cx || cx > hi_cx || cy < lo_cy || cy > hi_cy) continue;
    snapshot_scratch_.push_back({cx, cy, id});
  }
  std::sort(snapshot_scratch_.begin(), snapshot_scratch_.end(),
            [](const SnapshotKey& a, const SnapshotKey& b) {
              if (a.cx != b.cx) return a.cx < b.cx;
              if (a.cy != b.cy) return a.cy < b.cy;
              return a.id < b.id;
            });
  neighbor_scratch_.clear();
  for (const SnapshotKey& key : snapshot_scratch_) {
    neighbor_scratch_.push_back(key.id);
  }
}

const std::vector<NodeId>& Medium::NeighborIndicesOf(const Vec2& center,
                                                     double radius) const {
  MADNET_DCHECK(radius >= 0.0 && std::isfinite(radius));
  MADNET_DCHECK(std::isfinite(center.x) && std::isfinite(center.y));
  const Time now = simulator_->Now();
  // Same-tick memo: one gossip round broadcasts every cached ad from the
  // same node, position, and instant — identical queries whose answer
  // cannot have changed (positions are functions of time; membership
  // changes bump mutation_epoch_).
  if (memo_valid_ && memo_time_ == now && memo_center_ == center &&
      memo_radius_ == radius && memo_epoch_ == mutation_epoch_) {
    stats_.batch_memo_hits += 1;
    return neighbor_scratch_;
  }
  const double slack = RefreshIndex();
  candidate_scratch_.clear();
  index_.QueryRange(center, radius + slack, &candidate_scratch_);
  scanned_since_build_ += candidate_scratch_.size();

  const double r2 = radius * radius;
  neighbor_scratch_.clear();
  for (NodeId id : candidate_scratch_) {
    MADNET_DCHECK(Known(id));
    if (!online_[id]) continue;
    if (DistanceSquared(mobility_[id]->PositionAt(now), center) <= r2) {
      neighbor_scratch_.push_back(id);
    }
  }
  // A grid built at the snapshot already walks in snapshot order.
  if (base_time_ != index_time_) SortAsSnapshot(center, radius);
  memo_valid_ = true;
  memo_time_ = now;
  memo_center_ = center;
  memo_radius_ = radius;
  memo_epoch_ = mutation_epoch_;
  return neighbor_scratch_;
}

std::vector<NodeId> Medium::NeighborsOf(const Vec2& center,
                                        double radius) const {
  return NeighborIndicesOf(center, radius);
}

uint32_t Medium::AcquireFrame(const Packet& packet, NodeId from) {
  uint32_t slot;
  if (free_frame_ != kNoSlot) {
    slot = free_frame_;
    free_frame_ = frame_pool_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(frame_pool_.size());
    frame_pool_.emplace_back();
  }
  Frame& frame = frame_pool_[slot];
  frame.packet = packet;
  frame.from = from;
  frame.origin = Vec2{};
  frame.receivers.clear();
  frame.refs = 0;
  frame.next_free = kNoSlot;
  ++live_frames_;
  if (live_frames_ > stats_.arena_frames_peak) {
    stats_.arena_frames_peak = live_frames_;
  }
  return slot;
}

void Medium::ReleaseFrame(uint32_t slot) {
  Frame& frame = frame_pool_[slot];
  MADNET_DCHECK_GT(frame.refs, 0u);
  if (--frame.refs != 0) return;
  frame.packet = Packet{};  // Drop the payload reference now, not at reuse.
  frame.next_free = free_frame_;
  free_frame_ = slot;
  --live_frames_;
}

Medium::OnAir Medium::Transmit(NodeId from, const Packet& packet, Time now) {
  stats_.messages_sent += 1;
  stats_.bytes_sent += packet.size_bytes;
  const OnAir on_air{mobility_[from]->PositionAt(now), next_tx_seq_++};
  if (observer_) observer_(from, packet, on_air.origin);
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceTx)) {
    trace_->Tx(now, from, on_air.origin.x, on_air.origin.y,
               packet.size_bytes, on_air.tx_seq);
  }
  return on_air;
}

void Medium::ScheduleDeliveries(uint32_t slot) {
  if (when_scratch_.empty()) return;
  frame_pool_[slot].refs += static_cast<uint32_t>(when_scratch_.size());
  simulator_->ScheduleRunAt(when_scratch_, [this, slot](uint32_t i) {
    DeliverFrame(slot, frame_pool_[slot].receivers[i]);
  });
}

Status Medium::Broadcast(NodeId from, const Packet& packet) {
  if (!Known(from)) return Status::NotFound("unknown sender");
  if (!online_[from]) return Status::FailedPrecondition("sender is offline");
  if (options_.csma) {
    // The frame enters the arena once and stays in its slot through the
    // whole carrier-sense/backoff chain.
    const uint32_t slot = AcquireFrame(packet, from);
    ++frame_pool_[slot].refs;  // Carry ref held by the retry chain.
    CsmaTryTransmit(slot, 0);
    return Status::Ok();
  }

  // Reception set is fixed at transmission time (propagation is effectively
  // instantaneous relative to node motion); the jittered delay models MAC
  // access plus processing.
  const Time now = simulator_->Now();
  const OnAir on_air = Transmit(from, packet, now);
  // All deliveries of this broadcast share one arena frame (acquired at
  // the first receiver), which lists the receivers, and one queue run: n
  // deliveries cost one calendar entry and one callback capturing
  // {medium, slot}. Latencies are drawn in neighbour order and the run
  // takes one id per receiver in that order, so each delivery keeps the
  // (time, id) key a per-receiver Schedule would have given it.
  // Loss, fading, and collisions are all decided in DeliverFrame, at
  // delivery time: a frame that will be lost still arrives at the
  // receiver's radio and must contend in its collision window, and a
  // receiver that churns offline mid-flight is charged dropped_offline,
  // not dropped_loss.
  uint32_t slot = kNoSlot;
  when_scratch_.clear();
  for (NodeId to : NeighborIndicesOf(on_air.origin, options_.range_m)) {
    if (to == from) continue;
    const double latency =
        rng_.Uniform(options_.min_latency_s, options_.max_latency_s);
    MADNET_DCHECK(latency >= options_.min_latency_s &&
                  latency <= options_.max_latency_s);
    if (slot == kNoSlot) {
      slot = AcquireFrame(packet, from);
      frame_pool_[slot].origin = on_air.origin;
      frame_pool_[slot].tx_seq = on_air.tx_seq;
    }
    frame_pool_[slot].receivers.push_back(to);
    when_scratch_.push_back(now + latency);
  }
  ScheduleDeliveries(slot);
  return Status::Ok();
}

void Medium::CsmaTryTransmit(uint32_t slot, int attempt) {
  const NodeId from = frame_pool_[slot].from;
  if (!online_[from]) {  // Went offline while deferring.
    ReleaseFrame(slot);
    return;
  }

  const Time now = simulator_->Now();
  if (channel_busy_until_[from] > now) {
    // Carrier sensed busy: defer until it frees, plus a random backoff.
    if (attempt >= options_.max_mac_retries) {
      stats_.dropped_mac_busy += 1;
      ReleaseFrame(slot);
      return;
    }
    stats_.mac_defers += 1;
    const double wait = (channel_busy_until_[from] - now) +
                        rng_.Uniform(0.0, options_.max_backoff_s);
    simulator_->Schedule(wait, [this, slot, attempt]() {
      CsmaTryTransmit(slot, attempt + 1);
    });
    return;
  }
  CsmaTransmit(slot);
}

void Medium::CsmaTransmit(uint32_t slot) {
  Frame& frame = frame_pool_[slot];
  const NodeId from = frame.from;
  const Time now = simulator_->Now();
  const double airtime =
      options_.mac_overhead_s +
      static_cast<double>(frame.packet.size_bytes) * 8.0 / options_.bitrate_bps;
  const Time end = now + airtime;
  channel_busy_until_[from] = std::max(channel_busy_until_[from], end);
  const OnAir on_air = Transmit(from, frame.packet, now);
  frame.origin = on_air.origin;
  frame.tx_seq = on_air.tx_seq;

  when_scratch_.clear();
  for (NodeId to : NeighborIndicesOf(frame.origin, options_.range_m)) {
    if (to == from) continue;
    // The receiver was already mid-reception of another frame: this frame
    // is garbled at that receiver (capture effect: the earlier frame
    // survives). Either way the carrier extends the busy period.
    const bool garbled = channel_busy_until_[to] > now;
    channel_busy_until_[to] = std::max(channel_busy_until_[to], end);
    if (garbled) {
      stats_.dropped_collision += 1;
      continue;
    }
    // CSMA decides loss when the frame starts occupying the receiver
    // (capture is already resolved); episode loss applies here too.
    if (Lost(to, frame.origin, now)) continue;
    // Reception completes when the frame's airtime ends.
    frame.receivers.push_back(to);
    when_scratch_.push_back(end);
  }
  ScheduleDeliveries(slot);
  ReleaseFrame(slot);  // Drop the retry chain's carry ref.
}

void Medium::DeliverFrame(uint32_t slot, NodeId to) {
  // The frame reference stays valid while the receive handler re-enters
  // Broadcast (frame_pool_ is a deque; the slot holds a ref until after
  // delivery).
  const Frame& frame = frame_pool_[slot];
  const Time now = simulator_->Now();
  if (Reachable(to, now) &&
      (options_.csma || (!Collided(to, frame.from, now) &&
                         !Lost(to, frame.origin, now)))) {
    Receive(to, frame, now);
  }
  ReleaseFrame(slot);
}

bool Medium::Reachable(NodeId to, Time now) {
  if (!online_[to]) {
    // Churned/crashed away while the frame was in flight: charged here and
    // nowhere else (the radio never saw the frame, so no loss draw and no
    // collision-window contention).
    stats_.dropped_offline += 1;
    return false;
  }
  if (jam_zones_.empty()) return true;
  const Vec2 position = mobility_[to]->PositionAt(now);
  for (const Rect& zone : jam_zones_) {
    if (zone.Contains(position)) {
      stats_.dropped_jammed += 1;
      return false;
    }
  }
  return true;
}

bool Medium::Collided(NodeId to, NodeId from, Time now) {
  if (!CollisionWindow()) return false;
  if (last_rx_time_[to] >= 0.0 &&
      now - last_rx_time_[to] < options_.collision_window_s &&
      (rx_garbled_[to] != 0 || last_rx_from_[to] != from)) {
    // This frame overlaps an earlier arrival from another sender (or a
    // window already garbled by a collision). Both are lost, and the
    // window stays garbled: a third overlapping frame collides too, even
    // one from the sender whose earlier frame opened the window. Only
    // back-to-back frames from one sender in a *clean* window survive —
    // that is serialization at the sender's MAC, not a collision.
    stats_.dropped_collision += 1;
    last_rx_time_[to] = now;
    rx_garbled_[to] = 1;
    return true;
  }
  // From here the frame occupies the receiver's window whether or not
  // it decodes: random loss and fading destroy the payload, not the RF
  // energy that later frames must contend with.
  last_rx_time_[to] = now;
  last_rx_from_[to] = from;
  rx_garbled_[to] = 0;
  return false;
}

bool Medium::Lost(NodeId to, const Vec2& origin, Time now) {
  bool lost = rng_.Bernoulli(EffectiveLossProbability());
  if (!lost && options_.fading_exponent > 0.0) {
    const double fraction =
        Distance(mobility_[to]->PositionAt(now), origin) / options_.range_m;
    lost = rng_.Bernoulli(std::pow(fraction, options_.fading_exponent));
  }
  if (lost) stats_.dropped_loss += 1;
  return lost;
}

void Medium::Receive(NodeId to, const Frame& frame, Time now) {
  stats_.deliveries += 1;
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceRx)) {
    trace_->Rx(now, frame.from, to, frame.packet.size_bytes,
               frame.packet.ad_key, frame.tx_seq);
  }
  if (Receiver* receiver = receivers_[to]; receiver != nullptr) {
    delivering_tx_seq_ = frame.tx_seq;
    receiver->OnFrame(frame.packet, frame.from, to);
    delivering_tx_seq_ = 0;
  }
}

double Medium::EffectiveLossProbability() const {
  if (extra_loss_ <= 0.0) return options_.loss_probability;
  const double combined = options_.loss_probability + extra_loss_;
  return combined < 1.0 ? combined : 1.0;
}

}  // namespace madnet::net
