// Copyright (c) 2026 madnet authors. All rights reserved.

#include "net/medium.h"

#include <algorithm>
#include <cmath>
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
  const uint32_t index = static_cast<uint32_t>(ids_.size());
  auto [it, inserted] = index_of_.try_emplace(id, index);
  if (!inserted) return Status::AlreadyExists("node id already registered");
  ids_.push_back(id);
  mobility_.push_back(mobility);
  handlers_.emplace_back();
  online_.push_back(1);
  last_rx_time_.push_back(-1.0);
  last_rx_from_.push_back(kInvalidNodeId);
  rx_garbled_.push_back(0);
  channel_busy_until_.push_back(-1.0);
  sent_.push_back(0);
  sent_bytes_.push_back(0);
  received_.push_back(0);
  received_bytes_.push_back(0);
  pos_x_.push_back(0.0);
  pos_y_.push_back(0.0);
  pos_time_.push_back(-1.0);
  leg_start_.push_back(0.0);  // start == end: mirror starts invalid.
  leg_end_.push_back(0.0);
  leg_from_x_.push_back(0.0);
  leg_from_y_.push_back(0.0);
  leg_to_x_.push_back(0.0);
  leg_to_y_.push_back(0.0);
  ++online_count_;
  index_time_ = -1.0;  // Force reindex: the node set changed.
  ++mutation_epoch_;
  return Status::Ok();
}

Status Medium::SetReceiver(NodeId id, ReceiveHandler handler) {
  const uint32_t index = IndexOf(id);
  if (index == kNotFound) return Status::NotFound("unknown node id");
  handlers_[index] = std::move(handler);
  return Status::Ok();
}

Status Medium::SetOnline(NodeId id, bool online) {
  const uint32_t index = IndexOf(id);
  if (index == kNotFound) return Status::NotFound("unknown node id");
  // Index rebuilds skip offline nodes, so a node coming back must become
  // queryable immediately: force a rebuild at the next query. Going
  // offline needs none — queries filter on the live flag anyway.
  if (online && !online_[index]) {
    index_time_ = -1.0;
    ++online_count_;
  }
  if (!online && online_[index]) --online_count_;
  online_[index] = online ? 1 : 0;
  ++mutation_epoch_;  // Invalidate the same-tick neighbour memo.
  return Status::Ok();
}

void Medium::SetExtraLoss(double probability) {
  MADNET_DCHECK(probability >= 0.0 && probability <= 1.0 &&
                std::isfinite(probability));
  extra_loss_ = probability;
}

uint64_t Medium::SentBy(NodeId id) const {
  const uint32_t index = IndexOf(id);
  return index == kNotFound ? 0 : sent_[index];
}

uint64_t Medium::SentBytesBy(NodeId id) const {
  const uint32_t index = IndexOf(id);
  return index == kNotFound ? 0 : sent_bytes_[index];
}

uint64_t Medium::ReceivedBy(NodeId id) const {
  const uint32_t index = IndexOf(id);
  return index == kNotFound ? 0 : received_[index];
}

uint64_t Medium::ReceivedBytesBy(NodeId id) const {
  const uint32_t index = IndexOf(id);
  return index == kNotFound ? 0 : received_bytes_[index];
}

bool Medium::IsOnline(NodeId id) const {
  const uint32_t index = IndexOf(id);
  return index != kNotFound && online_[index] != 0;
}

// MADNET_HOT
Vec2 Medium::CachedPositionAt(uint32_t index, Time now) const {
  if (pos_time_[index] == now) return Vec2{pos_x_[index], pos_y_[index]};
  const Vec2 position = PositionAt(index, now);
  pos_time_[index] = now;
  pos_x_[index] = position.x;
  pos_y_[index] = position.y;
  return position;
}

// MADNET_HOT
Vec2 Medium::PositionAt(uint32_t index, Time t) const {
  Vec2 position;
  const Time start = leg_start_[index];
  const Time end = leg_end_[index];
  if (start < t && t < end) {
    // Strictly inside the mirrored leg: that leg is the unique one
    // containing `t` in its interior, and the expression below is the
    // one Leg::PositionAt uses (interior times make its clamp a no-op),
    // so this is bit-identical to asking the model.
    const double s = (t - start) / (end - start);
    position.x = leg_from_x_[index] + (leg_to_x_[index] - leg_from_x_[index]) * s;
    position.y = leg_from_y_[index] + (leg_to_y_[index] - leg_from_y_[index]) * s;
  } else {
    position = mobility_[index]->PositionAt(t);
    if (const mobility::Leg* leg = mobility_[index]->CursorLeg()) {
      leg_start_[index] = leg->start;
      leg_end_[index] = leg->end;
      leg_from_x_[index] = leg->from.x;
      leg_from_y_[index] = leg->from.y;
      leg_to_x_[index] = leg->to.x;
      leg_to_y_[index] = leg->to.y;
    }
  }
  return position;
}

Vec2 Medium::PositionOf(NodeId id) const {
  const uint32_t index = IndexOf(id);
  MADNET_DCHECK(index != kNotFound);  // PositionOf on unknown node.
  return CachedPositionAt(index, simulator_->Now());
}

// MADNET_HOT
Vec2 Medium::VelocityOf(NodeId id) const {
  const uint32_t index = IndexOf(id);
  MADNET_DCHECK(index != kNotFound);  // VelocityOf on unknown node.
  const Time now = simulator_->Now();
  const Time start = leg_start_[index];
  const Time end = leg_end_[index];
  if (start < now && now < end) {
    // Strictly inside the mirrored leg, the unique leg containing `now`
    // (the rule PositionAt uses): Leg::Velocity's expression, so the
    // result is bit-identical to asking the model.
    const double d = end - start;
    return Vec2{(leg_to_x_[index] - leg_from_x_[index]) / d,
                (leg_to_y_[index] - leg_from_y_[index]) / d};
  }
  return mobility_[index]->VelocityAt(now);
}

// MADNET_HOT
void Medium::BuildIndex(Time now) const {
  // The index stores dense node indices (cast through NodeId), so query
  // results feed straight into the state arrays without a hash lookup
  // per hit.
  const size_t n = ids_.size();
  rebuild_id_scratch_.clear();
  rebuild_x_scratch_.clear();
  rebuild_y_scratch_.clear();
  rebuild_id_scratch_.reserve(n);
  rebuild_x_scratch_.reserve(n);
  rebuild_y_scratch_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    // Offline nodes are excluded: under heavy churn they would bloat
    // every query's candidate set just to be filtered out one by one.
    // SetOnline(…, true) forces a rebuild, so exclusion never hides a
    // node that has come back.
    if (!online_[i]) continue;
    const Vec2 position = CachedPositionAt(i, now);
    rebuild_id_scratch_.push_back(i);
    rebuild_x_scratch_.push_back(position.x);
    rebuild_y_scratch_.push_back(position.y);
  }
  index_.Rebuild(rebuild_id_scratch_, rebuild_x_scratch_,
                 rebuild_y_scratch_);
  base_time_ = now;
  scanned_since_build_ = 0;
  stats_.index_rebuilds += 1;
}

// MADNET_HOT
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
  // Grid positions are up to (now - base_time_) old; both endpoints of a
  // distance check may each have moved max_speed * staleness, so a query
  // enlarged by twice that is a guaranteed superset.
  MADNET_DCHECK_GE(now, base_time_);  // Slack must be >= 0.
  return 2.0 * options_.max_speed_mps * (now - base_time_);
}

// MADNET_HOT
void Medium::SortAsSnapshot(const Vec2& center, double radius) const {
  const Time now = simulator_->Now();
  const double reach = options_.max_speed_mps * (now - index_time_);
  // QueryRange on a grid built at index_time_, with that grid's slack,
  // walks only this cell box and keeps only points passing this
  // indexed-distance check. Both are applied so the result matches it
  // even where rounding puts a point of the disc's rim outside the box.
  const double index_radius = radius + 2.0 * reach;
  const double index_r2 = index_radius * index_radius;
  const int64_t lo_cx = index_.CellCoord(center.x - index_radius);
  const int64_t hi_cx = index_.CellCoord(center.x + index_radius);
  const int64_t lo_cy = index_.CellCoord(center.y - index_radius);
  const int64_t hi_cy = index_.CellCoord(center.y + index_radius);
  snapshot_scratch_.clear();
  for (uint32_t index : neighbor_scratch_) {
    const Vec2 position = PositionAt(index, index_time_);
    // The snapshot order is only exact if no node outran max_speed_mps
    // (Validate checks that for the built-in mobility models only).
    MADNET_DCHECK(Distance(position, CachedPositionAt(index, now)) <=
                  reach + 1e-6);
    const double dx = position.x - center.x;
    const double dy = position.y - center.y;
    if (dx * dx + dy * dy > index_r2) continue;
    const int64_t cx = index_.CellCoord(position.x);
    const int64_t cy = index_.CellCoord(position.y);
    if (cx < lo_cx || cx > hi_cx || cy < lo_cy || cy > hi_cy) continue;
    snapshot_scratch_.push_back({cx, cy, index});
  }
  std::sort(snapshot_scratch_.begin(), snapshot_scratch_.end(),
            [](const SnapshotKey& a, const SnapshotKey& b) {
              if (a.cx != b.cx) return a.cx < b.cx;
              if (a.cy != b.cy) return a.cy < b.cy;
              return a.index < b.index;
            });
  neighbor_scratch_.clear();
  for (const SnapshotKey& key : snapshot_scratch_) {
    neighbor_scratch_.push_back(key.index);
  }
}

// MADNET_HOT
const std::vector<uint32_t>& Medium::NeighborIndicesOf(const Vec2& center,
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
  for (NodeId candidate : candidate_scratch_) {
    const uint32_t index = static_cast<uint32_t>(candidate);
    MADNET_DCHECK_LT(index, ids_.size());  // Index stores dense indices.
    if (!online_[index]) continue;
    if (DistanceSquared(CachedPositionAt(index, now), center) <= r2) {
      neighbor_scratch_.push_back(index);
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
  const std::vector<uint32_t>& indices = NeighborIndicesOf(center, radius);
  std::vector<NodeId> result;
  result.reserve(indices.size());
  for (uint32_t index : indices) result.push_back(ids_[index]);
  return result;
}

uint32_t Medium::AcquireFrame(const Packet& packet, NodeId from,
                              uint32_t from_index) {
  uint32_t slot;
  if (free_frame_ != kNotFound) {
    slot = free_frame_;
    free_frame_ = frame_pool_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(frame_pool_.size());
    frame_pool_.emplace_back();
  }
  Frame& frame = frame_pool_[slot];
  frame.packet = packet;
  frame.from = from;
  frame.from_index = from_index;
  frame.origin = Vec2{};
  frame.receivers.clear();
  frame.refs = 0;
  frame.next_free = kNotFound;
  ++live_frames_;
  if (live_frames_ > stats_.arena_frames_peak) {
    stats_.arena_frames_peak = live_frames_;
  }
  return slot;
}

// MADNET_HOT
void Medium::ReleaseFrame(uint32_t slot) {
  Frame& frame = frame_pool_[slot];
  MADNET_DCHECK_GT(frame.refs, 0u);
  if (--frame.refs != 0) return;
  frame.packet = Packet{};  // Drop the payload reference now, not at reuse.
  frame.next_free = free_frame_;
  free_frame_ = slot;
  --live_frames_;
}

// MADNET_HOT
Status Medium::Broadcast(NodeId from, const Packet& packet) {
  const uint32_t from_index = IndexOf(from);
  if (from_index == kNotFound) return Status::NotFound("unknown sender");
  if (!online_[from_index]) {
    return Status::FailedPrecondition("sender is offline");
  }
  if (options_.csma) {
    // The frame enters the arena once and stays in its slot through the
    // whole carrier-sense/backoff chain.
    const uint32_t slot = AcquireFrame(packet, from, from_index);
    ++frame_pool_[slot].refs;  // Carry ref held by the retry chain.
    CsmaTryTransmit(slot, 0);
    return Status::Ok();
  }

  stats_.messages_sent += 1;
  stats_.bytes_sent += packet.size_bytes;
  sent_[from_index] += 1;
  sent_bytes_[from_index] += packet.size_bytes;

  // Reception set is fixed at transmission time (propagation is effectively
  // instantaneous relative to node motion); the jittered delay models MAC
  // access plus processing.
  const Time now = simulator_->Now();
  const Vec2 origin = CachedPositionAt(from_index, now);
  const uint64_t tx_seq = next_tx_seq_++;
  if (observer_) observer_(from, packet, origin);
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceTx)) {
    trace_->Tx(now, from, origin.x, origin.y, packet.size_bytes, tx_seq);
  }
  if (tiles_ != nullptr) {
    // Queue depth counts this frame too (it is in flight from now on).
    tiles_->RecordBroadcast(origin.x, origin.y, live_frames_ + 1);
  }
  // All deliveries of this broadcast share one arena frame (acquired at
  // the first receiver), which lists the receivers, and one queue run: n
  // deliveries cost one calendar entry and one callback capturing
  // {medium, slot}. Latencies are drawn in neighbour order and the run
  // takes one id per receiver in that order, so each delivery keeps the
  // (time, id) key a per-receiver Schedule would have given it.
  // Loss, fading, and collisions are all decided in DeliverTo, at delivery
  // time: a frame that will be lost still arrives at the receiver's radio
  // and must contend in its collision window, and a receiver that churns
  // offline mid-flight is charged dropped_offline, not dropped_loss.
  uint32_t slot = kNotFound;
  when_scratch_.clear();
  for (uint32_t to : NeighborIndicesOf(origin, options_.range_m)) {
    if (to == from_index) continue;
    const double latency =
        rng_.Uniform(options_.min_latency_s, options_.max_latency_s);
    MADNET_DCHECK(latency >= options_.min_latency_s &&
                  latency <= options_.max_latency_s);
    if (slot == kNotFound) {
      slot = AcquireFrame(packet, from, from_index);
      frame_pool_[slot].origin = origin;
      frame_pool_[slot].tx_seq = tx_seq;
    }
    // NOLINTNEXTLINE(madnet-hot-alloc): capacity kept per arena slot.
    frame_pool_[slot].receivers.push_back(to);
    when_scratch_.push_back(now + latency);
  }
  if (slot != kNotFound) {
    // One frame ref per delivery, dropped as each one completes.
    frame_pool_[slot].refs += static_cast<uint32_t>(when_scratch_.size());
    simulator_->ScheduleRunAt(when_scratch_, [this, slot](uint32_t i) {
      DeliverFrame(slot, frame_pool_[slot].receivers[i]);
    });
  }
  return Status::Ok();
}

// MADNET_HOT
void Medium::DeliverFrame(uint32_t slot, uint32_t to) {
  // The frame reference stays valid while the receive handler re-enters
  // Broadcast (frame_pool_ is a deque; the slot holds a ref until after
  // delivery).
  const Frame& frame = frame_pool_[slot];
  DeliverTo(to, frame.from, frame.origin, frame.packet, frame.tx_seq);
  ReleaseFrame(slot);
}

void Medium::CsmaTryTransmit(uint32_t slot, int attempt) {
  const uint32_t from_index = frame_pool_[slot].from_index;
  if (!online_[from_index]) {  // Went offline while deferring.
    ReleaseFrame(slot);
    return;
  }

  const Time now = simulator_->Now();
  if (channel_busy_until_[from_index] > now) {
    // Carrier sensed busy: defer until it frees, plus a random backoff.
    if (attempt >= options_.max_mac_retries) {
      stats_.dropped_mac_busy += 1;
      ReleaseFrame(slot);
      return;
    }
    stats_.mac_defers += 1;
    const double wait = (channel_busy_until_[from_index] - now) +
                        rng_.Uniform(0.0, options_.max_backoff_s);
    simulator_->Schedule(wait, [this, slot, attempt]() {
      CsmaTryTransmit(slot, attempt + 1);
    });
    return;
  }
  CsmaTransmit(slot);
}

// MADNET_HOT
void Medium::CsmaTransmit(uint32_t slot) {
  Frame& frame = frame_pool_[slot];
  const uint32_t from_index = frame.from_index;
  const Time now = simulator_->Now();
  const double airtime =
      options_.mac_overhead_s +
      static_cast<double>(frame.packet.size_bytes) * 8.0 / options_.bitrate_bps;
  const Time end = now + airtime;

  stats_.messages_sent += 1;
  stats_.bytes_sent += frame.packet.size_bytes;
  sent_[from_index] += 1;
  sent_bytes_[from_index] += frame.packet.size_bytes;
  channel_busy_until_[from_index] =
      std::max(channel_busy_until_[from_index], end);

  const NodeId from = frame.from;
  const Vec2 origin = CachedPositionAt(from_index, now);
  frame.origin = origin;
  frame.tx_seq = next_tx_seq_++;
  if (observer_) observer_(from, frame.packet, origin);
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceTx)) {
    trace_->Tx(now, from, origin.x, origin.y, frame.packet.size_bytes,
               frame.tx_seq);
  }
  if (tiles_ != nullptr) {
    tiles_->RecordBroadcast(origin.x, origin.y, live_frames_);
  }

  when_scratch_.clear();
  for (uint32_t to : NeighborIndicesOf(origin, options_.range_m)) {
    if (to == from_index) continue;
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
    if (rng_.Bernoulli(EffectiveLossProbability())) {
      stats_.dropped_loss += 1;
      continue;
    }
    if (options_.fading_exponent > 0.0) {
      const double fraction =
          Distance(CachedPositionAt(to, now), origin) / options_.range_m;
      if (rng_.Bernoulli(std::pow(fraction, options_.fading_exponent))) {
        stats_.dropped_loss += 1;
        continue;
      }
    }
    // Reception completes when the frame's airtime ends.
    // NOLINTNEXTLINE(madnet-hot-alloc): capacity kept per arena slot.
    frame.receivers.push_back(to);
    when_scratch_.push_back(end);
  }
  if (!when_scratch_.empty()) {
    frame.refs += static_cast<uint32_t>(when_scratch_.size());
    simulator_->ScheduleRunAt(when_scratch_, [this, slot](uint32_t i) {
      CsmaCompleteRx(slot, frame_pool_[slot].receivers[i]);
    });
  }
  ReleaseFrame(slot);  // Drop the retry chain's carry ref.
}

// MADNET_HOT
void Medium::CsmaCompleteRx(uint32_t slot, uint32_t to) {
  const Frame& frame = frame_pool_[slot];
  if (!online_[to]) {
    stats_.dropped_offline += 1;
    ReleaseFrame(slot);
    return;
  }
  const Time now = simulator_->Now();
  if (!jam_zones_.empty() && Jammed(CachedPositionAt(to, now))) {
    stats_.dropped_jammed += 1;
    ReleaseFrame(slot);
    return;
  }
  stats_.deliveries += 1;
  received_[to] += 1;
  received_bytes_[to] += frame.packet.size_bytes;
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceRx)) {
    trace_->Rx(now, frame.from, ids_[to], frame.packet.size_bytes,
               frame.packet.ad_key, frame.tx_seq);
  }
  if (tiles_ != nullptr) {
    const Vec2 at = CachedPositionAt(to, now);
    tiles_->RecordDelivery(at.x, at.y);
  }
  if (handlers_[to]) {
    delivering_tx_seq_ = frame.tx_seq;
    handlers_[to](frame.packet, frame.from, ids_[to]);
    delivering_tx_seq_ = 0;
  }
  ReleaseFrame(slot);
}

double Medium::EffectiveLossProbability() const {
  if (extra_loss_ <= 0.0) return options_.loss_probability;
  const double combined = options_.loss_probability + extra_loss_;
  return combined < 1.0 ? combined : 1.0;
}

bool Medium::Jammed(const Vec2& position) const {
  for (const Rect& zone : jam_zones_) {
    if (zone.Contains(position)) return true;
  }
  return false;
}

// MADNET_HOT
void Medium::DeliverTo(uint32_t to_index, NodeId from, const Vec2& origin,
                       const Packet& packet, uint64_t tx_seq) {
  if (!online_[to_index]) {
    // Churned/crashed away while the frame was in flight: charged here and
    // nowhere else (the radio never saw the frame, so no loss draw and no
    // collision-window contention).
    stats_.dropped_offline += 1;
    return;
  }
  const Time now = simulator_->Now();
  if (!jam_zones_.empty() && Jammed(CachedPositionAt(to_index, now))) {
    stats_.dropped_jammed += 1;
    return;
  }
  if (options_.enable_collisions) {
    if (last_rx_time_[to_index] >= 0.0 &&
        now - last_rx_time_[to_index] < options_.collision_window_s &&
        (rx_garbled_[to_index] != 0 || last_rx_from_[to_index] != from)) {
      // This frame overlaps an earlier arrival from another sender (or a
      // window already garbled by a collision). Both are lost, and the
      // window stays garbled: a third overlapping frame collides too, even
      // one from the sender whose earlier frame opened the window. Only
      // back-to-back frames from one sender in a *clean* window survive —
      // that is serialization at the sender's MAC, not a collision.
      stats_.dropped_collision += 1;
      last_rx_time_[to_index] = now;
      rx_garbled_[to_index] = 1;
      return;
    }
    // From here the frame occupies the receiver's window whether or not
    // it decodes: random loss and fading destroy the payload, not the RF
    // energy that later frames must contend with.
    last_rx_time_[to_index] = now;
    last_rx_from_[to_index] = from;
    rx_garbled_[to_index] = 0;
  }
  const double loss = EffectiveLossProbability();
  if (loss > 0.0 && rng_.Bernoulli(loss)) {
    stats_.dropped_loss += 1;
    return;
  }
  if (options_.fading_exponent > 0.0) {
    const double fraction =
        Distance(CachedPositionAt(to_index, now), origin) / options_.range_m;
    if (rng_.Bernoulli(std::pow(fraction, options_.fading_exponent))) {
      stats_.dropped_loss += 1;
      return;
    }
  }
  stats_.deliveries += 1;
  received_[to_index] += 1;
  received_bytes_[to_index] += packet.size_bytes;
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceRx)) {
    trace_->Rx(now, from, ids_[to_index], packet.size_bytes, packet.ad_key,
               tx_seq);
  }
  if (tiles_ != nullptr) {
    const Vec2 at = CachedPositionAt(to_index, now);
    tiles_->RecordDelivery(at.x, at.y);
  }
  if (handlers_[to_index]) {
    delivering_tx_seq_ = tx_seq;
    handlers_[to_index](packet, from, ids_[to_index]);
    delivering_tx_seq_ = 0;
  }
}

}  // namespace madnet::net
