// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The shared wireless broadcast medium — the repo's substitute for ns-2's
// 802.11 PHY/MAC. Unit-disk propagation with configurable transmission
// range, per-receiver latency jitter, optional random loss, and an optional
// collision model. Every node in range of a broadcast receives it (wireless
// broadcasts are inherently promiscuous, which is what gossip
// Optimization 2's overhearing relies on).
//
// Storage layout (see docs/architecture.md, "Hot path layout"): node state
// is structure-of-arrays — parallel dense vectors (mobility pointers,
// online bits, collision-window state, per-node counters, a per-tick
// position cache) indexed by a per-medium dense index assigned at AddNode
// and never reused — so DeliverTo/Broadcast and the index rebuild stream
// over tightly packed arrays instead of striding through fat structs. The
// id→index map is consulted once at each public-API entry point (with a
// fast path for the dense 0..n-1 ids scenarios assign) and every hot-path
// loop then runs on plain array accesses. The spatial index stores dense
// indices too, so a broadcast performs zero hash lookups per receiver.
// In-flight frames live in a medium-owned arena (slot pool with intrusive
// refcounts) instead of one shared_ptr heap allocation per broadcast. A
// frame lists its receivers, and its deliveries are one event-queue run
// (sim::EventQueue::PushRun) whose callback captures {medium, slot} —
// inside std::function's inline buffer, so scheduling a broadcast's
// deliveries allocates nothing in steady state. A Medium instance is
// single-threaded by design — concurrent replications each build their
// own Medium (see exec::RunReplicated).

#ifndef MADNET_NET_MEDIUM_H_
#define MADNET_NET_MEDIUM_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mobility/mobility_model.h"
#include "net/packet.h"
#include "obs/tile_load.h"
#include "obs/trace.h"
#include "net/spatial_index.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/status.h"

namespace madnet::net {

using mobility::MobilityModel;
using sim::Simulator;
using sim::Time;

/// Traffic counters, cumulative over the run. "Messages" counts broadcasts
/// (one frame per broadcast regardless of receiver count), matching the
/// paper's Number-of-Messages metric.
struct MediumStats {
  uint64_t messages_sent = 0;       ///< Broadcast frames put on the air.
  uint64_t bytes_sent = 0;          ///< Sum of frame sizes.
  uint64_t deliveries = 0;          ///< Per-receiver successful deliveries.
  uint64_t dropped_loss = 0;        ///< Per-receiver random losses.
  uint64_t dropped_collision = 0;   ///< Per-receiver collision losses.
  uint64_t dropped_offline = 0;     ///< Receiver was offline at delivery.
  uint64_t dropped_jammed = 0;      ///< Receiver was inside a jammed zone.
  uint64_t dropped_mac_busy = 0;    ///< CSMA: frame gave up after retries.
  uint64_t mac_defers = 0;          ///< CSMA: busy-channel backoffs taken.
  // Neighbour-query instrumentation (medium.index_rebuilds and
  // medium.batch_* in the obs metrics output).
  uint64_t index_rebuilds = 0;    ///< Spatial grid builds (see RefreshIndex).
  uint64_t batch_queries = 0;     ///< Always 0: nothing batches queries
  uint64_t batch_walk_reuse = 0;  ///< any more. Both are kept for readers
                                  ///< of medium.batch_queries/_walk_reuse.
  uint64_t batch_memo_hits = 0;   ///< Same-tick repeat queries served from
                                  ///< the neighbour memo.
  uint64_t arena_frames_peak = 0;  ///< Frame-arena in-flight high water.
};

/// The broadcast medium connecting all nodes of a scenario.
class Medium {
 public:
  /// PHY/MAC parameters.
  struct Options {
    double range_m = 250.0;        ///< Unit-disk transmission range.
    double max_speed_mps = 15.0;   ///< Upper bound on node speed (for index
                                   ///< staleness slack).
    double reindex_interval_s = 1.0;  ///< Spatial index refresh period.
    double min_latency_s = 0.5e-3;    ///< Per-receiver delivery latency low.
    double max_latency_s = 2.0e-3;    ///< Per-receiver delivery latency high.
    double loss_probability = 0.0;    ///< Independent per-receiver loss.
    /// Distance-dependent fading: an additional per-receiver drop with
    /// probability (d / range)^fading_exponent. 0 disables (pure unit
    /// disk); larger exponents concentrate the loss at the cell edge,
    /// crudely modelling shadowing at the fringe of 802.11 range.
    double fading_exponent = 0.0;
    bool enable_collisions = false;   ///< Drop overlapping receptions.
    double collision_window_s = 1.0e-3;  ///< Frames from different senders
                                         ///< closer than this collide.

    /// --- CSMA/CA mode (a closer 802.11 substitute) ---
    /// When true, transmissions occupy the channel for their airtime
    /// (mac_overhead + bits/bitrate), senders carrier-sense and back off
    /// while the channel is busy at their location, neighbours defer, and
    /// overlapping receptions at a node garble the later frame (capture
    /// effect: the earlier one survives). Hidden terminals emerge
    /// naturally: two senders out of each other's range can both sense
    /// idle and collide at a node in between. The ideal mode (default)
    /// keeps the jittered-latency model above.
    bool csma = false;
    double bitrate_bps = 1.0e6;       ///< Channel rate (early 802.11).
    double mac_overhead_s = 0.5e-3;   ///< Preamble + IFS per frame.
    double max_backoff_s = 4.0e-3;    ///< Random defer when busy.
    int max_mac_retries = 16;         ///< Drop the frame after this many
                                      ///< consecutive busy defers.
  };

  /// Called on packet arrival: (packet, sender, receiver).
  using ReceiveHandler =
      std::function<void(const Packet&, NodeId from, NodeId to)>;

  /// Called once per broadcast, at transmission time, with the sender and
  /// its position. Used by instrumentation (e.g. message-density maps).
  using BroadcastObserver =
      std::function<void(NodeId from, const Packet&, const Vec2& origin)>;

  /// The medium schedules deliveries on `simulator` and draws jitter/loss
  /// from `rng`. Both must outlive the medium.
  Medium(const Options& options, Simulator* simulator, Rng rng);

  /// Registers a node with its mobility model (borrowed; must outlive the
  /// medium). Returns AlreadyExists if the id is taken.
  Status AddNode(NodeId id, MobilityModel* mobility);

  /// Sets the upcall invoked when `id` receives a packet.
  Status SetReceiver(NodeId id, ReceiveHandler handler);

  /// Marks a node on/off-line. Offline nodes neither send nor receive
  /// (the paper's issuer "goes off-line" after seeding the ad, and the
  /// fault layer's churn duty-cycles peers through here).
  Status SetOnline(NodeId id, bool online);

  /// True iff the node exists and is online.
  bool IsOnline(NodeId id) const;

  /// Broadcasts `packet` from node `from` to every online node currently
  /// within range. Counts one message (in CSMA mode, when the frame
  /// actually transmits; a frame that exhausts its MAC retries is counted
  /// in dropped_mac_busy instead). Returns FailedPrecondition if the
  /// sender is offline, NotFound if it was never added.
  Status Broadcast(NodeId from, const Packet& packet);

  /// Current position of a node (exact, from its mobility model).
  Vec2 PositionOf(NodeId id) const;

  /// Current velocity of a node.
  Vec2 VelocityOf(NodeId id) const;

  /// Ids of online nodes within `radius` of `center` right now (exact).
  /// Allocates the result vector on every call: for external/test use
  /// only. Internal hot paths use the scratch-backed NeighborIndicesOf.
  std::vector<NodeId> NeighborsOf(const Vec2& center, double radius) const;

  /// Installs (or clears, with nullptr) the per-broadcast observer.
  void SetBroadcastObserver(BroadcastObserver observer) {
    observer_ = std::move(observer);
  }

  /// Installs (or clears, with nullptr) the trace sink receiving one
  /// kTraceTx record per on-air frame and one kTraceRx record per
  /// successful delivery. Must outlive the medium or be cleared first.
  void SetTrace(obs::Trace* trace) { trace_ = trace; }

  /// Installs (or clears, with nullptr) the spatial load map recording
  /// per-tile broadcast/delivery counts and queue depth. Must outlive the
  /// medium or be cleared first. Purely observational: attaching one never
  /// changes delivery order or RNG draws.
  void SetTileLoad(obs::TileLoadMap* tiles) { tiles_ = tiles; }

  /// Transmit sequence number (1-based, per medium, assigned in broadcast
  /// order) of the frame currently being delivered to a receive handler;
  /// 0 outside a handler. Protocols read this inside OnReceive to stamp
  /// provenance (which transmission delivered this ad first).
  uint64_t delivering_tx_seq() const { return delivering_tx_seq_; }

  /// --- Fault hooks (driven by fault::FaultInjector; see docs/FAULTS.md) ---

  /// Loss probability added to Options::loss_probability for the duration
  /// of a loss episode; the sum is clamped to [0, 1] at each delivery.
  /// Applies to frames *delivered* from now on, including ones already in
  /// flight (loss is decided at delivery time).
  void SetExtraLoss(double probability);
  double extra_loss() const { return extra_loss_; }

  /// Replaces the set of jammed rectangles. While a receiver's position at
  /// delivery time lies inside any zone it decodes nothing
  /// (dropped_jammed). Senders inside a zone still transmit: jamming is a
  /// receive-side condition.
  void SetJamZones(std::vector<Rect> zones) { jam_zones_ = std::move(zones); }
  const std::vector<Rect>& jam_zones() const { return jam_zones_; }

  /// Cumulative traffic counters.
  const MediumStats& stats() const { return stats_; }

  /// Per-node radio accounting (0 for unknown ids). Together with
  /// stats() these support per-peer load and energy analysis (e.g. how
  /// Optimization 1 concentrates forwarding on annulus peers, and what
  /// each method costs a battery-powered handset).
  uint64_t SentBy(NodeId id) const;          ///< Frames transmitted.
  uint64_t SentBytesBy(NodeId id) const;     ///< Bytes transmitted.
  uint64_t ReceivedBy(NodeId id) const;      ///< Frames delivered to it.
  uint64_t ReceivedBytesBy(NodeId id) const; ///< Bytes delivered to it.

  /// All registered node ids, in insertion order.
  const std::vector<NodeId>& node_ids() const { return ids_; }

  const Options& options() const { return options_; }

 private:
  /// One in-flight broadcast frame in the arena. A slot's epoch runs from
  /// AcquireFrame (refs picks up one count per scheduled delivery, plus a
  /// carry ref through the CSMA retry chain) to the last ReleaseFrame,
  /// which resets the slot (drops the payload) and returns it to the free
  /// list. Slots live in a deque so references stay valid while handlers
  /// re-enter Broadcast mid-delivery.
  struct Frame {
    Packet packet;
    NodeId from = kInvalidNodeId;
    uint32_t from_index = 0;
    Vec2 origin;
    uint64_t tx_seq = 0;  ///< Per-medium transmit sequence (1-based).
    /// Dense indices of the scheduled receivers; delivery run item i goes
    /// to receivers[i]. Capacity is kept across slot reuse.
    std::vector<uint32_t> receivers;
    uint32_t refs = 0;
    uint32_t next_free = 0xFFFFFFFFu;
  };

  /// Dense index of a node, or kNotFound for unknown ids.
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;
  uint32_t IndexOf(NodeId id) const {
    // Scenarios register ids 0..n densely, so id == index almost always;
    // the hash map only backs arbitrary external id assignment.
    if (id < ids_.size() && ids_[id] == id) return id;
    auto it = index_of_.find(id);
    return it == index_of_.end() ? kNotFound : it->second;
  }

  /// Position of node `index` at `now`, through the per-tick cache
  /// (positions are pure functions of time, so caching is exact).
  Vec2 CachedPositionAt(uint32_t index, Time now) const;

  /// Position of node `index` at `t` through the leg mirror, without the
  /// per-tick cache (CachedPositionAt's uncached path).
  Vec2 PositionAt(uint32_t index, Time t) const;

  /// Rebuilds the spatial grid over the online nodes' positions at `now`.
  void BuildIndex(Time now) const;

  /// Advances the index snapshot if stale, rebuilding the grid when that
  /// is due, and returns the slack to add to query radii so the grid's
  /// stale entries still yield a superset.
  ///
  /// Two instants are kept. The snapshot `index_time_` follows the fixed
  /// rule: it moves to now once it is more than reindex_interval_s old,
  /// and AddNode / SetOnline(…, true) force a move at the next query. It
  /// fixes neighbour enumeration order: the order of a grid built over the
  /// online nodes' positions at `index_time_`. The grid itself, built at
  /// `base_time_`, moves with the snapshot only when the queries since the
  /// last build scanned more candidates than that build indexed, when a
  /// forced move may have brought a node the grid lacks, or when a grid
  /// built at the snapshot could have a coarser cell than the
  /// configured one. Otherwise NeighborIndicesOf queries the older grid
  /// and restores the snapshot order itself (SortAsSnapshot).
  double RefreshIndex() const;

  /// Orders neighbor_scratch_ as a query of a grid built at `index_time_`
  /// would: drops the entries that grid's cell box and indexed-distance
  /// prefilter would drop, then sorts by (snapshot cell x, snapshot cell y, dense index).
  /// Exact as long as no node outruns Options::max_speed_mps.
  void SortAsSnapshot(const Vec2& center, double radius) const;

  /// Dense indices of online nodes within `radius` of `center`, ordered by
  /// (cell x, cell y, dense index) of their positions at the index
  /// snapshot (see RefreshIndex). Returns a reference to a per-medium
  /// scratch buffer: valid until the next call, so callers must finish
  /// iterating (and not
  /// trigger nested neighbour queries) before any other medium call that
  /// queries neighbours. Repeat same-tick queries with the same center
  /// and radius (one gossip round broadcasts every cached ad from one
  /// spot) are served from a memo without touching the index.
  const std::vector<uint32_t>& NeighborIndicesOf(const Vec2& center,
                                                 double radius) const;

  /// Delivery-time endpoint of the non-CSMA path: offline / jamming /
  /// collision / loss / fading are all decided here, when the frame
  /// arrives. `origin` is the sender's position at transmit time (for the
  /// fading distance).
  void DeliverTo(uint32_t to_index, NodeId from, const Vec2& origin,
                 const Packet& packet, uint64_t tx_seq);

  /// Non-CSMA delivery trampoline: unpacks arena slot `slot`, delivers to
  /// `to`, and drops one frame ref.
  void DeliverFrame(uint32_t slot, uint32_t to);

  /// Combined base + episode loss probability, clamped to [0, 1].
  double EffectiveLossProbability() const;

  /// True iff `position` lies inside any active jam zone.
  bool Jammed(const Vec2& position) const;

  /// CSMA: one carrier-sense attempt for the frame in arena slot `slot`;
  /// transmits, or reschedules itself after a backoff while the channel
  /// at the sender is busy. The frame stays in its slot through the whole
  /// retry chain — the packet is copied exactly once (into the arena),
  /// however many backoffs it takes.
  void CsmaTryTransmit(uint32_t slot, int attempt);

  /// CSMA: performs the actual on-air transmission (channel occupation,
  /// per-receiver capture/garble decision, delayed deliveries).
  void CsmaTransmit(uint32_t slot);

  /// CSMA: reception completes at airtime end — final offline/jam checks,
  /// then delivery; drops one frame ref.
  void CsmaCompleteRx(uint32_t slot, uint32_t to);

  /// Takes a slot from the free list (or grows the arena) and fills it.
  /// The new slot starts at zero refs; callers add one per outstanding
  /// use before anything can release it.
  uint32_t AcquireFrame(const Packet& packet, NodeId from,
                        uint32_t from_index);

  /// Drops one ref; the last ref resets the slot and frees it.
  void ReleaseFrame(uint32_t slot);

  Options options_;
  Simulator* simulator_;
  mutable Rng rng_;

  // --- SoA node state, dense, by index (docs/architecture.md) ---
  std::vector<NodeId> ids_;                 // index -> id.
  std::vector<MobilityModel*> mobility_;    // Borrowed models.
  std::vector<ReceiveHandler> handlers_;    // Receive upcalls (cold).
  std::vector<uint8_t> online_;             // 0/1 liveness bits.
  std::vector<Time> last_rx_time_;          // Collision window: last arrival.
  std::vector<NodeId> last_rx_from_;        // Collision window: last sender.
  std::vector<uint8_t> rx_garbled_;         // Collision window: garbled bit.
  std::vector<Time> channel_busy_until_;    // CSMA carrier state.
  std::vector<uint64_t> sent_;              // Per-node accounting (cold).
  std::vector<uint64_t> sent_bytes_;
  std::vector<uint64_t> received_;
  std::vector<uint64_t> received_bytes_;
  // Per-tick position cache: node index -> last evaluated position and
  // the sim time it was evaluated at (exact — positions are pure
  // functions of time).
  mutable std::vector<double> pos_x_;
  mutable std::vector<double> pos_y_;
  mutable std::vector<Time> pos_time_;
  // Mirror of each node's most recently used trajectory leg (legs are
  // immutable once generated). Times strictly inside the mirrored leg are
  // evaluated straight from these dense arrays — same arithmetic as
  // Leg::PositionAt, so results are bit-identical — without touching the
  // heap-allocated mobility model. Sentinel start == end == 0 before the
  // first evaluation.
  mutable std::vector<Time> leg_start_;
  mutable std::vector<Time> leg_end_;
  mutable std::vector<double> leg_from_x_;
  mutable std::vector<double> leg_from_y_;
  mutable std::vector<double> leg_to_x_;
  mutable std::vector<double> leg_to_y_;

  std::unordered_map<NodeId, uint32_t> index_of_;  // id -> index.
  mutable SpatialIndex index_;
  mutable Time index_time_ = -1.0;  // Snapshot instant (see RefreshIndex).
  mutable Time base_time_ = -1.0;   // Instant index_ was built at.
  mutable uint64_t scanned_since_build_ = 0;  // Candidates queried from it.
  uint32_t online_count_ = 0;                 // Nodes with online_ set.
  mutable MediumStats stats_;    // Mutable: query paths count cache hits.
  double extra_loss_ = 0.0;      // Episode loss added by the fault layer.
  std::vector<Rect> jam_zones_;  // Active jammer rectangles (usually 0-1).
  BroadcastObserver observer_;
  obs::Trace* trace_ = nullptr;
  obs::TileLoadMap* tiles_ = nullptr;

  // Frame arena (see Frame).
  std::deque<Frame> frame_pool_;
  uint32_t free_frame_ = kNotFound;
  uint32_t live_frames_ = 0;

  // Provenance: transmit sequence numbers, assigned in broadcast order
  // (1-based so 0 means "none"), and the sequence of the frame whose
  // delivery handler is currently running.
  uint64_t next_tx_seq_ = 1;
  uint64_t delivering_tx_seq_ = 0;

  // Neighbour memo: the (time, center, radius, epoch) key the current
  // neighbor_scratch_ contents answer. The epoch counts membership
  // mutations (AddNode/SetOnline), which are the only inputs other than
  // time that can change a query's result.
  mutable bool memo_valid_ = false;
  mutable Time memo_time_ = -1.0;
  mutable Vec2 memo_center_;
  mutable double memo_radius_ = -1.0;
  mutable uint64_t memo_epoch_ = 0;
  uint64_t mutation_epoch_ = 0;

  // Hot-path scratch, reused across broadcasts instead of reallocating
  // vectors per transmission. Safe because a Medium is single-threaded and
  // deliveries happen via the simulator (never re-entrantly inside the
  // neighbour loop).
  mutable std::vector<NodeId> rebuild_id_scratch_;
  mutable std::vector<double> rebuild_x_scratch_;
  mutable std::vector<double> rebuild_y_scratch_;
  mutable std::vector<NodeId> candidate_scratch_;
  mutable std::vector<uint32_t> neighbor_scratch_;
  std::vector<Time> when_scratch_;  // Delivery times of the frame being
                                    // scheduled (Broadcast, CsmaTransmit).
  // SortAsSnapshot's sort keys: a neighbour's snapshot cell and index.
  struct SnapshotKey {
    int64_t cx;
    int64_t cy;
    uint32_t index;
  };
  mutable std::vector<SnapshotKey> snapshot_scratch_;
};

}  // namespace madnet::net

#endif  // MADNET_NET_MEDIUM_H_
