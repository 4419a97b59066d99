// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The shared wireless broadcast medium — the repo's substitute for ns-2's
// 802.11 PHY/MAC. Unit-disk propagation with configurable transmission
// range, per-receiver latency jitter, optional random loss, and an optional
// collision model. Every node in range of a broadcast receives it (wireless
// broadcasts are inherently promiscuous, which is what gossip
// Optimization 2's overhearing relies on).
//
// A node id is its dense index: AddNode takes ids 0, 1, 2, ... in order.
// Link and MAC state (online bits, collision window, carrier) is
// structure-of-arrays, one flat vector per attribute indexed
// by id, and the spatial index stores ids, so a broadcast performs no map
// lookup per receiver. The collision-window arrays exist only when
// Options::enable_collisions is set (and CSMA is off), the carrier array
// only under CSMA: the options are fixed at construction. A node's
// receive upcall is one Receiver pointer. Positions are not copied: every
// position and velocity is asked of the node's mobility model, whose
// cursor leg answers time-monotonic queries inline. Both MACs share one
// transmit header (counters, origin, tx seq, observer, Tx trace) and one
// delivery path (offline/jam check, loss and fading, counters, Rx trace,
// receiver); they differ only in when collisions, loss and fading are
// decided. The counters are network totals (MediumStats): a per-node
// tally is the caller's, through the broadcast observer and a receiver.
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
#include "obs/trace.h"
#include "net/spatial_index.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/status.h"

namespace madnet::net {

using mobility::MobilityModel;
using sim::Simulator;
using sim::Time;

/// The receive upcall of one node: the medium calls OnFrame once per frame
/// delivered to the node the receiver is registered for.
class Receiver {
 public:
  virtual ~Receiver() = default;

  /// `packet` arrived at node `to` from node `from`.
  virtual void OnFrame(const Packet& packet, NodeId from, NodeId to) = 0;
};

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

  /// Called once per frame put on the air, under both MACs, with the
  /// sender and its position (a CSMA frame that exhausts its retries is
  /// never reported). Used by instrumentation (e.g. message-density maps,
  /// per-node send counts).
  using BroadcastObserver =
      std::function<void(NodeId from, const Packet&, const Vec2& origin)>;

  /// The medium schedules deliveries on `simulator` and draws jitter/loss
  /// from `rng`. Both must outlive the medium.
  Medium(const Options& options, Simulator* simulator, Rng rng);

  /// Registers a node with its mobility model (borrowed; must outlive the
  /// medium). Ids are dense: `id` must equal node_count(). A smaller id
  /// is AlreadyExists; a larger one is InvalidArgument.
  Status AddNode(NodeId id, MobilityModel* mobility);

  /// Sizes the per-node arrays for `node_count` nodes, so that many
  /// AddNode calls neither reallocate nor leave growth slack behind.
  void Reserve(size_t node_count);

  /// Delivers `id`'s frames to `receiver` (borrowed: it must outlive the
  /// medium or be replaced first); nullptr detaches the node.
  Status SetReceiver(NodeId id, Receiver* receiver);

  /// Function form: the medium wraps `handler` in an adapter it owns, one
  /// per node, reused when the node registers again. An empty handler
  /// detaches the node and drops its adapter.
  Status SetReceiver(NodeId id, ReceiveHandler handler);

  /// Number of function receivers the medium holds adapters for.
  size_t handler_adapter_count() const { return adapters_.size(); }

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

  /// Cumulative traffic counters, network-wide. A per-node tally (load
  /// or energy per peer) counts sends through SetBroadcastObserver and
  /// receptions through a receiver that forwards to the node's own.
  const MediumStats& stats() const { return stats_; }

  /// Number of registered nodes; their ids are 0 .. node_count() - 1.
  size_t node_count() const { return mobility_.size(); }

  const Options& options() const { return options_; }

  /// The simulator the medium schedules deliveries on.
  Simulator* simulator() const { return simulator_; }

 private:
  /// Adapter from a ReceiveHandler to the Receiver interface.
  struct HandlerReceiver final : Receiver {
    void OnFrame(const Packet& packet, NodeId from, NodeId to) override {
      handler(packet, from, to);
    }
    ReceiveHandler handler;
  };

  /// One in-flight broadcast frame in the arena. A slot's epoch runs from
  /// AcquireFrame (refs picks up one count per scheduled delivery, plus a
  /// carry ref through the CSMA retry chain) to the last ReleaseFrame,
  /// which resets the slot (drops the payload) and returns it to the free
  /// list. Slots live in a deque so references stay valid while handlers
  /// re-enter Broadcast mid-delivery.
  struct Frame {
    Packet packet;
    NodeId from = kInvalidNodeId;
    Vec2 origin;
    uint64_t tx_seq = 0;  ///< Per-medium transmit sequence (1-based).
    /// Ids of the scheduled receivers; delivery run item i goes to
    /// receivers[i]. Capacity is kept across slot reuse.
    std::vector<NodeId> receivers;
    uint32_t refs = 0;
    uint32_t next_free = 0xFFFFFFFFu;
  };

  /// What the transmit header stamps on a frame going on air.
  struct OnAir {
    Vec2 origin;      ///< Sender position at transmit time.
    uint64_t tx_seq;  ///< The frame's transmit sequence number.
  };

  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  /// True iff `id` was registered.
  bool Known(NodeId id) const { return id < mobility_.size(); }

  /// True iff the ideal MAC's collision window is modelled (and its
  /// per-node arrays exist).
  bool CollisionWindow() const {
    return options_.enable_collisions && !options_.csma;
  }

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
  /// prefilter would drop, then sorts by (snapshot cell x, snapshot cell
  /// y, id). Exact as long as no node outruns Options::max_speed_mps.
  void SortAsSnapshot(const Vec2& center, double radius) const;

  /// Ids of online nodes within `radius` of `center`, ordered by
  /// (cell x, cell y, id) of their positions at the index snapshot (see
  /// RefreshIndex). Returns a reference to a per-medium scratch buffer:
  /// valid until the next call, so callers must finish iterating (and not
  /// trigger nested neighbour queries) before any other medium call that
  /// queries neighbours. Repeat same-tick queries with the same center
  /// and radius (one gossip round broadcasts every cached ad from one
  /// spot) are served from a memo without touching the index.
  const std::vector<NodeId>& NeighborIndicesOf(const Vec2& center,
                                               double radius) const;

  /// Transmit header shared by both MACs: counts the frame, takes its
  /// origin and tx seq, and reports it to the broadcast
  /// observer and the trace.
  OnAir Transmit(NodeId from, const Packet& packet, Time now);

  /// Schedules the deliveries listed in when_scratch_ to the receivers of
  /// arena slot `slot` as one queue run, one frame ref each.
  void ScheduleDeliveries(uint32_t slot);

  /// Delivery endpoint of both MACs: drops the frame at an offline or
  /// jammed receiver; the ideal MAC then decides collision, loss and
  /// fading (CSMA decided them in CsmaTransmit); a surviving frame is
  /// received. Drops one frame ref.
  void DeliverFrame(uint32_t slot, NodeId to);

  /// Receiver-side gate shared by both MACs: false (and counted) when
  /// `to` is offline or inside a jam zone at `now`.
  bool Reachable(NodeId to, Time now);

  /// Ideal MAC's collision window at `to`: true (and counted) when the
  /// frame from `from` overlaps an earlier arrival there.
  bool Collided(NodeId to, NodeId from, Time now);

  /// Random loss, then distance fading from `origin`: true (and counted
  /// as dropped_loss) when either drops the frame at `to`. Draws in that
  /// order; a zero probability draws nothing.
  bool Lost(NodeId to, const Vec2& origin, Time now);

  /// Receive tail shared by both MACs: counters, Rx trace, and the
  /// receive handler under delivering_tx_seq_.
  void Receive(NodeId to, const Frame& frame, Time now);

  /// Combined base + episode loss probability, clamped to [0, 1].
  double EffectiveLossProbability() const;

  /// CSMA: one carrier-sense attempt for the frame in arena slot `slot`;
  /// transmits, or reschedules itself after a backoff while the channel
  /// at the sender is busy. The frame stays in its slot through the whole
  /// retry chain — the packet is copied exactly once (into the arena),
  /// however many backoffs it takes.
  void CsmaTryTransmit(uint32_t slot, int attempt);

  /// CSMA: performs the actual on-air transmission (channel occupation,
  /// per-receiver capture/garble, loss and fading decisions, deliveries
  /// at airtime end).
  void CsmaTransmit(uint32_t slot);

  /// Takes a slot from the free list (or grows the arena) and fills it.
  /// The new slot starts at zero refs; callers add one per outstanding
  /// use before anything can release it.
  uint32_t AcquireFrame(const Packet& packet, NodeId from);

  /// Drops one ref; the last ref resets the slot and frees it.
  void ReleaseFrame(uint32_t slot);

  Options options_;
  Simulator* simulator_;
  mutable Rng rng_;

  // --- SoA link and MAC state, dense, by node id (docs/architecture.md) ---
  std::vector<MobilityModel*> mobility_;    // Borrowed models.
  std::vector<Receiver*> receivers_;        // Receive upcalls (cold).
  std::vector<uint8_t> online_;             // 0/1 liveness bits.
  // Collision window (empty unless CollisionWindow()).
  std::vector<Time> last_rx_time_;          // Last arrival.
  std::vector<NodeId> last_rx_from_;        // Last sender.
  std::vector<uint8_t> rx_garbled_;         // Garbled bit.
  std::vector<Time> channel_busy_until_;    // CSMA carrier (empty unless
                                            // Options::csma).

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
  // Adapters of the nodes registered with a ReceiveHandler. Map nodes
  // keep their address, so receivers_ may point at them.
  std::unordered_map<NodeId, HandlerReceiver> adapters_;

  // Frame arena (see Frame).
  std::deque<Frame> frame_pool_;
  uint32_t free_frame_ = kNoSlot;
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
  mutable std::vector<NodeId> candidate_scratch_;
  mutable std::vector<NodeId> neighbor_scratch_;
  std::vector<Time> when_scratch_;  // Delivery times of the frame being
                                    // scheduled (Broadcast, CsmaTransmit).
  // SortAsSnapshot's sort keys: a neighbour's snapshot cell and id.
  struct SnapshotKey {
    int64_t cx;
    int64_t cy;
    NodeId id;
  };
  mutable std::vector<SnapshotKey> snapshot_scratch_;
};

}  // namespace madnet::net

#endif  // MADNET_NET_MEDIUM_H_
