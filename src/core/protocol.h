// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Base class for per-node advertising protocols. Each network node runs one
// Protocol instance; the scenario harness wires it to the simulator, the
// broadcast medium, and the metrics pipeline.

#ifndef MADNET_CORE_PROTOCOL_H_
#define MADNET_CORE_PROTOCOL_H_

#include <cstdint>

#include "core/advertisement.h"
#include "core/receipt_sink.h"
#include "net/medium.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/status.h"

namespace madnet::core {

/// Everything a protocol instance needs from its environment. The
/// protocol keeps what differs between peers and reaches the simulator
/// through the medium (`simulator` must be the medium's).
struct ProtocolContext {
  sim::Simulator* simulator = nullptr;
  net::Medium* medium = nullptr;
  net::NodeId self = net::kInvalidNodeId;
  /// Optional sink recording first receipt per (ad, peer); may be null.
  /// stats::DeliveryLog implements this (dependency-inverted so core does
  /// not include stats; see core/receipt_sink.h).
  ReceiptSink* delivery_log = nullptr;
  /// Per-node random stream (forked from the scenario seed).
  Rng rng{0};
  /// Optional trace sink for protocol-level records (suppression
  /// decisions, sketch merges); may be null. Not owned.
  obs::Trace* trace = nullptr;
};

/// Abstract per-node advertising protocol. It is its node's receiver on
/// the medium: every delivered frame reaches OnReceive.
class Protocol : public net::Receiver {
 public:
  explicit Protocol(ProtocolContext context);
  ~Protocol() override = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Registers the receive upcall with the medium and starts any timers.
  /// Call exactly once, before the simulation runs past the node's start.
  virtual void Start();

  /// Issues a new advertisement from this node, at its current position and
  /// the current virtual time. The returned id identifies the ad in metrics.
  /// The base implementation returns FailedPrecondition; protocols that can
  /// originate ads override it.
  virtual StatusOr<AdId> Issue(const AdContent& content, double radius_m,
                               double duration_s);

  /// Fault-layer notifications (see fault::FaultInjector). The node just
  /// crashed: it is already offline, and implementations drop whatever
  /// state would not survive a device reboot (caches, encounter memory).
  /// Default: no-op.
  virtual void OnCrash() {}

  /// The node just came back online (after a crash or a graceful off
  /// period). Implementations may take recovery action, e.g. re-announce
  /// surviving cached ads to the current neighbourhood. Default: no-op.
  virtual void OnRejoin() {}

 protected:
  /// Packet upcall; `from` is the transmitting node.
  virtual void OnReceive(const net::Packet& packet, net::NodeId from) = 0;

  /// The simulator the medium runs on.
  sim::Simulator* simulator() const { return medium_->simulator(); }

  /// Current virtual time.
  Time Now() const { return simulator()->Now(); }

  /// This node's current position / velocity.
  Vec2 Position() const { return medium_->PositionOf(self_); }
  Vec2 Velocity() const { return medium_->VelocityOf(self_); }

  /// Broadcasts to all nodes in range. Silently ignores offline-sender
  /// errors (a node that went offline simply stops transmitting).
  void Broadcast(const net::Packet& packet);

  /// Records this node's first receipt of `ad_key` (no-op without a log).
  void RecordReceipt(uint64_t ad_key);

  /// Emits one kTraceDeliver record for this node's *first* receipt of
  /// `ad_key` (no-op without a trace sink). `hop` is the hop count of the
  /// delivering transmission (issuer's own copy is hop 0 and never traced;
  /// direct neighbours of the issuer deliver at hop 1), `parent` the node
  /// whose broadcast delivered it. The transmit sequence is read from the
  /// medium's in-flight delivery, tying the record to one tx/rx pair.
  /// Call at most once per (node, ad), from inside OnReceive.
  void TraceDeliver(uint64_t ad_key, uint32_t hop, net::NodeId parent);

  /// Builds a fresh advertisement issued by this node here and now.
  Advertisement MakeAdvertisement(
      const AdContent& content, double radius_m, double duration_s,
      const sketch::FmSketchArray::Options& sketch_options);

  net::Medium* medium_;
  net::NodeId self_;
  uint32_t next_sequence_ = 1;  // Of the next ad this node issues.
  ReceiptSink* delivery_log_;   // May be null.
  obs::Trace* trace_;           // May be null.
  Rng rng_;                     // This node's stream.

 private:
  void OnFrame(const net::Packet& packet, net::NodeId from,
               net::NodeId /*to*/) final {
    OnReceive(packet, from);
  }
};

}  // namespace madnet::core

#endif  // MADNET_CORE_PROTOCOL_H_
