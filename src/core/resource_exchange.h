// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Opportunistic Resource Exchange — the related-work comparator the paper
// positions itself against (Section II; Goel/Wolfson-style inter-vehicle
// resource dissemination). Re-implemented here so the comparison "gossiping
// vs exchange at encounter" can actually be run:
//
//   * Every peer beacons periodically so neighbours can detect encounters.
//   * A *relevance* score decays linearly with the resource's age and with
//     the peer's distance from the generating location; only the most
//     relevant resources are kept in bounded memory, and resources whose
//     relevance reaches zero are dropped.
//   * On encountering a peer it has not seen recently, a peer transmits its
//     top-relevance resources in one batch frame.
//
// The paper's critique — this model bounds *what is kept*, not *how much is
// sent*, and encounter detection itself costs beacons — is exactly what the
// bench/related_exchange comparison shows.

#ifndef MADNET_CORE_RESOURCE_EXCHANGE_H_
#define MADNET_CORE_RESOURCE_EXCHANGE_H_

#include <unordered_map>
#include <vector>

#include "core/advertisement.h"
#include "core/protocol.h"

namespace madnet::core {

/// Beacon frame used for encounter detection.
struct BeaconMessage : net::Payload {};

/// Batch frame carrying the sender's most relevant resources. `hops`
/// parallels `ads`: hops[i] is the hop count at which ads[i] arrives at
/// the receiver (sender's first-receipt hop + 1; see Packet::hop). A
/// frame built without hops is read as all-hop-1 (direct from issuers).
struct ExchangeMessage : net::Payload {
  explicit ExchangeMessage(std::vector<Advertisement> ads_in,
                           std::vector<uint32_t> hops_in = {})
      : ads(std::move(ads_in)), hops(std::move(hops_in)) {}
  std::vector<Advertisement> ads;
  std::vector<uint32_t> hops;
};

/// The exchange-at-encounter protocol, one instance per node.
class ResourceExchange : public Protocol {
 public:
  struct Options {
    double beacon_interval_s = 2.0;   ///< Hello-beacon period.
    /// A neighbour heard within this window is not a *new* encounter.
    double encounter_timeout_s = 30.0;
    size_t memory_capacity = 10;      ///< Most-relevant resources kept.
    size_t exchange_batch = 10;       ///< Max resources per exchange frame.
    /// Relevance = max(0, 1 - age_weight*age/D - distance_weight*d/R).
    double age_weight = 0.5;
    double distance_weight = 0.5;
  };

  ResourceExchange(ProtocolContext context, const Options& options);

  /// Starts beaconing and registers with the medium.
  void Start() override;

  /// Issues a new resource: inserts it locally; it spreads via encounters.
  StatusOr<AdId> Issue(const AdContent& content, double radius_m,
                       double duration_s) override;

  /// Crash-with-state-loss: resource memory and encounter bookkeeping are
  /// volatile; the node rejoins cold and re-learns both from beacons.
  void OnCrash() override;

  /// Relevance of `ad` for a peer at `position` at time `now` (linear
  /// decay in age and distance; in [0, 1]).
  static double Relevance(const Advertisement& ad, const Vec2& position,
                          Time now, const Options& options);

  /// Read access for tests.
  size_t MemorySize() const { return memory_.size(); }
  bool Holds(uint64_t key) const { return memory_.count(key) != 0; }
  uint64_t beacons_sent() const { return beacons_sent_; }
  uint64_t exchanges_sent() const { return exchanges_sent_; }

  const Options& options() const { return options_; }

 protected:
  void OnReceive(const net::Packet& packet, net::NodeId from) override;

 private:
  /// One beacon tick: refresh/prune memory, send the hello frame.
  bool BeaconTick();

  /// Handles hearing node `from`: if it is a new encounter, send our batch.
  void OnEncounter(net::NodeId from);

  /// Inserts/refreshes a received resource, enforcing the relevance-ordered
  /// memory bound.
  void Store(const Advertisement& ad);

  /// Drops expired (relevance 0) resources and returns the key of the
  /// least relevant survivor (0 if empty).
  void Prune();

  Options options_;
  std::unordered_map<uint64_t, Advertisement> memory_;
  /// Hop count at first receipt per ad key (0 for ads this node issued).
  /// Survives OnCrash — like DeliveryLog, first-receipt bookkeeping fires
  /// once per (ad, peer) even across a reboot — and stamps the hops
  /// vector of outgoing exchange batches.
  std::unordered_map<uint64_t, uint32_t> first_hop_;
  /// Last time each neighbour was heard (beacon or data).
  std::unordered_map<net::NodeId, Time> last_heard_;
  sim::PeriodicHandle beacon_timer_;
  uint64_t beacons_sent_ = 0;
  uint64_t exchanges_sent_ = 0;
};

}  // namespace madnet::core

#endif  // MADNET_CORE_RESOURCE_EXCHANGE_H_
