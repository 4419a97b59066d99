// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The paper's contribution: the Opportunistic Gossiping protocol
// (Section III-C) with its two message-reduction optimizations
// (Section III-D) and the FM-sketch popularity ranking (Section III-E),
// each independently switchable:
//
//   * Pure gossip — every Gossiping Round each peer broadcasts every cached
//     ad with probability P(d, t) (Formulas 1+2). The issuer seeds the ad
//     once and may go offline; peers maintain it cooperatively, and the
//     cache gives store-&-forward behaviour in sparse networks.
//   * Optimization 1 (`annulus`) — peers in the central disc of radius
//     R - DIS gossip with sharply reduced probability (Formula 3); only the
//     boundary annulus, where newcomers necessarily pass, stays active.
//     During an initial bootstrap phase the plain probability is used so
//     the first wave can spread outwards from the issuing location.
//   * Optimization 2 (`postpone`) — per-ad independent gossip timers;
//     overhearing a neighbour broadcast an ad you cache pushes your own
//     scheduled gossip back by Formula 4 (more for closer neighbours and
//     head-on approach).
//   * Ranking (`ranking`) — on first receipt of a matching ad, the peer
//     hashes its user id into the piggy-backed FM sketches and, if the
//     estimated rank rose, enlarges the ad's R and D (Formula 7).
//
// "Optimized Gossiping" in the paper = annulus + postpone.

#ifndef MADNET_CORE_OPPORTUNISTIC_GOSSIP_H_
#define MADNET_CORE_OPPORTUNISTIC_GOSSIP_H_

#include <vector>

#include "core/ad_cache.h"
#include "core/interest.h"
#include "core/propagation.h"
#include "core/protocol.h"
#include "core/ranking.h"
#include "sketch/fm_sketch.h"

namespace madnet::core {

/// Configuration of a gossip peer. All peers of a scenario share one
/// GossipOptions value.
struct GossipOptions {
  PropagationParams propagation;

  double round_time_s = 5.0;   ///< Gossiping Round Time (paper: t).
  size_t cache_capacity = 10;  ///< Top-k cache size (paper: k).

  bool annulus = false;        ///< Optimization 1 on/off.
  /// Annulus width DIS (Table II: R/4). Setting 0 selects the velocity
  /// constraint's minimum automatically at Start(): DIS = V_max * round
  /// (paper Section III-D: a peer cannot cross more than that per round).
  double dis_m = 250.0;
  /// Age below which Optimization 1 still uses the plain probability, so
  /// the initial wave can cross the central disc ("except for the first
  /// time that an advertisement spreads from the issuing location
  /// outwards"). Default: the time a hop-per-round wave needs to cover
  /// R = 1000 m at 250 m per 5 s round.
  double bootstrap_age_s = 20.0;

  bool postpone = false;       ///< Optimization 2 on/off.

  bool ranking = false;        ///< FM popularity ranking on/off.
  RankingOptions ranking_options;
  sketch::FmSketchArray::Options sketch_options;  ///< For issued ads.

  /// Convenience constructors for the paper's five configurations.
  static GossipOptions Pure() { return {}; }
  static GossipOptions Optimized1() {
    GossipOptions o;
    o.annulus = true;
    return o;
  }
  static GossipOptions Optimized2() {
    GossipOptions o;
    o.postpone = true;
    return o;
  }
  static GossipOptions Optimized() {
    GossipOptions o;
    o.annulus = true;
    o.postpone = true;
    return o;
  }
};

/// One gossip peer. Any peer may issue advertisements.
class OpportunisticGossip : public Protocol {
 public:
  /// `interests` drives Match() when ranking is enabled.
  OpportunisticGossip(ProtocolContext context, const GossipOptions& options,
                      InterestProfile interests = {});

  /// Registers with the medium; without Optimization 2, also draws the
  /// phase in [0, round_time) of the node's global gossip round series
  /// ("all peers work asynchronously"). No round is scheduled until the
  /// cache holds an ad.
  void Start() override;

  /// Issues a new ad: inserts it into the local cache and broadcasts it
  /// once. The issuer may go offline afterwards; the network maintains the
  /// ad from here on.
  StatusOr<AdId> Issue(const AdContent& content, double radius_m,
                       double duration_s) override;

  /// Crash-with-cache-loss: drops every cached ad and cancels its timer
  /// (and the pending global round: the empty cache leaves it dormant).
  /// `seen_hop_` survives on purpose — first-receipt metrics and the ranking
  /// step fire once per (ad, peer) even across a crash, matching
  /// DeliveryLog's semantics.
  void OnCrash() override;

  /// Graceful degradation on rejoin: re-announces every live cached ad
  /// once, so the neighbourhood recovers the state this peer carried
  /// without waiting for the next gossip round.
  void OnRejoin() override;

  /// Read access for tests and examples.
  const AdCache& cache() const { return cache_; }
  const GossipOptions& options() const { return options_; }
  const InterestProfile& interests() const { return interests_; }

  /// Number of times this peer postponed a scheduled gossip (Opt-2).
  uint64_t postpone_count() const { return postpone_count_; }

  /// Number of distinct ads *displayed* to this user. Section I: "users
  /// may choose not to display an advertisement of no interest ... but
  /// they have to take part in relaying and maintaining" — so display is a
  /// UI filter, not a protocol one: a peer with an interest profile shows
  /// only matching ads (and relays everything); a peer with an empty
  /// profile shows everything.
  uint64_t displayed_count() const { return displayed_count_; }

 protected:
  void OnReceive(const net::Packet& packet, net::NodeId from) override;

 private:
  /// Forwarding probability for `ad` at this peer's current position and
  /// the current time (Formula 1, or Formula 3 when Optimization 1 is
  /// active and the ad is past its bootstrap phase).
  double ProbabilityFor(const Advertisement& ad) const;

  /// Recomputes every cache entry's probability and drops expired ads
  /// (cancelling their timers).
  void RefreshCache();

  /// Global round (no Optimization 2): broadcast each entry w.p. P, then
  /// re-arm for the next tick if the cache still holds an ad.
  void GossipRound();

  /// Schedules the global round at the series' next tick not before Now(),
  /// unless one is already pending. Only the path without Optimization 2
  /// has a global round.
  void ArmRound();

  /// Per-entry timer fired (Optimization 2 path).
  void EntryTimerFired(uint64_t key);

  /// (Re)schedules an entry's timer at entry->next_gossip_time.
  void ScheduleEntry(uint64_t key, CacheEntry* entry);

  /// Inserts a received/issued ad into the cache, handling eviction and
  /// timer bookkeeping. Returns the entry or nullptr if it lost eviction.
  CacheEntry* InsertAd(Advertisement ad, double initial_probability);

  /// Hop count to stamp on an outgoing broadcast of `key`: this peer's
  /// first-receipt hop + 1 (the issuer's own copy is hop 0, so its seed
  /// broadcast carries hop 1). See Packet::hop / the deliver trace.
  uint32_t RebroadcastHop(uint64_t key) const;

  GossipOptions options_;
  InterestProfile interests_;
  AdCache cache_;
  /// Next tick of the global round series (phase + k * round_time), and
  /// the pending round event, if any. The round is pending only while the
  /// cache holds an ad: a round over an empty cache draws no random
  /// numbers and sends nothing, so skipping it changes no behaviour.
  Time next_round_ = 0.0;
  sim::EventId round_event_ = sim::kInvalidEventId;
  uint64_t postpone_count_ = 0;
  uint64_t displayed_count_ = 0;
  /// Ads ever seen with their first-receipt hop (0 for ads this peer
  /// issued), scanned linearly: a peer sees few distinct ads. Receipt
  /// metrics, the deliver trace, and the ranking step fire once per ad even
  /// if it was evicted and re-received; the hop also stamps rebroadcasts.
  struct SeenAd {
    uint64_t key;
    uint32_t hop;
  };
  std::vector<SeenAd> seen_hop_;
};

}  // namespace madnet::core

#endif  // MADNET_CORE_OPPORTUNISTIC_GOSSIP_H_
