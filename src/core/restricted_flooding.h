// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Restricted Flooding — the paper's baseline (Section III-B). The issuer
// re-broadcasts the advertisement every round with the current radius limit
// R_t embedded; every receiver inside the limit relays the frame once per
// round. The issuer must stay online for the whole advertising period, and
// the per-round message count is O(rho * pi * R^2).

#ifndef MADNET_CORE_RESTRICTED_FLOODING_H_
#define MADNET_CORE_RESTRICTED_FLOODING_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/propagation.h"
#include "core/protocol.h"

namespace madnet::core {

/// Baseline flooding protocol, one instance per node. Any node may issue;
/// all nodes relay.
class RestrictedFlooding : public Protocol {
 public:
  struct Options {
    PropagationParams propagation;   ///< beta drives the R_t decay.
    double round_time_s = 5.0;       ///< Issuer broadcast cycle (paper: t).
    double relay_jitter_max_s = 0.2; ///< Relay delay U(0, max), desyncs
                                     ///< neighbouring rebroadcasts.
  };

  /// `options` is shared by every peer of a run and must be non-null.
  RestrictedFlooding(ProtocolContext context,
                     std::shared_ptr<const Options> options);

  /// Convenience form: holds a private shared copy of `options`.
  RestrictedFlooding(ProtocolContext context, const Options& options);

  /// Starts periodic flooding of a new ad from this node (the issuer
  /// role). A node may issue any number of concurrent ads; each floods on
  /// its own cycle until it expires.
  StatusOr<AdId> Issue(const AdContent& content, double radius_m,
                       double duration_s) override;

  /// Number of ads this node is currently flooding.
  size_t ActiveIssues() const { return issuing_.size(); }

 protected:
  void OnReceive(const net::Packet& packet, net::NodeId from) override;

 private:
  struct IssuingState {
    Advertisement ad;
    uint32_t round = 0;
  };

  /// Per-ad receive state, scanned linearly (a node sees few distinct ads):
  /// the first-receipt hop (0 for ads this node issued), which drives the
  /// deliver trace and the hop of relayed frames, and the flood rounds
  /// already relayed as a bitmap (round r is bit r % 64 of word r / 64).
  struct AdRecord {
    uint64_t key;
    uint32_t first_hop;
    std::vector<uint64_t> relayed_rounds;
  };

  /// One issuer broadcast cycle for one ad. Re-arms itself one round
  /// later, after its broadcast, until the ad expires.
  void IssuerRound(uint64_t key);

  /// The record of `key`, or nullptr if this node never saw the ad.
  AdRecord* FindRecord(uint64_t key);

  std::shared_ptr<const Options> options_;  // Shared per run.
  std::unordered_map<uint64_t, IssuingState> issuing_;
  std::vector<AdRecord> records_;  // In first-sight order.
};

}  // namespace madnet::core

#endif  // MADNET_CORE_RESTRICTED_FLOODING_H_
