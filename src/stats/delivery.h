// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The paper's three evaluation metrics (Section IV):
//
//   Delivery Rate  — fraction of peers that received the advertisement
//                    among peers that passed through the advertising area
//                    during the ad's life cycle.
//   Delivery Time  — per delivered peer, time from entering the advertising
//                    area until receiving the ad (zero if the peer already
//                    carried it when entering).
//   Messages       — total broadcast frames, read from MediumStats.
//
// AreaTracker computes exact per-peer transit intervals analytically from
// the mobility legs (no sampling error); DeliveryLog records first receipt
// per (ad, peer); ComputeDeliveryReport combines them.

#ifndef MADNET_STATS_DELIVERY_H_
#define MADNET_STATS_DELIVERY_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/receipt_sink.h"
#include "mobility/mobility_model.h"
#include "net/packet.h"
#include "stats/summary.h"
#include "util/geometry.h"

namespace madnet::stats {

using mobility::MobilityModel;
using net::NodeId;
using sim::Time;

/// Key identifying one advertisement across the metrics pipeline (the
/// protocols use issuer-id << 32 | sequence; see core/advertisement.h).
using AdKey = uint64_t;

/// A peer's passage(s) through an advertising area during a time window.
struct Transit {
  /// Transit intervals, clipped to the observation window, time-ordered.
  std::vector<CrossingInterval> intervals;

  /// True iff the peer was inside the area at some point in the window.
  bool Passed() const { return !intervals.empty(); }

  /// First instant inside (requires Passed()).
  Time FirstEnter() const { return intervals.front().enter; }

  /// Last instant inside (requires Passed()).
  Time LastExit() const { return intervals.back().exit; }
};

/// Computes exact advertising-area transits for a set of peers.
class AreaTracker {
 public:
  /// Tracks passage through `area` during [window_start, window_end] — the
  /// advertising area over the ad's life cycle. The area radius is the
  /// *initial* advertising radius R; the late-life shrink of R_t only
  /// matters in the final moments before expiry (see DESIGN.md).
  AreaTracker(const Circle& area, Time window_start, Time window_end);

  /// Computes the transit of `id` moving along `mobility`, and stores it
  /// if the peer passed through the area. Observe each peer once.
  void Observe(NodeId id, MobilityModel* mobility);

  /// The transit of a peer that passed; nullptr if it never entered the
  /// area in the window, or was never observed.
  const Transit* TransitOf(NodeId id) const;

  /// Number of observed peers that passed through the area.
  size_t PassedCount() const { return transits_.size(); }

  /// Number of peers observed, passers or not.
  size_t ObservedCount() const { return observed_count_; }

  /// The transits of the peers that passed, keyed by peer, in ascending id
  /// order. A peer that never entered has no entry: in a city-sized run
  /// that is almost every peer. Ordered on purpose: ComputeDeliveryReport
  /// folds floating-point sums over this map, and aggregation paths must
  /// iterate deterministically (see docs/STATIC_ANALYSIS.md, rule
  /// madnet-unordered-iteration).
  const std::map<NodeId, Transit>& transits() const { return transits_; }

  const Circle& area() const { return area_; }
  Time window_start() const { return window_start_; }
  Time window_end() const { return window_end_; }

 private:
  Circle area_;
  Time window_start_;
  Time window_end_;
  std::map<NodeId, Transit> transits_;  // Passers only.
  size_t observed_count_ = 0;
};

/// Records the first time each peer received each advertisement. Implements
/// core::ReceiptSink so protocols can report receipts without src/core
/// depending on src/stats (see core/receipt_sink.h).
class DeliveryLog : public core::ReceiptSink {
 public:
  /// Records a receipt; keeps only the earliest per (ad, peer).
  void RecordReceipt(AdKey ad, NodeId peer, Time when) override;

  /// First receipt time, or negative if the peer never received the ad.
  Time FirstReceipt(AdKey ad, NodeId peer) const;

  /// Number of distinct peers that received `ad`.
  size_t ReceiverCount(AdKey ad) const;

 private:
  // Point-queried only (find/size, never iterated), so hashing is safe
  // here and keeps RecordReceipt O(1) on the per-delivery hot path.
  std::unordered_map<AdKey, std::unordered_map<NodeId, Time>> first_receipt_;
};

/// Aggregated per-advertisement results in the paper's terms.
struct DeliveryReport {
  uint64_t peers_passed = 0;     ///< Denominator of Delivery Rate.
  uint64_t peers_delivered = 0;  ///< Numerator of Delivery Rate.
  Summary delivery_times;        ///< Seconds, one sample per delivered peer.

  /// Delivery Rate in percent (100 * delivered / passed); 0 if none passed.
  double DeliveryRatePercent() const {
    if (peers_passed == 0) return 0.0;
    return 100.0 * static_cast<double>(peers_delivered) /
           static_cast<double>(peers_passed);
  }

  /// Mean Delivery Time in seconds over delivered peers.
  double MeanDeliveryTime() const { return delivery_times.Mean(); }
};

/// Combines transits and receipts. A peer counts as *delivered* if it
/// passed through the area and its first receipt is no later than its last
/// exit from the area within the window (receiving after finally leaving
/// cannot help a passing user). Its delivery time is
/// max(0, first_receipt - first_enter): peers that were handed the ad
/// before entering (store & forward) score zero.
DeliveryReport ComputeDeliveryReport(const AreaTracker& tracker,
                                     const DeliveryLog& log, AdKey ad);

}  // namespace madnet::stats

#endif  // MADNET_STATS_DELIVERY_H_
