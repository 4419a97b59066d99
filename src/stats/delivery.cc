// Copyright (c) 2026 madnet authors. All rights reserved.

#include "stats/delivery.h"

#include <algorithm>

namespace madnet::stats {

AreaTracker::AreaTracker(const Circle& area, Time window_start,
                         Time window_end)
    : area_(area), window_start_(window_start), window_end_(window_end) {}

void AreaTracker::Observe(NodeId id, MobilityModel* mobility) {
  ++observed_count_;
  Transit transit;
  transit.intervals =
      mobility->CrossingsWithin(area_, window_start_, window_end_);
  if (transit.Passed()) transits_[id] = std::move(transit);
}

const Transit* AreaTracker::TransitOf(NodeId id) const {
  auto it = transits_.find(id);
  return it == transits_.end() ? nullptr : &it->second;
}

void DeliveryLog::RecordReceipt(AdKey ad, NodeId peer, Time when) {
  auto& receipts = first_receipt_[ad];
  auto [it, inserted] = receipts.try_emplace(peer, when);
  if (!inserted) it->second = std::min(it->second, when);
}

Time DeliveryLog::FirstReceipt(AdKey ad, NodeId peer) const {
  auto ad_it = first_receipt_.find(ad);
  if (ad_it == first_receipt_.end()) return -1.0;
  auto peer_it = ad_it->second.find(peer);
  if (peer_it == ad_it->second.end()) return -1.0;
  return peer_it->second;
}

size_t DeliveryLog::ReceiverCount(AdKey ad) const {
  auto it = first_receipt_.find(ad);
  return it == first_receipt_.end() ? 0 : it->second.size();
}

DeliveryReport ComputeDeliveryReport(const AreaTracker& tracker,
                                     const DeliveryLog& log, AdKey ad) {
  DeliveryReport report;
  for (const auto& [peer, transit] : tracker.transits()) {
    ++report.peers_passed;
    const Time receipt = log.FirstReceipt(ad, peer);
    if (receipt < 0.0 || receipt > transit.LastExit()) continue;
    ++report.peers_delivered;
    report.delivery_times.Add(std::max(0.0, receipt - transit.FirstEnter()));
  }
  return report;
}

}  // namespace madnet::stats
