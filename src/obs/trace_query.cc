// Copyright (c) 2026 madnet authors. All rights reserved.

#include "obs/trace_query.h"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace madnet::obs {
namespace {

/// Issuer encoded in an AdId::Key() (issuer << 32 | sequence).
uint32_t IssuerOf(uint64_t ad_key) {
  return static_cast<uint32_t>(ad_key >> 32);
}

/// Nearest-rank quantile of an ascending-sorted vector.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  const size_t rank = static_cast<size_t>(
      std::min<double>(std::ceil(q * static_cast<double>(sorted.size())),
                       static_cast<double>(sorted.size())));
  return sorted[rank - 1];
}

}  // namespace

const DeliveryRecord* AdTree::FindDelivery(uint32_t node) const {
  const auto it = delivery_index.find(node);
  return it == delivery_index.end() ? nullptr : &deliveries[it->second];
}

Status DisseminationForest::Add(const TraceEvent& event) {
  if (event.cat == "run") {
    runs_.push_back(RunForest{event.seed, {}});
    tx_time_by_seq_.clear();
    return Status::Ok();
  }
  if (event.cat != "tx" && event.cat != "rx" && event.cat != "deliver") {
    return Status::Ok();  // Not a provenance record.
  }
  if (runs_.empty()) {
    return Status::InvalidArgument(
        "provenance record before any \"run\" header");
  }
  RunForest& run = runs_.back();

  if (event.cat == "tx") {
    if (event.seq != 0) tx_time_by_seq_.emplace(event.seq, event.t);
    return Status::Ok();
  }
  if (event.cat == "rx") {
    if (event.ad != 0) {
      AdTree& tree = run.ads[event.ad];
      tree.ad_key = event.ad;
      tree.issuer = IssuerOf(event.ad);
      tree.rx_frames += 1;
    }
    return Status::Ok();
  }

  // --- deliver ---
  if (event.ad == 0) {
    return Status::InvalidArgument("deliver record without ad key");
  }
  if (event.hop == 0) {
    return Status::InvalidArgument(
        "deliver record with hop 0 (the issuer's own copy is never "
        "delivered)");
  }
  AdTree& tree = run.ads[event.ad];
  tree.ad_key = event.ad;
  tree.issuer = IssuerOf(event.ad);
  if (event.node == tree.issuer) {
    return Status::InvalidArgument("deliver record back to the issuer");
  }
  if (tree.delivery_index.count(event.node) != 0) {
    return Status::InvalidArgument("duplicate deliver for one (node, ad)");
  }
  if (event.parent == tree.issuer) {
    if (event.hop != 1) {
      return Status::InvalidArgument(
          "deliver direct from the issuer must be hop 1");
    }
  } else {
    const DeliveryRecord* parent = tree.FindDelivery(event.parent);
    if (parent == nullptr) {
      return Status::InvalidArgument(
          "deliver parent has no earlier deliver record (parent-before-"
          "child violated)");
    }
    if (event.hop != parent->hop + 1) {
      return Status::InvalidArgument(
          "deliver hop is not parent's hop + 1 (hop monotonicity "
          "violated)");
    }
  }
  if (!tree.has_origin_tx) {
    if (event.hop == 1) {
      // The hop-1 delivering frame is the issuer's seed broadcast: its tx
      // time is the ad's true injection time.
      const auto tx = tx_time_by_seq_.find(event.seq);
      if (tx != tx_time_by_seq_.end()) {
        tree.origin_t = tx->second;
        tree.has_origin_tx = true;
      }
    }
    if (!tree.has_origin_tx && tree.deliveries.empty()) {
      tree.origin_t = event.t;  // Fallback: relative latencies.
    }
  }
  tree.delivery_index.emplace(event.node, tree.deliveries.size());
  tree.deliveries.push_back(
      DeliveryRecord{event.t, event.node, event.parent, event.hop,
                     event.seq});
  if (event.hop > tree.max_hop) tree.max_hop = event.hop;
  return Status::Ok();
}

Status DisseminationForest::AddFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string line;
  uint64_t line_number = 0;
  TraceEvent event;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    Status status = ParseTraceLine(line, &event);
    if (status.ok()) status = Add(event);
    if (!status.ok()) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) + ": " +
                                     status.ToString());
    }
  }
  if (in.bad()) return Status::Internal("read failure on " + path);
  return Status::Ok();
}

ForestStats DisseminationForest::Summarize() const {
  ForestStats stats;
  stats.runs = runs_.size();
  std::vector<double> latencies;
  for (const RunForest& run : runs_) {
    stats.ads += run.ads.size();
    for (const auto& [key, tree] : run.ads) {
      stats.deliveries += tree.deliveries.size();
      stats.rx_frames += tree.rx_frames;
      for (const DeliveryRecord& delivery : tree.deliveries) {
        stats.hop_histogram[delivery.hop] += 1;
        latencies.push_back(delivery.t - tree.origin_t);
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());
  stats.latency_p50 = SortedQuantile(latencies, 0.50);
  stats.latency_p99 = SortedQuantile(latencies, 0.99);
  if (!latencies.empty()) {
    double sum = 0.0;
    for (double latency : latencies) sum += latency;
    stats.latency_mean = sum / static_cast<double>(latencies.size());
  }
  if (stats.deliveries > 0) {
    stats.redundancy_ratio = static_cast<double>(stats.rx_frames) /
                             static_cast<double>(stats.deliveries);
  }
  return stats;
}

std::string DisseminationForest::ReportJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("runs");
  json.BeginArray();
  std::vector<double> latencies;
  for (const RunForest& run : runs_) {
    json.BeginObject();
    json.Key("seed");
    json.Value(run.seed);
    json.Key("ads");
    json.BeginArray();
    for (const auto& [key, tree] : run.ads) {
      latencies.clear();
      latencies.reserve(tree.deliveries.size());
      for (const DeliveryRecord& delivery : tree.deliveries) {
        latencies.push_back(delivery.t - tree.origin_t);
      }
      std::sort(latencies.begin(), latencies.end());
      json.BeginObject();
      json.Key("ad");
      json.Value(key);
      json.Key("issuer");
      json.Value(static_cast<uint64_t>(tree.issuer));
      json.Key("deliveries");
      json.Value(static_cast<uint64_t>(tree.deliveries.size()));
      json.Key("max_hop");
      json.Value(static_cast<uint64_t>(tree.max_hop));
      json.Key("rx_frames");
      json.Value(tree.rx_frames);
      json.Key("origin_from_tx");
      json.Value(tree.has_origin_tx);
      json.Key("latency_p50");
      json.Value(SortedQuantile(latencies, 0.50));
      json.Key("latency_p99");
      json.Value(SortedQuantile(latencies, 0.99));
      // Coverage over time: the latency by which 25/50/75/90% of the
      // ad's eventual receivers had it.
      json.Key("t25");
      json.Value(SortedQuantile(latencies, 0.25));
      json.Key("t50");
      json.Value(SortedQuantile(latencies, 0.50));
      json.Key("t75");
      json.Value(SortedQuantile(latencies, 0.75));
      json.Key("t90");
      json.Value(SortedQuantile(latencies, 0.90));
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  const ForestStats stats = Summarize();
  json.Key("summary");
  json.BeginObject();
  json.Key("runs");
  json.Value(stats.runs);
  json.Key("ads");
  json.Value(stats.ads);
  json.Key("deliveries");
  json.Value(stats.deliveries);
  json.Key("rx_frames");
  json.Value(stats.rx_frames);
  json.Key("latency_p50");
  json.Value(stats.latency_p50);
  json.Key("latency_p99");
  json.Value(stats.latency_p99);
  json.Key("latency_mean");
  json.Value(stats.latency_mean);
  json.Key("redundancy_ratio");
  json.Value(stats.redundancy_ratio);
  json.Key("hops");
  json.BeginObject();
  for (const auto& [hop, count] : stats.hop_histogram) {
    json.Key(std::to_string(hop));
    json.Value(count);
  }
  json.EndObject();
  json.EndObject();
  json.EndObject();
  return json.TakeString();
}

}  // namespace madnet::obs
