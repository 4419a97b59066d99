// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/resource_exchange.h"

#include <algorithm>

#include "util/logging.h"

namespace madnet::core {

ResourceExchange::ResourceExchange(ProtocolContext context,
                                   std::shared_ptr<const Options> options)
    : Protocol(std::move(context)), options_(std::move(options)) {
  MADNET_DCHECK(options_->beacon_interval_s > 0.0);
  MADNET_DCHECK(options_->memory_capacity >= 1);
  MADNET_DCHECK(options_->age_weight >= 0.0 &&
                options_->distance_weight >= 0.0);
}

ResourceExchange::ResourceExchange(ProtocolContext context,
                                   const Options& options)
    : ResourceExchange(std::move(context),
                       std::make_shared<const Options>(options)) {}

void ResourceExchange::Start() {
  Protocol::Start();
  beacon_.payload = std::make_shared<BeaconMessage>();
  beacon_.size_bytes = 16;  // Node id + position.
  // Random phase so beacons across the network do not synchronize.
  const double phase = rng_.Uniform(0.0, options_->beacon_interval_s);
  simulator()->Schedule(phase, [this]() { BeaconTick(); });
}

StatusOr<AdId> ResourceExchange::Issue(const AdContent& content,
                                       double radius_m, double duration_s) {
  Advertisement ad = MakeAdvertisement(content, radius_m, duration_s, {});
  const AdId id = ad.id;
  first_hop_.emplace(id.Key(), 0);  // The issuer's own copy is hop 0.
  Store(ad);
  return id;
}

void ResourceExchange::OnCrash() {
  memory_.clear();
  last_heard_.clear();
}

double ResourceExchange::Relevance(const Advertisement& ad,
                                   const Vec2& position, Time now,
                                   const Options& options) {
  const double age_fraction =
      ad.duration_s > 0.0 ? ad.AgeAt(now) / ad.duration_s : 1.0;
  const double distance_fraction =
      ad.radius_m > 0.0 ? Distance(position, ad.issue_location) / ad.radius_m
                        : 1.0;
  const double relevance = 1.0 - options.age_weight * age_fraction -
                           options.distance_weight * distance_fraction;
  return std::clamp(relevance, 0.0, 1.0);
}

void ResourceExchange::Prune() {
  const Time now = Now();
  const Vec2 here = Position();
  for (auto it = memory_.begin(); it != memory_.end();) {
    if (it->second.ExpiredAt(now) ||
        Relevance(it->second, here, now, *options_) <= 0.0) {
      it = memory_.erase(it);
    } else {
      ++it;
    }
  }
}

void ResourceExchange::Store(const Advertisement& ad) {
  auto existing = memory_.find(ad.id.Key());
  if (existing != memory_.end()) {
    existing->second.MergeFrom(ad);
    return;
  }
  if (ad.ExpiredAt(Now())) return;
  if (memory_.size() >= options_->memory_capacity) {
    // Evict the least relevant resource if the newcomer beats it.
    const Time now = Now();
    const Vec2 here = Position();
    auto victim = memory_.end();
    double victim_relevance = 2.0;
    for (auto it = memory_.begin(); it != memory_.end(); ++it) {
      const double relevance = Relevance(it->second, here, now, *options_);
      if (relevance < victim_relevance) {
        victim_relevance = relevance;
        victim = it;
      }
    }
    if (victim == memory_.end() ||
        Relevance(ad, here, now, *options_) <= victim_relevance) {
      return;  // Newcomer is the least relevant: not stored.
    }
    memory_.erase(victim);
  }
  memory_.emplace(ad.id.Key(), ad);
}

void ResourceExchange::BeaconTick() {
  Prune();
  Broadcast(beacon_);
  ++beacons_sent_;
  simulator()->Schedule(options_->beacon_interval_s,
                        [this]() { BeaconTick(); });
}

void ResourceExchange::OnEncounter(net::NodeId from) {
  // The beacon spent 0.5–2 ms in flight; under churn its sender can have
  // crashed meanwhile. Abort the encounter without consuming it (no
  // last_heard_ entry), so a batch is never addressed at a dead peer and
  // the encounter re-fires on the peer's first beacon after rejoining.
  if (!medium_->IsOnline(from)) return;
  const Time now = Now();
  auto it = last_heard_.find(from);
  if (it != last_heard_.end()) {
    const bool is_new_encounter =
        now - it->second > options_->encounter_timeout_s;
    it->second = now;
    if (!is_new_encounter) return;
  }

  Prune();
  if (memory_.empty()) {
    // Nothing to share yet: do not consume the encounter, so the exchange
    // happens at the next beacon once this peer has resources (e.g. the
    // ones the neighbour is about to send it). A first encounter never
    // inserts, so an empty memory costs no allocation per beacon heard.
    if (it != last_heard_.end()) last_heard_.erase(it);
    return;
  }
  if (it == last_heard_.end()) last_heard_.emplace(from, now);

  // Send our most relevant resources, best first, as one batch frame.
  std::vector<const Advertisement*> ranked;
  ranked.reserve(memory_.size());
  // The collected pointers are immediately re-sorted below under a total
  // order (relevance desc, then key asc), so hash order cannot leak out.
  // NOLINTNEXTLINE(madnet-unordered-iteration): order-independent fold.
  for (const auto& [key, ad] : memory_) ranked.push_back(&ad);
  const Vec2 here = Position();
  std::sort(ranked.begin(), ranked.end(),
            [&](const Advertisement* a, const Advertisement* b) {
              const double ra = Relevance(*a, here, now, *options_);
              const double rb = Relevance(*b, here, now, *options_);
              if (ra != rb) return ra > rb;
              return a->id.Key() < b->id.Key();  // Deterministic ties.
            });
  if (ranked.size() > options_->exchange_batch) {
    ranked.resize(options_->exchange_batch);
  }

  std::vector<Advertisement> batch;
  std::vector<uint32_t> hops;
  batch.reserve(ranked.size());
  hops.reserve(ranked.size());
  uint32_t bytes = 8;  // Batch header.
  for (const Advertisement* ad : ranked) {
    batch.push_back(*ad);
    // Per-ad provenance: the receiver gets ads[i] one hop beyond our own
    // first receipt of it (0 if we issued it).
    const auto hop_it = first_hop_.find(ad->id.Key());
    hops.push_back(hop_it != first_hop_.end() ? hop_it->second + 1 : 1);
    bytes += ad->WireSizeBytes();
  }
  net::Packet packet;
  packet.payload =
      std::make_shared<ExchangeMessage>(std::move(batch), std::move(hops));
  packet.size_bytes = bytes;
  Broadcast(packet);
  ++exchanges_sent_;
}

void ResourceExchange::OnReceive(const net::Packet& packet,
                                 net::NodeId from) {
  if (dynamic_cast<const BeaconMessage*>(packet.payload.get()) != nullptr) {
    OnEncounter(from);
    return;
  }
  const auto* exchange =
      dynamic_cast<const ExchangeMessage*>(packet.payload.get());
  if (exchange == nullptr) return;  // Not ours.
  for (size_t i = 0; i < exchange->ads.size(); ++i) {
    const Advertisement& ad = exchange->ads[i];
    const uint64_t ad_key = ad.id.Key();
    RecordReceipt(ad_key);
    const uint32_t hop = i < exchange->hops.size() ? exchange->hops[i] : 1;
    if (first_hop_.try_emplace(ad_key, hop).second) {
      TraceDeliver(ad_key, hop, from);
    }
    Store(ad);
  }
  // Deliberately do NOT refresh the encounter clock on data frames: the
  // exchange must be mutual, so hearing B's batch (triggered by our own
  // beacon) must not stop us from sending ours when B's beacon arrives.
}

}  // namespace madnet::core
