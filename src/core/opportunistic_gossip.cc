// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/opportunistic_gossip.h"

#include <algorithm>

#include "util/geometry.h"
#include "util/logging.h"

namespace madnet::core {

OpportunisticGossip::OpportunisticGossip(
    ProtocolContext context, std::shared_ptr<const GossipOptions> options,
    InterestProfile interests)
    : Protocol(std::move(context)),
      options_(std::move(options)) {
  MADNET_DCHECK(options_->propagation.Valid());
  MADNET_DCHECK(options_->round_time_s > 0.0);
  if (interests.Size() > 0) {
    interests_ = std::make_unique<const InterestProfile>(std::move(interests));
  }
}

OpportunisticGossip::OpportunisticGossip(ProtocolContext context,
                                         const GossipOptions& options,
                                         InterestProfile interests)
    : OpportunisticGossip(std::move(context),
                          std::make_shared<const GossipOptions>(options),
                          std::move(interests)) {}

const AdCache& OpportunisticGossip::cache() const {
  // Read-only and shared by every idle peer of every run (thread-safe
  // initialization; never mutated).
  static const AdCache kEmpty(1);
  return ads_ != nullptr ? ads_->cache : kEmpty;
}

const InterestProfile& OpportunisticGossip::interests() const {
  static const InterestProfile kNone;
  return interests_ != nullptr ? *interests_ : kNone;
}

OpportunisticGossip::AdState& OpportunisticGossip::Ads() {
  if (ads_ == nullptr) {
    ads_ = std::make_unique<AdState>(options_->cache_capacity);
  }
  return *ads_;
}

void OpportunisticGossip::Start() {
  Protocol::Start();
  if (!options_->postpone) {
    // One global round series, randomly phased: "all peers work
    // asynchronously". ArmRound() schedules its ticks while the cache
    // holds an ad.
    next_round_ = Now() + rng_.Uniform(0.0, options_->round_time_s);
  }
}

StatusOr<AdId> OpportunisticGossip::Issue(const AdContent& content,
                                          double radius_m,
                                          double duration_s) {
  Advertisement ad = MakeAdvertisement(content, radius_m, duration_s,
                                       options_->sketch_options);
  const AdId id = ad.id;
  Ads().seen_hop.push_back({id.Key(), 0});  // The issuer's copy is hop 0.
  net::Packet packet = MakeGossipPacket(ad);
  packet.hop = RebroadcastHop(id.Key());
  InsertAd(std::move(ad), 1.0);
  // Seed the neighbourhood once; from here the network maintains the ad
  // and this issuer may go offline.
  Broadcast(packet);
  return id;
}

void OpportunisticGossip::OnCrash() {
  if (ads_ == nullptr) return;
  // Simulator::Cancel is a no-op on sim::kInvalidEventId.
  ads_->cache.RemoveIf([this](uint64_t, CacheEntry& entry) {
    simulator()->Cancel(entry.timer);
    return true;
  });
  simulator()->Cancel(ads_->round_event);
  ads_->round_event = sim::kInvalidEventId;
}

void OpportunisticGossip::OnRejoin() {
  // Expired entries are pruned rather than re-announced; survivors go out
  // immediately. ForEach iterates the cache in its (deterministic)
  // internal order, same as GossipRound.
  if (ads_ == nullptr) return;
  RefreshCache();
  ads_->cache.ForEach([this](uint64_t key, CacheEntry& entry) {
    net::Packet packet = MakeGossipPacket(entry.ad);
    packet.hop = RebroadcastHop(key);
    Broadcast(packet);
  });
}

double OpportunisticGossip::ProbabilityFor(const Advertisement& ad) const {
  const Time age = ad.AgeAt(Now());
  const double radius_t =
      RadiusAtAge(ad.radius_m, ad.duration_s, age, options_->propagation);
  const double distance = Distance(Position(), ad.issue_location);
  if (options_->annulus && age > options_->bootstrap_age_s) {
    // A width of 0 selects the velocity constraint's minimum.
    const double dis_m =
        options_->dis_m <= 0.0
            ? std::max(VelocityConstrainedDis(medium_->options().max_speed_mps,
                                              options_->round_time_s),
                       1.0)
            : options_->dis_m;
    return AnnulusForwardingProbability(distance, radius_t, dis_m,
                                        options_->propagation);
  }
  return ForwardingProbability(distance, radius_t, options_->propagation);
}

void OpportunisticGossip::RefreshCache() {
  const Time now = Now();
  ads_->cache.RemoveIf([this, now](uint64_t, CacheEntry& entry) {
    if (entry.ad.ExpiredAt(now)) {
      simulator()->Cancel(entry.timer);
      return true;
    }
    entry.probability = ProbabilityFor(entry.ad);
    return false;
  });
}

void OpportunisticGossip::GossipRound() {
  ads_->round_event = sim::kInvalidEventId;
  next_round_ = Now() + options_->round_time_s;
  // Algorithm 2: refresh all entries' probabilities, then broadcast each
  // entry with its probability.
  RefreshCache();
  ads_->cache.ForEach([this](uint64_t key, CacheEntry& entry) {
    if (rng_.Bernoulli(entry.probability)) {
      net::Packet packet = MakeGossipPacket(entry.ad);
      packet.hop = RebroadcastHop(key);
      Broadcast(packet);
    } else if (trace_ != nullptr && trace_->Enabled(obs::kTraceSuppress)) {
      trace_->Suppress(Now(), self_, key, "bernoulli", entry.probability);
    }
  });
  // Expiry may have emptied the cache: then the peer goes dormant until
  // the next insertion re-arms it on the same series.
  if (ads_->cache.Size() > 0) ArmRound();
}

void OpportunisticGossip::ArmRound() {
  if (ads_->round_event != sim::kInvalidEventId) return;
  // Catch the series up by repeated addition, so every tick is the double
  // t_{k+1} = t_k + round that a periodic series with this phase yields.
  // A tick at exactly Now() is kept: that round runs later in this
  // instant, after the current event. Such a tie needs a receipt or an
  // issue to land on a random-phase tick, so it has probability zero.
  const Time now = Now();
  while (next_round_ < now) next_round_ += options_->round_time_s;
  ads_->round_event =
      simulator()->ScheduleAt(next_round_, [this]() { GossipRound(); });
}

void OpportunisticGossip::ScheduleEntry(uint64_t key, CacheEntry* entry) {
  MADNET_DCHECK_EQ(entry->timer, sim::kInvalidEventId);
  entry->timer = simulator()->ScheduleAt(
      entry->next_gossip_time, [this, key]() { EntryTimerFired(key); });
}

void OpportunisticGossip::EntryTimerFired(uint64_t key) {
  CacheEntry* entry = ads_->cache.Find(key);
  if (entry == nullptr) return;  // Raced with eviction; timer was stale.
  entry->timer = sim::kInvalidEventId;
  const Time now = Now();
  if (entry->ad.ExpiredAt(now)) {
    ads_->cache.Erase(key);
    return;
  }
  // Algorithm 4: refresh this entry's probability, broadcast with it, and
  // schedule the next round for this entry.
  entry->probability = ProbabilityFor(entry->ad);
  if (rng_.Bernoulli(entry->probability)) {
    net::Packet packet = MakeGossipPacket(entry->ad);
    packet.hop = RebroadcastHop(key);
    Broadcast(packet);
  } else if (trace_ != nullptr && trace_->Enabled(obs::kTraceSuppress)) {
    trace_->Suppress(now, self_, key, "bernoulli", entry->probability);
  }
  entry->next_gossip_time = now + options_->round_time_s;
  ScheduleEntry(key, entry);
}

uint32_t OpportunisticGossip::RebroadcastHop(uint64_t key) const {
  for (const SeenAd& seen : ads_->seen_hop) {
    if (seen.key == key) return seen.hop + 1;
  }
  // Every cached ad was either issued or received, so the key is always
  // present; the fallback keeps a (hypothetical) miss at hop 1.
  return 1;
}

CacheEntry* OpportunisticGossip::InsertAd(Advertisement ad,
                                          double initial_probability) {
  // Algorithm 1: when the cache is full, refresh all probabilities before
  // choosing the drop victim.
  if (ads_->cache.Full()) RefreshCache();
  CacheEntry entry;
  entry.ad = std::move(ad);
  entry.probability = initial_probability;
  // First gossip of a fresh entry happens within one round, randomly
  // phased (Opt-2 path; without Opt-2 the global round covers it).
  entry.next_gossip_time =
      Now() + rng_.Uniform(0.0, options_->round_time_s);

  sim::EventId evicted_timer = sim::kInvalidEventId;
  CacheEntry* inserted =
      ads_->cache.Insert(std::move(entry), &evicted_timer);
  simulator()->Cancel(evicted_timer);
  if (inserted != nullptr) {
    if (options_->postpone) {
      ScheduleEntry(inserted->ad.id.Key(), inserted);
    } else {
      ArmRound();
    }
  }
  return inserted;
}

void OpportunisticGossip::OnReceive(const net::Packet& packet,
                                    net::NodeId from) {
  const auto* message =
      dynamic_cast<const GossipMessage*>(packet.payload.get());
  if (message == nullptr) return;  // Not a gossip frame.

  const uint64_t key = message->ad.id.Key();
  AdState& ads = Ads();
  // A cached ad was issued or received here, so it is in the seen list:
  // only a cache miss can be a first sight.
  CacheEntry* entry = ads.cache.Find(key);
  const auto seen = [&ads, key]() {
    return std::any_of(ads.seen_hop.begin(), ads.seen_hop.end(),
                       [key](const SeenAd& ad) { return ad.key == key; });
  };
  MADNET_DCHECK(entry == nullptr || seen());
  const bool first_sight = entry == nullptr && !seen();
  if (first_sight) {
    ads.seen_hop.push_back({key, packet.hop});
    RecordReceipt(key);
    TraceDeliver(key, packet.hop, from);
    // Display filter (UI-level, Section I): show the ad if the user has no
    // interest filter, or if it matches. Relaying below is unconditional.
    if (interests_ == nullptr || interests_->Matches(message->ad.content)) {
      ++ads.displayed_count;
    }
  }

  if (entry != nullptr) {
    // Duplicate: merge any enlargement/sketch updates, then (Opt-2)
    // postpone our own scheduled gossip of this ad.
    entry->ad.MergeFrom(message->ad);
    if (trace_ != nullptr && trace_->Enabled(obs::kTraceSketch)) {
      trace_->SketchMerge(Now(), self_, key);
    }
    if (options_->postpone) {
      const Vec2 self_position = Position();
      const Vec2 sender_position = medium_->PositionOf(from);
      const double overlap =
          TransmissionOverlapFraction(medium_->options().range_m,
                                      Distance(self_position, sender_position));
      const double angle =
          ApproachAngle(Velocity(), self_position, sender_position);
      const double interval =
          PostponeInterval(options_->round_time_s, overlap, angle);
      if (interval > 0.0) {
        entry->next_gossip_time += interval;
        ++ads.postpone_count;
        if (trace_ != nullptr && trace_->Enabled(obs::kTraceSuppress)) {
          trace_->Suppress(Now(), self_, key, "postpone", interval);
        }
        // Under Opt-2 every cached entry has its timer pending.
        entry->timer =
            simulator()->Reschedule(entry->timer, entry->next_gossip_time);
        MADNET_DCHECK_NE(entry->timer, sim::kInvalidEventId);
      }
    }
    return;
  }

  // Stale frame still in flight: drop it before copying the content and
  // sketches.
  if (message->ad.ExpiredAt(Now())) return;
  Advertisement ad = message->ad;
  if (options_->ranking && first_sight) {
    // Algorithm 5: count this user's interest and enlarge R/D if the rank
    // rose. Guarded by first_sight so an evicted-then-re-received ad is
    // not enlarged twice by the same peer.
    RankAndEnlarge(&ad, interests(), self_, options_->ranking_options);
  }
  const double probability = ProbabilityFor(ad);
  InsertAd(std::move(ad), probability);
}

}  // namespace madnet::core
