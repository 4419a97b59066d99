// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/opportunistic_gossip.h"

#include <algorithm>
#include <cassert>

#include "util/geometry.h"

namespace madnet::core {

OpportunisticGossip::OpportunisticGossip(ProtocolContext context,
                                         const GossipOptions& options,
                                         InterestProfile interests)
    : Protocol(std::move(context)),
      options_(options),
      interests_(std::move(interests)),
      cache_(options.cache_capacity) {
  assert(options.propagation.Valid());
  assert(options.round_time_s > 0.0);
}

void OpportunisticGossip::Start() {
  Protocol::Start();
  if (options_.dis_m <= 0.0) {
    // Auto: the velocity constraint's minimum annulus width.
    options_.dis_m = std::max(
        VelocityConstrainedDis(context_.medium->options().max_speed_mps,
                               options_.round_time_s),
        1.0);
  }
  if (!options_.postpone) {
    // One global round series, randomly phased: "all peers work
    // asynchronously". ArmRound() schedules its ticks while the cache
    // holds an ad.
    next_round_ = Now() + context_.rng.Uniform(0.0, options_.round_time_s);
  }
}

StatusOr<AdId> OpportunisticGossip::Issue(const AdContent& content,
                                          double radius_m,
                                          double duration_s) {
  Advertisement ad = MakeAdvertisement(content, radius_m, duration_s,
                                       options_.sketch_options);
  const AdId id = ad.id;
  seen_hop_.push_back({id.Key(), 0});  // The issuer's own copy is hop 0.
  net::Packet packet = MakeGossipPacket(ad);
  packet.hop = RebroadcastHop(id.Key());
  InsertAd(std::move(ad), 1.0);
  // Seed the neighbourhood once; from here the network maintains the ad
  // and this issuer may go offline.
  Broadcast(packet);
  return id;
}

void OpportunisticGossip::OnCrash() {
  // Simulator::Cancel is a no-op on sim::kInvalidEventId.
  cache_.RemoveIf([this](uint64_t, CacheEntry& entry) {
    context_.simulator->Cancel(entry.timer);
    return true;
  });
  context_.simulator->Cancel(round_event_);
  round_event_ = sim::kInvalidEventId;
}

void OpportunisticGossip::OnRejoin() {
  // Expired entries are pruned rather than re-announced; survivors go out
  // immediately. ForEach iterates the cache in its (deterministic)
  // internal order, same as GossipRound.
  RefreshCache();
  cache_.ForEach([this](uint64_t key, CacheEntry& entry) {
    net::Packet packet = MakeGossipPacket(entry.ad);
    packet.hop = RebroadcastHop(key);
    Broadcast(packet);
  });
}

double OpportunisticGossip::ProbabilityFor(const Advertisement& ad) const {
  const Time age = ad.AgeAt(context_.simulator->Now());
  const double radius_t =
      RadiusAtAge(ad.radius_m, ad.duration_s, age, options_.propagation);
  const double distance =
      Distance(context_.medium->PositionOf(context_.self), ad.issue_location);
  if (options_.annulus && age > options_.bootstrap_age_s) {
    return AnnulusForwardingProbability(distance, radius_t, options_.dis_m,
                                        options_.propagation);
  }
  return ForwardingProbability(distance, radius_t, options_.propagation);
}

void OpportunisticGossip::RefreshCache() {
  const Time now = Now();
  cache_.RemoveIf([this, now](uint64_t, CacheEntry& entry) {
    if (entry.ad.ExpiredAt(now)) {
      context_.simulator->Cancel(entry.timer);
      return true;
    }
    entry.probability = ProbabilityFor(entry.ad);
    return false;
  });
}

void OpportunisticGossip::GossipRound() {
  round_event_ = sim::kInvalidEventId;
  next_round_ = Now() + options_.round_time_s;
  // Algorithm 2: refresh all entries' probabilities, then broadcast each
  // entry with its probability.
  RefreshCache();
  cache_.ForEach([this](uint64_t key, CacheEntry& entry) {
    if (context_.rng.Bernoulli(entry.probability)) {
      net::Packet packet = MakeGossipPacket(entry.ad);
      packet.hop = RebroadcastHop(key);
      Broadcast(packet);
    } else if (context_.trace != nullptr &&
               context_.trace->Enabled(obs::kTraceSuppress)) {
      context_.trace->Suppress(Now(), context_.self, key, "bernoulli",
                               entry.probability);
    }
  });
  // Expiry may have emptied the cache: then the peer goes dormant until
  // the next insertion re-arms it on the same series.
  if (cache_.Size() > 0) ArmRound();
}

void OpportunisticGossip::ArmRound() {
  if (round_event_ != sim::kInvalidEventId) return;
  // Catch the series up by repeated addition, so every tick is the double
  // t_{k+1} = t_k + round that a periodic series with this phase yields.
  // A tick at exactly Now() is kept: that round runs later in this
  // instant, after the current event. Such a tie needs a receipt or an
  // issue to land on a random-phase tick, so it has probability zero.
  const Time now = Now();
  while (next_round_ < now) next_round_ += options_.round_time_s;
  round_event_ = context_.simulator->ScheduleAt(next_round_,
                                                [this]() { GossipRound(); });
}

void OpportunisticGossip::ScheduleEntry(uint64_t key, CacheEntry* entry) {
  context_.simulator->Cancel(entry->timer);  // No-op if none is pending.
  entry->timer = context_.simulator->ScheduleAt(
      entry->next_gossip_time, [this, key]() { EntryTimerFired(key); });
}

void OpportunisticGossip::EntryTimerFired(uint64_t key) {
  CacheEntry* entry = cache_.Find(key);
  if (entry == nullptr) return;  // Raced with eviction; timer was stale.
  entry->timer = sim::kInvalidEventId;
  const Time now = Now();
  if (entry->ad.ExpiredAt(now)) {
    cache_.Erase(key);
    return;
  }
  // Algorithm 4: refresh this entry's probability, broadcast with it, and
  // schedule the next round for this entry.
  entry->probability = ProbabilityFor(entry->ad);
  if (context_.rng.Bernoulli(entry->probability)) {
    net::Packet packet = MakeGossipPacket(entry->ad);
    packet.hop = RebroadcastHop(key);
    Broadcast(packet);
  } else if (context_.trace != nullptr &&
             context_.trace->Enabled(obs::kTraceSuppress)) {
    context_.trace->Suppress(now, context_.self, key, "bernoulli",
                             entry->probability);
  }
  entry->next_gossip_time = now + options_.round_time_s;
  ScheduleEntry(key, entry);
}

uint32_t OpportunisticGossip::RebroadcastHop(uint64_t key) const {
  for (const SeenAd& seen : seen_hop_) {
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
  if (cache_.Full()) RefreshCache();
  CacheEntry entry;
  entry.ad = std::move(ad);
  entry.probability = initial_probability;
  // First gossip of a fresh entry happens within one round, randomly
  // phased (Opt-2 path; without Opt-2 the global round covers it).
  entry.next_gossip_time =
      Now() + context_.rng.Uniform(0.0, options_.round_time_s);

  sim::EventId evicted_timer = sim::kInvalidEventId;
  CacheEntry* inserted = cache_.Insert(std::move(entry), &evicted_timer);
  context_.simulator->Cancel(evicted_timer);
  if (inserted != nullptr) {
    if (options_.postpone) {
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
  const bool first_sight =
      std::none_of(seen_hop_.begin(), seen_hop_.end(),
                   [key](const SeenAd& seen) { return seen.key == key; });
  if (first_sight) {
    seen_hop_.push_back({key, packet.hop});
    RecordReceipt(key);
    TraceDeliver(key, packet.hop, from);
    // Display filter (UI-level, Section I): show the ad if the user has no
    // interest filter, or if it matches. Relaying below is unconditional.
    if (interests_.Size() == 0 || interests_.Matches(message->ad.content)) {
      ++displayed_count_;
    }
  }

  CacheEntry* entry = cache_.Find(key);
  if (entry != nullptr) {
    // Duplicate: merge any enlargement/sketch updates, then (Opt-2)
    // postpone our own scheduled gossip of this ad.
    entry->ad.MergeFrom(message->ad);
    if (context_.trace != nullptr &&
        context_.trace->Enabled(obs::kTraceSketch)) {
      context_.trace->SketchMerge(Now(), context_.self, key);
    }
    if (options_.postpone) {
      const Vec2 self_position = Position();
      const Vec2 sender_position = context_.medium->PositionOf(from);
      const double overlap = TransmissionOverlapFraction(
          context_.medium->options().range_m,
          Distance(self_position, sender_position));
      const double angle =
          ApproachAngle(Velocity(), self_position, sender_position);
      const double interval =
          PostponeInterval(options_.round_time_s, overlap, angle);
      if (interval > 0.0) {
        entry->next_gossip_time += interval;
        ++postpone_count_;
        if (context_.trace != nullptr &&
            context_.trace->Enabled(obs::kTraceSuppress)) {
          context_.trace->Suppress(Now(), context_.self, key, "postpone",
                                   interval);
        }
        ScheduleEntry(key, entry);
      }
    }
    return;
  }

  // Stale frame still in flight: drop it before copying the content and
  // sketches.
  if (message->ad.ExpiredAt(Now())) return;
  Advertisement ad = message->ad;
  if (options_.ranking && first_sight) {
    // Algorithm 5: count this user's interest and enlarge R/D if the rank
    // rose. Guarded by first_sight so an evicted-then-re-received ad is
    // not enlarged twice by the same peer.
    RankAndEnlarge(&ad, interests_, context_.self, options_.ranking_options);
  }
  const double probability = ProbabilityFor(ad);
  InsertAd(std::move(ad), probability);
}

}  // namespace madnet::core
