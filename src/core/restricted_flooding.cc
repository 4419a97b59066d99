// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/restricted_flooding.h"

namespace madnet::core {

namespace {
/// Marks `round` in the relayed-round bitmap; false if it already was.
bool MarkRelayed(std::vector<uint64_t>* rounds, uint32_t round) {
  const size_t word = round / 64;
  if (word >= rounds->size()) rounds->resize(word + 1, 0);
  const uint64_t bit = uint64_t{1} << (round % 64);
  if (((*rounds)[word] & bit) != 0) return false;
  (*rounds)[word] |= bit;
  return true;
}
}  // namespace

RestrictedFlooding::AdRecord* RestrictedFlooding::FindRecord(uint64_t key) {
  for (AdRecord& record : records_) {
    if (record.key == key) return &record;
  }
  return nullptr;
}

RestrictedFlooding::RestrictedFlooding(ProtocolContext context,
                                       const Options& options)
    : Protocol(std::move(context)), options_(options) {}

StatusOr<AdId> RestrictedFlooding::Issue(const AdContent& content,
                                         double radius_m, double duration_s) {
  Advertisement ad = MakeAdvertisement(content, radius_m, duration_s, {});
  const AdId id = ad.id;
  const uint64_t key = id.Key();
  records_.push_back({key, 0, {}});  // The issuer's own copy is hop 0.
  IssuingState& state = issuing_[key];
  state.ad = std::move(ad);
  // First broadcast immediately, then every round until expiry. The issuer
  // must stay online throughout (the structural weakness the gossip model
  // removes).
  state.timer = context_.simulator->SchedulePeriodic(
      0.0, options_.round_time_s,
      [this, key]() { return IssuerRound(key); });
  return id;
}

bool RestrictedFlooding::IssuerRound(uint64_t key) {
  auto it = issuing_.find(key);
  if (it == issuing_.end()) return false;
  IssuingState& state = it->second;
  const Time age = state.ad.AgeAt(Now());
  const double radius_limit = RadiusAtAge(state.ad.radius_m,
                                          state.ad.duration_s, age,
                                          options_.propagation);
  if (radius_limit <= 0.0) {
    // Expired: stop the series and forget the ad.
    issuing_.erase(it);
    return false;
  }
  ++state.round;
  // The issuer implicitly "relays" its own frame this round.
  MarkRelayed(&FindRecord(key)->relayed_rounds, state.round);
  net::Packet packet = MakeFloodPacket(state.ad, state.round, radius_limit);
  packet.hop = 1;  // Issuer frames deliver direct neighbours at hop 1.
  Broadcast(packet);
  return true;
}

void RestrictedFlooding::OnReceive(const net::Packet& packet,
                                   net::NodeId from) {
  const auto* message = dynamic_cast<const FloodMessage*>(packet.payload.get());
  if (message == nullptr) return;  // Not a flooding frame.

  const uint64_t ad_key = message->ad.id.Key();
  AdRecord* record = FindRecord(ad_key);
  if (record == nullptr) {
    // Only the first receipt can be the earliest one the log keeps; the
    // issuer's own copy (hop 0 from Issue) is never logged.
    record = &records_.emplace_back(AdRecord{ad_key, packet.hop, {}});
    RecordReceipt(ad_key);
    TraceDeliver(ad_key, packet.hop, from);
  }

  if (!MarkRelayed(&record->relayed_rounds, message->round)) return;

  // Relay only while inside the issuer-declared radius limit.
  const double distance = Distance(Position(), message->ad.issue_location);
  if (distance > message->radius_limit) return;

  const double jitter =
      context_.rng.Uniform(0.0, options_.relay_jitter_max_s);
  // Copy the packet by value; the payload is shared and immutable. The
  // relayed frame's hop count derives from *this* node's first receipt,
  // so every deliver record satisfies hop == parent's hop + 1 even when
  // a later round reaches us over a shorter path.
  net::Packet copy = packet;
  copy.hop = record->first_hop + 1;
  context_.simulator->Schedule(jitter,
                               [this, copy]() { Broadcast(copy); });
}

}  // namespace madnet::core
