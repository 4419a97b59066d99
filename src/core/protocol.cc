// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/protocol.h"

#include "util/logging.h"


namespace madnet::core {

Protocol::Protocol(ProtocolContext context)
    : medium_(context.medium),
      self_(context.self),
      delivery_log_(context.delivery_log),
      trace_(context.trace),
      rng_(context.rng) {
  MADNET_DCHECK(context.simulator != nullptr);
  MADNET_DCHECK(medium_ != nullptr);
  MADNET_DCHECK(context.simulator == medium_->simulator());
  MADNET_DCHECK(self_ != net::kInvalidNodeId);
}

void Protocol::Start() {
  Status status = medium_->SetReceiver(self_, this);
  MADNET_DCHECK(status.ok() && "node must be registered with the medium first");
}

StatusOr<AdId> Protocol::Issue(const AdContent& /*content*/,
                               double /*radius_m*/, double /*duration_s*/) {
  return Status::FailedPrecondition("this protocol cannot issue ads");
}

void Protocol::Broadcast(const net::Packet& packet) {
  (void)medium_->Broadcast(self_, packet);
}

void Protocol::RecordReceipt(uint64_t ad_key) {
  if (delivery_log_ == nullptr) return;
  delivery_log_->RecordReceipt(ad_key, self_, Now());
}

void Protocol::TraceDeliver(uint64_t ad_key, uint32_t hop,
                            net::NodeId parent) {
  if (trace_ == nullptr || !trace_->Enabled(obs::kTraceDeliver)) return;
  trace_->Deliver(Now(), self_, ad_key, hop, medium_->delivering_tx_seq(),
                  parent);
}

Advertisement Protocol::MakeAdvertisement(
    const AdContent& content, double radius_m, double duration_s,
    const sketch::FmSketchArray::Options& sketch_options) {
  Advertisement ad;
  ad.id = AdId{self_, next_sequence_++};
  ad.issue_time = Now();
  ad.issue_location = Position();
  ad.initial_radius_m = radius_m;
  ad.initial_duration_s = duration_s;
  ad.radius_m = radius_m;
  ad.duration_s = duration_s;
  ad.content = content;
  ad.sketches = sketch::FmSketchArray(sketch_options);
  return ad;
}

}  // namespace madnet::core
