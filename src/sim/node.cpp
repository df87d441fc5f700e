#include "sim/node.hpp"

#include "common/check.hpp"
#include "scenario/registry.hpp"

namespace flexnet {

Node::Node(NodeId id, const SimConfig& config, const TrafficPattern& pattern,
           Rng rng)
    : id_(id), config_(config), pattern_(pattern), rng_(rng) {
  // Reactive traffic offers `load` counting both requests and the replies
  // they spawn, so requests are generated at half the configured load
  // (SIV-B; keeps the injection channel's 1 phit/cycle budget feasible).
  const double request_load = config_.reactive ? config_.load / 2 : config_.load;
  process_ =
      traffic_registry().at(config_.traffic).make.process(config_, request_load);
}

bool Node::generate(Cycle now) {
  if (!process_->step(rng_)) return false;
  // Non-bursty processes report every packet as a new burst, so this is
  // the only destination-refresh rule needed for any registered traffic.
  if (process_->new_burst() || burst_destination_ == kInvalidNode) {
    burst_destination_ = pattern_.destination(id_, rng_);
  }
  source_[static_cast<int>(MsgClass::kRequest)].push_back(
      Queued{burst_destination_, now});
  return true;
}

Packet Node::packet_of(const Queued& q, MsgClass cls) const {
  Packet pkt;
  pkt.src = id_;
  pkt.dst = q.dst;
  pkt.size = config_.effective_packet_phits();
  pkt.cls = cls;
  pkt.created = q.created;
  pkt.vc_position = kInjectionPosition;
  return pkt;
}

bool Node::can_consume(MsgClass cls, Cycle now) const {
  if (consume_busy_until_[static_cast<int>(cls)] > now) return false;
  if (cls == MsgClass::kRequest && config_.reactive) {
    // A request can only be consumed when the reply it triggers has room in
    // the reply source queue (protocol dependency).
    return source_backlog(MsgClass::kReply) <
           config_.reply_queue_capacity;
  }
  return true;
}

Cycle Node::consume(const Packet& pkt, Cycle now) {
  FLEXNET_DCHECK(can_consume(pkt.cls, now));
  // The consumption channel moves one phit per cycle; the router pipeline
  // adds latency but overlaps with the next packet's transfer.
  const Cycle completion = now + config_.pipeline_latency + pkt.size;
  consume_busy_until_[static_cast<int>(pkt.cls)] = now + pkt.size;
  if (consume_spawns_reply(pkt))
    source_[static_cast<int>(MsgClass::kReply)].push_back(
        Queued{pkt.src, completion});
  return completion;
}

}  // namespace flexnet
