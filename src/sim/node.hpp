// Computing-node model: traffic generation, bounded-bandwidth injection,
// separate request/reply consumption ports, and reply generation for
// reactive (request-reply) traffic.
#pragma once

#include <memory>

#include "buffers/packet.hpp"
#include "common/event_lane.hpp"
#include "common/rng.hpp"
#include "sim/config.hpp"
#include "traffic/traffic.hpp"

namespace flexnet {

class Node {
 public:
  Node(NodeId id, const SimConfig& config, const TrafficPattern& pattern,
       Rng rng);

  /// Draws this cycle's traffic from the node's own RNG; returns whether a
  /// request joined the source queue (the caller counts it as generated).
  bool generate(Cycle now);

  /// Offers a source-queue head to the router, replies first (they
  /// unblock request consumption at remote nodes): at most one packet per
  /// packet_size cycles, since the injection channel carries one phit per
  /// cycle. `admit(pkt)` returns whether the router took the packet; the
  /// node then pops it. The node touches only its own state, so nodes of
  /// different domains inject in parallel.
  template <typename Admit>
  void inject(Cycle now, Admit&& admit) {
    if (inject_busy_until_ > now) return;
    for (const MsgClass cls : {MsgClass::kReply, MsgClass::kRequest}) {
      EventLane<Queued>& queue = source_[static_cast<int>(cls)];
      if (queue.empty()) continue;
      if (queue.front().created > now) continue;  // reply not materialized yet
      if (admit(packet_of(queue.front(), cls))) {
        queue.pop_front();
        inject_busy_until_ = now + config_.effective_packet_phits();
        return;
      }
    }
  }

  /// Whether the consumption port of the class can take a packet now. For
  /// requests under reactive traffic this also requires room in the reply
  /// source queue: the protocol dependency that makes request-reply
  /// deadlock possible when VCs are misconfigured.
  bool can_consume(MsgClass cls, Cycle now) const;

  /// Accepts a packet at the consumption port (called on an ejection
  /// grant); returns the completion cycle of the transfer. Touches only
  /// node-local state (consumption ports, the reply source queue) — the
  /// global side effects (metrics, pool release, trace) are staged by the
  /// Network so ejections in parallel allocation domains apply them in a
  /// deterministic serial order at the cycle barrier.
  Cycle consume(const Packet& pkt, Cycle now);

  /// Whether consuming `pkt` now enqueues a reply (reactive request):
  /// Network stages the generation metric for it alongside on_consumed.
  bool consume_spawns_reply(const Packet& pkt) const {
    return config_.reactive && pkt.cls == MsgClass::kRequest;
  }

  /// First cycle the class's consumption port is free again. When this is
  /// in the future, can_consume is false until exactly this cycle — the
  /// allocator's pruning uses it to sleep ejection-blocked slots on a
  /// timer instead of re-arbitrating them every cycle.
  Cycle consume_free_at(MsgClass cls) const {
    return consume_busy_until_[static_cast<int>(cls)];
  }

  NodeId id() const { return id_; }
  std::int64_t source_backlog(MsgClass cls) const {
    return static_cast<std::int64_t>(
        source_[static_cast<int>(cls)].size());
  }

 private:
  /// A source-queue entry: the rest of the packet header follows from the
  /// node, the queue's class and the config, so a backlog of thousands of
  /// packets (saturated runs) costs 16 bytes per packet, not a Packet.
  struct Queued {
    NodeId dst = kInvalidNode;
    Cycle created = 0;
  };

  Packet packet_of(const Queued& q, MsgClass cls) const;

  NodeId id_;
  const SimConfig& config_;
  const TrafficPattern& pattern_;
  Rng rng_;
  std::unique_ptr<InjectionProcess> process_;

  // Rings allocate on first push: a node costs no heap block per queue
  // until it generates (or is sent a request), which keeps construction of
  // a paper-scale network's 16,512 nodes cheap.
  EventLane<Queued> source_[kNumMsgClasses];
  NodeId burst_destination_ = kInvalidNode;
  Cycle inject_busy_until_ = 0;
  Cycle consume_busy_until_[kNumMsgClasses] = {0, 0};
};

}  // namespace flexnet
