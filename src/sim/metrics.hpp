// Measurement collection with a steady-state window.
#pragma once

#include "buffers/packet.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "telemetry/histogram.hpp"

namespace flexnet {

class Metrics {
 public:
  void begin_window(Cycle now) {
    measuring_ = true;
    window_start_ = now;
    offered_.reset();
    accepted_.reset();
    latency_.reset();
    for (auto& acc : class_latency_) acc.reset();
    hops_.reset();
    latency_hist_.reset();
    hops_hist_.reset();
  }

  void end_window(Cycle now) {
    measuring_ = false;
    window_cycles_ = now - window_start_;
  }

  /// `packets` generated packets of `phits` each. Integer amounts, so a
  /// batch adds exactly what as many single calls would, in any order.
  void on_generated(int phits, std::int64_t packets = 1) {
    generated_packets_ += packets;
    if (measuring_) offered_.add(static_cast<double>(phits * packets));
  }

  /// `completion` is the cycle the packet's tail reaches the consumption
  /// port; latency is measured from generation to completion.
  void on_consumed(const Packet& pkt, Cycle completion) {
    ++consumed_packets_;
    last_consumption_ = completion;
    if (!measuring_) return;
    accepted_.add(pkt.size);
    const auto lat = static_cast<double>(completion - pkt.created);
    latency_.add(lat);
    class_latency_[static_cast<int>(pkt.cls)].add(lat);
    hops_.add(pkt.hops);
    // Log2 histograms feed SimResult's p50/p99/max. Cycle latencies are
    // integers by construction, so the cast is exact.
    latency_hist_.add(static_cast<std::int64_t>(completion - pkt.created));
    hops_hist_.add(pkt.hops);
  }

  /// Every packet currently alive: source queues, network, consumption.
  std::int64_t in_flight() const {
    return generated_packets_ - consumed_packets_;
  }

  std::int64_t generated_packets() const { return generated_packets_; }
  std::int64_t consumed_packets() const { return consumed_packets_; }
  Cycle last_consumption() const { return last_consumption_; }

  double offered_load(int nodes) const {
    return offered_.rate(nodes, static_cast<double>(window_cycles_));
  }
  double accepted_load(int nodes) const {
    return accepted_.rate(nodes, static_cast<double>(window_cycles_));
  }
  const Accumulator& latency() const { return latency_; }
  const Accumulator& latency_of(MsgClass cls) const {
    return class_latency_[static_cast<int>(cls)];
  }
  const Accumulator& hops() const { return hops_; }
  const Log2Histogram& latency_hist() const { return latency_hist_; }
  const Log2Histogram& hops_hist() const { return hops_hist_; }
  Cycle window_cycles() const { return window_cycles_; }

 private:
  bool measuring_ = false;
  Cycle window_start_ = 0;
  Cycle window_cycles_ = 0;
  std::int64_t generated_packets_ = 0;
  std::int64_t consumed_packets_ = 0;
  Cycle last_consumption_ = 0;
  RateMeter offered_;
  RateMeter accepted_;
  Accumulator latency_;
  Accumulator class_latency_[kNumMsgClasses];
  Accumulator hops_;
  Log2Histogram latency_hist_;
  Log2Histogram hops_hist_;
};

}  // namespace flexnet
