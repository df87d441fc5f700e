// Simulation driver: warm-up, steady-state measurement window, deadlock
// watchdog, multi-seed averaging.
#pragma once

#include <memory>
#include <vector>

#include "sim/network.hpp"

namespace flexnet {

struct SimResult {
  double offered = 0.0;   ///< measured offered load, phits/node/cycle
  double accepted = 0.0;  ///< accepted (delivered) load, phits/node/cycle
  double avg_latency = 0.0;  ///< cycles, generation to delivery
  double avg_hops = 0.0;
  double request_latency = 0.0;  ///< request-class average (reactive runs)
  double reply_latency = 0.0;
  /// Latency percentiles from the measurement window's log2 histogram
  /// (deterministic estimates, see telemetry/histogram.hpp); the max is
  /// the exact largest observed latency. Mirrored in the checkpoint
  /// journal record and result_bits_equal.
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;
  std::int64_t consumed_packets = 0;
  bool deadlock = false;
  Cycle cycles = 0;
};

class TraceWriter;

class Simulator {
 public:
  explicit Simulator(const SimConfig& config) : config_(config) {}

  /// Runs warmup + measurement; returns steady-state results. A run is
  /// declared deadlocked (result.deadlock) when no packet moves for
  /// config.watchdog cycles while packets sit in the network.
  SimResult run();

  /// Overrides the network's telemetry runtime enable for this run
  /// (default: follow the FLEXNET_TELEMETRY environment variable).
  /// A no-op when telemetry is compiled out.
  Simulator& set_telemetry(bool on) {
    telemetry_override_ = on ? 1 : 0;
    return *this;
  }

  /// CPUs this run's Network may claim when sim_domains is 0 (auto); 0,
  /// the default, means every CPU the process may run on. A sweep running
  /// several jobs at once passes each its share.
  Simulator& set_core_share(int cpus) {
    core_share_ = cpus;
    return *this;
  }

  /// Emits per-packet lifetime spans of this run into `trace` under
  /// process id `pid` (see telemetry/trace.hpp). Null disables.
  Simulator& set_trace(TraceWriter* trace, int pid) {
    trace_ = trace;
    trace_pid_ = pid;
    return *this;
  }

  /// Access to the network after run() for inspection in tests.
  Network* network() { return network_.get(); }

 private:
  SimConfig config_;
  int telemetry_override_ = -1;
  int core_share_ = 0;
  TraceWriter* trace_ = nullptr;
  int trace_pid_ = 0;
  std::unique_ptr<Network> network_;
};

/// Averages `seeds` independent runs (seeds seed, seed+1, ...), sharded
/// over FLEXNET_JOBS workers via the sweep runner. A deadlock in any run
/// marks the average deadlocked; deadlocked seeds are excluded from the
/// load/latency/hops averages (taken over the surviving seeds only).
SimResult run_averaged(const SimConfig& config, int seeds);

}  // namespace flexnet
