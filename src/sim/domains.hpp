// Deterministic intra-sim parallel domains: a fixed worker team that runs
// one job per simulation phase, `fn(d)` for every domain d, and blocks the
// caller until all domains finish (a full barrier between phases).
//
// The team is the *only* place the sim core touches thread primitives
// (flexnet_lint L3 pins that: everything else under src/sim/ stays
// thread-free), so the implementation hides behind a pimpl — including
// this header pulls in no threading headers.
//
// Determinism contract: the team provides raw fork/join only. Byte-stable
// results at any domain count come from how Network partitions state —
// contiguous ascending router ranges per domain, single-writer phases, and
// cross-domain effects staged per domain and merged in ascending domain
// order at the barrier (see README "Engine architecture").
//
// The host queries behind the automatic domain count (`sim_domains=0`)
// live here too: how many CPUs this process may run on, and the pure rule
// that turns that share and a router count into a domain count.
#pragma once

#include <functional>
#include <memory>

namespace flexnet {

/// Fewest routers a domain must own before splitting pays for its
/// barriers: below it, the per-phase fork/join costs more than the sweep
/// it parallelizes. From the measured crossover (README "Engine
/// architecture"): the 36-router toy loses 4-30x at any D > 1; the
/// 264-router (4,8,4) dragonfly gains at load 0.60 but loses near idle,
/// so it stays serial; from 876 routers up every D tried gains.
inline constexpr int kMinRoutersPerDomain = 256;

/// CPUs this process may run on: its affinity mask, as `nproc` reports
/// it (at least 1).
int available_cpus();

/// CPUs each of `concurrent_jobs` simultaneous simulations may claim out
/// of `cpus` (at least 1).
int core_share(int cpus, int concurrent_jobs);

/// The domain count a network of `routers` runs at. An explicit request
/// (`requested > 0`) keeps its meaning, clamped to the router count; auto
/// (`requested == 0`) takes min(core_share, routers /
/// kMinRoutersPerDomain), at least 1. Pure: no host query, no threads.
int resolve_domains(int requested, int routers, int core_share);

class DomainTeam {
 public:
  /// Spawns `domains - 1` workers (domain 0 runs on the caller). A team of
  /// one spawns nothing and run() degenerates to a direct call.
  explicit DomainTeam(int domains);
  ~DomainTeam();

  DomainTeam(const DomainTeam&) = delete;
  DomainTeam& operator=(const DomainTeam&) = delete;

  int domains() const { return domains_; }

  /// Runs `fn(d)` for every domain d in [0, domains) — d = 0 on the
  /// calling thread, the rest on the workers — and returns once all have
  /// finished. The join synchronizes memory: writes made by any domain
  /// before returning from fn are visible to every domain in the next run.
  ///
  /// A team of one calls `fn(0)` directly — no type erasure, no dispatch:
  /// the serial engine pays nothing for the parallel plumbing (this runs
  /// once per phase per cycle, so a std::function construction here is
  /// hot-path cost).
  template <typename Fn>
  void run(Fn&& fn) {
    if (impl_ == nullptr) {
      fn(0);
      return;
    }
    dispatch(std::function<void(int)>(std::forward<Fn>(fn)));
  }

 private:
  void dispatch(const std::function<void(int)>& fn);

  struct Impl;
  int domains_;
  std::unique_ptr<Impl> impl_;  ///< null for a team of one
};

}  // namespace flexnet
