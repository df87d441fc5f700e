#include "sim/domains.hpp"

#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace flexnet {

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int core_share(int cpus, int concurrent_jobs) {
  return std::max(1, cpus / std::max(1, concurrent_jobs));
}

int resolve_domains(int requested, int routers, int core_share) {
  if (requested > 0) return std::min(requested, std::max(1, routers));
  return std::max(1, std::min(core_share, routers / kMinRoutersPerDomain));
}

// Generation-counted barrier team: run() publishes the job under the mutex
// and bumps the generation; each worker executes its fixed domain once per
// generation and decrements the remaining count. The caller runs domain 0
// itself, then waits until remaining reaches zero. One mutex/cv pair is
// plenty at phase granularity — a phase sweeps thousands of routers per
// wake, so coordination cost is noise.
struct DomainTeam::Impl {
  std::mutex mu;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  const std::function<void(int)>* job = nullptr;
  std::uint64_t generation = 0;
  int remaining = 0;
  bool stop = false;
  std::vector<std::thread> workers;

  void worker_loop(int domain) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        start_cv.wait(lock,
                      [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
        fn = job;
      }
      (*fn)(domain);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (--remaining == 0) done_cv.notify_one();
      }
    }
  }
};

DomainTeam::DomainTeam(int domains) : domains_(domains) {
  FLEXNET_CHECK(domains >= 1);
  if (domains_ == 1) return;
  impl_ = std::make_unique<Impl>();
  impl_->workers.reserve(static_cast<std::size_t>(domains_ - 1));
  for (int d = 1; d < domains_; ++d)
    impl_->workers.emplace_back([this, d] { impl_->worker_loop(d); });
}

DomainTeam::~DomainTeam() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->start_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
}

void DomainTeam::dispatch(const std::function<void(int)>& fn) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->job = &fn;
    impl_->remaining = domains_ - 1;
    ++impl_->generation;
  }
  impl_->start_cv.notify_all();
  fn(0);
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->done_cv.wait(lock, [&] { return impl_->remaining == 0; });
  }
}

}  // namespace flexnet
