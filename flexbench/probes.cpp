// flexbench step probe: Network::step timed from outside in fixed cycle
// chunks, the engine-level half of the traced run.
//
// Per probed job, in this order: warm up (counters off); step D=1 and
// D=nproc copies of the network through the same cycles in alternating
// chunk pairs (domain job only; results are bit-identical at any D, so the
// copies stay in the same state); alternate counters-on and counters-off
// chunks; then the timed chunks the step.* metrics come from.
#include <chrono>
#include <memory>

#include "bench.hpp"
#include "sim/network.hpp"

namespace flexbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Steps `net` through cycles [start, start + cycles); returns the seconds.
double timed_chunk(flexnet::Network& net, Cycle start, Cycle cycles) {
  const auto t0 = Clock::now();
  for (Cycle c = start; c < start + cycles; ++c) net.step(c);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

ProbeResult run_step_probe(const RunContext& ctx, const std::vector<Job>& jobs,
                           SpanRecorder* rec, int parent) {
  const ProbePlan& plan = ctx.probe;
  const Cycle cc = plan.chunk_cycles;
  ProbeResult out;
  const Span probe(rec, "step.probe", parent);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    flexnet::Network net(jobs[j].config);
    net.set_telemetry_enabled(false);
    Cycle now = 0;
    out.warmup_s += [&] {
      const Span span(rec, "step.warmup", probe.id());
      const double s = timed_chunk(net, now, plan.warmup);
      now += plan.warmup;
      return s;
    }();

    if (static_cast<int>(j) == plan.domain_job && ctx.nproc > 1) {
      const Span span(rec, "step.domains", probe.id());
      SimConfig wide_cfg = jobs[j].config;
      wide_cfg.sim_domains = ctx.nproc;
      flexnet::Network wide(wide_cfg);
      wide.set_telemetry_enabled(false);
      timed_chunk(wide, 0, plan.warmup);
      for (int p = 0; p < plan.domain_pairs; ++p) {
        // Alternate which side runs first so neither always gets the
        // caches the other just warmed.
        if (p % 2 == 0) {
          out.domains_one_s += timed_chunk(net, now, cc);
          out.domains_n_s += timed_chunk(wide, now, cc);
        } else {
          out.domains_n_s += timed_chunk(wide, now, cc);
          out.domains_one_s += timed_chunk(net, now, cc);
        }
        now += cc;
      }
    }

    {
      const Span span(rec, "step.telemetry", probe.id());
      for (int p = 0; p < 2 * plan.telemetry_pairs; ++p) {
        // on, off, off, on, on, off, ...: each state leads half the pairs.
        const bool on = ((p + p / 2) % 2) == 0;
        net.set_telemetry_enabled(on);
        (on ? out.telemetry_on_s : out.telemetry_off_s) +=
            timed_chunk(net, now, cc);
        now += cc;
      }
      net.set_telemetry_enabled(false);
    }

    const Span span(rec, "step.chunks", probe.id());
    const std::int64_t routers = net.topology().num_routers();
    for (int c = 0; c < plan.chunks; ++c) {
      const std::int64_t g0 = net.total_grants();
      out.chunk_s.push_back(timed_chunk(net, now, cc));
      out.chunk_grants += net.total_grants() - g0;
      out.chunk_cycles += cc;
      out.chunk_router_cycles += cc * routers;
      now += cc;
    }
  }
  return out;
}

}  // namespace flexbench
