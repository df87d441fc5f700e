// Deterministic intra-simulation parallel domains.
//
// `sim_domains` partitions the routers of one simulation into D contiguous
// domains (`begin[d] = R * d / D`) whose per-cycle link delivery, node
// traffic generation and injection, allocation and sending run on worker
// threads between barriers; cross-domain effects are staged per (source,
// target) lane and merged in a fixed (domain, discovery) order, and staged
// injections get their packet ids and pool slots in ascending node order.
// The contract is absolute: the domain count must not perturb a single
// byte of any result — it is a wall-clock knob, never a modeling knob.
//
// This suite pins that contract directly on SimResult bits and on the
// engine's work counters (the golden CI gate pins it again on whole-report
// bytes at sim_domains 1, 3, 4 and 5):
//  * every metric of a run at D in {2, 3, 4, 5} equals the serial run
//    bit for bit, across policies, buffer organizations, flow-control
//    schemes, request-reply traffic (replies spawn at consumption),
//    bursty traffic and Valiant routing, loaded enough that cross-domain
//    traffic, blocked-head wake edges and node injection are constantly
//    exercised;
//  * domain counts that do not divide the router count still work
//    (D = 5 on the 36-router default: the partition floor just makes
//    domains and their node ranges uneven);
//  * degenerate counts (more domains than routers, D = 1) collapse to
//    the serial path;
//  * the automatic count (sim_domains=0) follows its pure rule, checked
//    as a table without starting a thread.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/config.hpp"
#include "sim/domains.hpp"
#include "sim/simulator.hpp"
#include "telemetry/trace.hpp"

namespace flexnet {
namespace {

bool result_bits_equal(const SimResult& a, const SimResult& b) {
  return a.offered == b.offered && a.accepted == b.accepted &&
         a.avg_latency == b.avg_latency &&
         a.request_latency == b.request_latency &&
         a.reply_latency == b.reply_latency &&
         a.avg_hops == b.avg_hops && a.latency_p50 == b.latency_p50 &&
         a.latency_p99 == b.latency_p99 && a.latency_max == b.latency_max &&
         a.consumed_packets == b.consumed_packets &&
         a.deadlock == b.deadlock && a.cycles == b.cycles;
}

/// A run's results plus the engine's work counters: the domain count must
/// not change how much work the allocator does, only who does it.
struct DomainRun {
  SimResult result;
  std::int64_t grants = 0;
  std::int64_t re_requests = 0;
  std::int64_t escape_grants = 0;
  std::int64_t overflow_picks = 0;
  std::int64_t lowest_picks = 0;
};

DomainRun run_with_domains(SimConfig cfg, int domains) {
  cfg.sim_domains = domains;
  Simulator sim(cfg);
  DomainRun run;
  run.result = sim.run();
  const Network& net = *sim.network();
  EXPECT_EQ(net.domains(), domains);
  run.grants = net.total_grants();
  run.re_requests = net.re_requests();
  run.escape_grants = net.escape_grants();
  run.overflow_picks = net.overflow_picks();
  run.lowest_picks = net.lowest_picks();
  return run;
}

void expect_same_run(const DomainRun& serial, const DomainRun& got,
                     const std::string& context) {
  EXPECT_TRUE(result_bits_equal(serial.result, got.result))
      << context << " (consumed " << got.result.consumed_packets << " vs "
      << serial.result.consumed_packets << ")";
  EXPECT_EQ(serial.grants, got.grants) << context;
  EXPECT_EQ(serial.re_requests, got.re_requests) << context;
  EXPECT_EQ(serial.escape_grants, got.escape_grants) << context;
  EXPECT_EQ(serial.overflow_picks, got.overflow_picks) << context;
  EXPECT_EQ(serial.lowest_picks, got.lowest_picks) << context;
}

TEST(SimDomains, DomainCountNeverPerturbsResults) {
  struct Point {
    const char* policy;
    const char* vcs;
    const char* buffer_org;
    const char* flow_control;
    double load;
  };
  const Point points[] = {
      {"baseline", "2/1", "static", "packet", 0.30},
      {"flexvc", "4/2", "static", "packet", 0.60},
      {"flexvc", "4/2", "damq", "packet", 0.90},
      {"flexvc", "4/2", "static", "wormhole", 0.50},
      {"flexvc", "4/2", "damq", "vct", 0.90},
  };
  for (const Point& p : points) {
    SimConfig cfg;
    cfg.policy = p.policy;
    cfg.vcs = p.vcs;
    cfg.buffer_org = p.buffer_org;
    cfg.flow_control = p.flow_control;
    cfg.load = p.load;
    cfg.warmup = 300;
    cfg.measure = 600;
    const std::string context = std::string(p.policy) + "/" + p.vcs + "/" +
                                p.buffer_org + "/" + p.flow_control;
    const DomainRun serial = run_with_domains(cfg, 1);
    EXPECT_GT(serial.result.consumed_packets, 0) << context;
    for (const int domains : {2, 3, 4, 5})
      expect_same_run(serial, run_with_domains(cfg, domains),
                      context + " diverged at sim_domains=" +
                          std::to_string(domains));
  }
}

// The node phase runs inside the domains: each generates its own nodes'
// traffic and picks their injection VCs, and a serial merge assigns
// packet ids and pool slots in ascending node order. These points stress
// what that phase owns — replies spawned at consumption and injected on
// the reserved reply VC, bursts that keep one destination per burst, and
// Valiant's random intermediates (router RNG draws in allocation).
TEST(SimDomains, NodePhaseNeverPerturbsResults) {
  struct Point {
    const char* name;
    const char* traffic;
    const char* routing;
    const char* vcs;
    bool reactive;
    double load;
  };
  const Point points[] = {
      {"request-reply", "uniform", "min", "2/1+2/1", true, 0.90},
      {"bursty", "bursty", "min", "4/2", false, 0.70},
      {"valiant", "adversarial", "val", "4/2", false, 0.40},
  };
  for (const Point& p : points) {
    SimConfig cfg;
    cfg.policy = "flexvc";
    cfg.traffic = p.traffic;
    cfg.routing = p.routing;
    cfg.vcs = p.vcs;
    cfg.reactive = p.reactive;
    cfg.load = p.load;
    cfg.warmup = 300;
    cfg.measure = 600;
    const DomainRun serial = run_with_domains(cfg, 1);
    EXPECT_GT(serial.result.consumed_packets, 0) << p.name;
    for (const int domains : {2, 3, 4, 5})
      expect_same_run(serial, run_with_domains(cfg, domains),
                      std::string(p.name) + " diverged at sim_domains=" +
                          std::to_string(domains));
  }
}

// SimResult cannot see which packet got which id or pool slot, but the
// per-packet trace can: every span is named by PacketId and tracked on the
// packet's pool slot. Byte-equal traces pin the staged-injection merge to
// the serial node loop's ascending-node order.
std::string traced_run(SimConfig cfg, int domains, const std::string& path) {
  cfg.sim_domains = domains;
  {
    TraceWriter trace(path);
    Simulator(cfg).set_trace(&trace, 1).run();
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(SimDomains, StagedInjectionKeepsPacketIdsAndSlots) {
  SimConfig cfg;
  cfg.policy = "flexvc";
  cfg.vcs = "2/1+2/1";
  cfg.reactive = true;
  cfg.load = 0.80;
  cfg.warmup = 100;
  cfg.measure = 200;
  const std::string dir = ::testing::TempDir();
  const std::string serial = traced_run(cfg, 1, dir + "domains_trace_1.json");
  ASSERT_NE(serial.find("\"pkt0\""), std::string::npos);
  for (const int domains : {3, 5}) {
    // EXPECT_TRUE, not EXPECT_EQ: a diff of two whole traces is noise.
    EXPECT_TRUE(serial == traced_run(cfg, domains,
                                     dir + "domains_trace_" +
                                         std::to_string(domains) + ".json"))
        << "per-packet trace diverged at sim_domains=" << domains;
  }
}

TEST(SimDomains, DegenerateDomainCountsCollapseToSerial) {
  SimConfig cfg;
  cfg.policy = "flexvc";
  cfg.vcs = "4/2";
  cfg.load = 0.50;
  cfg.warmup = 200;
  cfg.measure = 400;
  const DomainRun serial = run_with_domains(cfg, 1);
  // 36 routers in the default Dragonfly: 36 is one domain per router,
  // 1000 clamps to the router count.
  for (const int domains : {36, 1000}) {
    cfg.sim_domains = domains;
    Simulator sim(cfg);
    const SimResult got = sim.run();
    EXPECT_EQ(sim.network()->domains(), 36);
    EXPECT_TRUE(result_bits_equal(serial.result, got))
        << "sim_domains=" << domains << " diverged from serial";
  }
}

// sim_domains=0 resolves through one pure rule: min(core share, routers /
// kMinRoutersPerDomain), at least 1, where the core share is the CPUs
// over the jobs running at once. Checked as a table: nothing here builds a
// network, so the paper-scale rows start no threads.
TEST(SimDomains, AutoCountFollowsTheRule) {
  struct Row {
    const char* name;
    int routers;
    int cpus;
    int concurrent_jobs;
    int expected;
  };
  const Row rows[] = {
      {"toy, one job", 36, 4, 1, 1},
      {"toy, many cores", 36, 64, 1, 1},
      {"paper, one job", 2064, 4, 1, 4},
      {"paper, 8 cores", 2064, 8, 1, 8},
      {"paper, two jobs", 2064, 8, 2, 4},
      {"paper, jobs == cores", 2064, 4, 4, 1},
      {"paper, jobs > cores", 2064, 4, 26, 1},
      {"paper, 1-CPU host", 2064, 1, 1, 1},
      {"paper, 0 jobs counts as 1", 2064, 4, 0, 4},
      {"router-capped", 3 * kMinRoutersPerDomain, 64, 1, 3},
      {"just below one domain's worth", kMinRoutersPerDomain - 1, 64, 1, 1},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(resolve_domains(0, row.routers,
                              core_share(row.cpus, row.concurrent_jobs)),
              row.expected)
        << row.name;
  }
  // An explicit count keeps its meaning, clamped to the router count only.
  EXPECT_EQ(resolve_domains(3, 36, 1), 3);
  EXPECT_EQ(resolve_domains(1, 2064, 64), 1);
  EXPECT_EQ(resolve_domains(1000, 36, 4), 36);
  EXPECT_GE(available_cpus(), 1);
}

// Auto resolves at Network construction and never reaches the config: the
// default toy stays serial whatever share it is offered, and canonical()
// (the checkpoint grid fingerprint) still reads sim_domains=0.
TEST(SimDomains, AutoResolvesInTheNetworkNotTheConfig) {
  SimConfig cfg;
  ASSERT_EQ(cfg.sim_domains, 0);
  EXPECT_EQ(Network(cfg).domains(), 1);
  EXPECT_EQ(Network(cfg, /*core_share=*/64).domains(), 1);
  EXPECT_NE(cfg.canonical().find(";sim_domains=0;"), std::string::npos)
      << cfg.canonical();
}

}  // namespace
}  // namespace flexnet
