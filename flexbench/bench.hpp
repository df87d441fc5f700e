// flexbench shared declarations: the workload table, one timed repetition
// of a workload, the traced per-job and per-step passes, and the output
// digests that gate correctness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "scenario/suite.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "telemetry/telemetry.hpp"

namespace flexbench {

using flexnet::Cycle;
using flexnet::SimConfig;
using flexnet::SimResult;

/// How the traced run samples Network::step on a workload's jobs.
struct ProbePlan {
  Cycle warmup = 0;         ///< cycles stepped before any chunk is timed
  int chunks = 0;           ///< timed chunks per probed job
  Cycle chunk_cycles = 1;   ///< cycles per chunk
  int telemetry_pairs = 0;  ///< counters-on/off chunk pairs per probed job
  int domain_job = 0;       ///< job whose D=nproc vs D=1 rate is compared
  int domain_pairs = 0;     ///< D=1/D=nproc chunk pairs on that job
};

struct Workload {
  const char* name;
  const char* suite;  ///< suite file, relative to the checkout root
  Cycle warmup;       ///< job horizon of the timed repetitions
  Cycle measure;
  Cycle smoke_warmup;  ///< tiny horizon of the self-test smoke
  Cycle smoke_measure;
  ProbePlan probe;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// One simulation job: a (series, load, seed) point of the suite grid.
struct Job {
  std::string label;
  SimConfig config;
};

struct RunContext {
  const Workload* workload = nullptr;
  std::string root;     ///< checkout root (suite paths resolve against it)
  std::string out_dir;  ///< journal, report, spans and result files
  std::uint64_t seed = 1;
  bool smoke = false;
  flexnet::Options extra;  ///< seed + horizon (+ test-only overrides)
  ProbePlan probe;         ///< the workload's, shrunk for --smoke
  int nproc = 1;
  int workers = 1;  ///< sweep worker threads: min(nproc, jobs)
};

flexnet::MaterializedSuite materialize(const RunContext& ctx);
std::vector<Job> jobs_of(const flexnet::MaterializedSuite& ms);

/// Set-up as a user waits for it: load + materialize the suite, then
/// construct every job's Network (destruction is not timed).
struct SetupSample {
  double setup_s = 0.0;
  double materialize_s = 0.0;
  double build_total_s = 0.0;
  double build_max_s = 0.0;
};
SetupSample measure_setup(const RunContext& ctx, SpanRecorder* rec,
                          int parent);

/// One timed repetition, exactly as flexnet_run executes a suite: load,
/// materialize, SweepRunner::run with the checkpoint journal on, write the
/// JSON report. per_job holds each job's row (every suite has one seed).
struct RepResult {
  double wall_s = 0.0;
  double sweep_s = 0.0;
  double report_s = 0.0;
  std::int64_t cycles = 0;  ///< simulated cycles summed over jobs
  std::vector<SimResult> per_job;
  bool report_ok = false;
  std::int64_t journal_bytes = 0;
};
RepResult run_rep(const RunContext& ctx, SpanRecorder* rec, int parent);

/// Work counts read from a job's Network after Simulator::run.
struct WorkCounts {
  std::int64_t grants = 0;
  std::int64_t re_requests = 0;
  std::int64_t escape_grants = 0;
  std::int64_t overflow_picks = 0;
  std::int64_t lowest_picks = 0;
  std::int64_t consumed = 0;
};

/// Totals over a TelemetryCounters snapshot (per-router and per-link
/// counters summed).
struct TelemetrySums {
  std::int64_t requests = 0;
  std::int64_t grants = 0;
  std::int64_t conflicts = 0;
  std::int64_t injections = 0;
  std::int64_t flits = 0;
  std::int64_t flit_stalls = 0;
  std::int64_t transit_flits = 0;
  std::int64_t steps = 0;
  std::int64_t router_steps = 0;  ///< sum of steps x routers
  std::int64_t link_steps = 0;    ///< sum of steps x links
  std::int64_t alloc_routers_sum = 0;
  std::int64_t active_links_sum = 0;  ///< data + credit lanes pending
  std::int64_t live_packets_sum = 0;
};
TelemetrySums sum_telemetry(const flexnet::TelemetryCounters& t);

struct JobOutcome {
  SimResult result;  ///< passed through SweepRunner::aggregate_seeds
  WorkCounts work;
  double run_s = 0.0;   ///< Simulator::run
  double busy_s = 0.0;  ///< the whole job on its worker
  bool failed = false;
  std::string error;
};

/// The traced per-job pass: every job through Simulator::run on a pool of
/// ctx.workers threads (the runner's job model), counters on and merged as
/// the runner merges them, one span per job, work counts read from each
/// job's Network afterwards.
struct JobPass {
  std::vector<JobOutcome> jobs;
  flexnet::TelemetryCounters telemetry;
  double wall_s = 0.0;
};
JobPass run_job_pass(const RunContext& ctx, const std::vector<Job>& jobs,
                     SpanRecorder* rec, int parent);

/// Network::step timed in fixed chunks after a warm-up (counters off),
/// plus counters-on/off and D=nproc/D=1 chunk pairs.
struct ProbeResult {
  double warmup_s = 0.0;
  std::vector<double> chunk_s;
  std::int64_t chunk_cycles = 0;    ///< cycles inside timed chunks
  std::int64_t chunk_grants = 0;    ///< grants inside timed chunks
  std::int64_t chunk_router_cycles = 0;  ///< sum of cycles x routers
  double telemetry_on_s = 0.0;
  double telemetry_off_s = 0.0;
  double domains_one_s = 0.0;  ///< D=1 side of the domain chunk pairs
  double domains_n_s = 0.0;    ///< D=nproc side
};
ProbeResult run_step_probe(const RunContext& ctx, const std::vector<Job>& jobs,
                           SpanRecorder* rec, int parent);

/// Hex FNV-1a digest of every simulated statistic of a job: offered,
/// accepted, latency (mean, per class, p50, p99, max), hops, consumed,
/// cycles and the deadlock flag, hashed bit for bit.
std::string stats_digest(const SimResult& r);
/// Hex digest of a job's work counts (grants, re-requests).
std::string work_digest(const WorkCounts& w);

/// Per-job reference digests recorded at the reference seed.
struct RefJob {
  std::string label;
  std::string stats;
  std::string work;
  bool deadlock = false;
};
struct Reference {
  std::vector<RefJob> jobs;  ///< empty when no entry is recorded
};
constexpr std::uint64_t kReferenceSeed = 1;

/// "<workload>/full" or "<workload>/smoke".
std::string reference_key(const RunContext& ctx);
Reference load_reference(const std::string& path, const std::string& key);
/// Replaces `key` in the reference file (creating it if absent).
bool store_reference(const std::string& path, const std::string& key,
                     const std::vector<RefJob>& jobs, std::string* error);

}  // namespace flexbench
