// flexbench_driver: runs one named workload at one seed and prints its
// metrics, ending with one JSON result line.
//
//   flexbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --root DIR --out DIR [--smoke] [--record]
//                    [--set key=value ...]
//
// --trace 0 measures the end-to-end metrics (tracing off); --trace 1 runs
// the traced pass and prints the per-layer metrics instead. --smoke uses
// the workload's tiny horizon, --record writes the reference digests of
// the current code at the reference seed into flexbench/reference.json
// under --root, and --set applies a config override after the workload's
// own (the self-tests use it to perturb a run and prove the digest check
// trips). flexbench/run.py builds this program and is the command
// BENCHMARK.json names.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "telemetry/telemetry.hpp"

namespace flexbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string root;
  std::string out;
  bool smoke = false;
  bool record = false;
  std::vector<std::string> sets;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "flexbench_driver: %s\nusage: flexbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 --root DIR --out DIR "
               "[--smoke] [--record] [--set k=v]\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--smoke") {
      a->smoke = true;
    } else if (k == "--record") {
      a->record = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--root") {
      a->root = v;
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--set") {
      a->sets.push_back(v);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->root.empty() && !a->out.empty() &&
         a->seconds > 0.0 && (a->trace == 0 || a->trace == 1);
}

// --- Environment: recorded with every result so the same-machine,
// same-session rule of an A/B comparison can be checked from the output.

std::string first_line_with(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

struct Env {
  int nproc = 1;
  std::string cpu = first_line_with("/proc/cpuinfo", "model name");
  std::string compiler =
#if defined(__clang__)
      std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
      std::string("gcc ") + __VERSION__;
#else
      "unknown";
#endif
  std::string build_type = FLEXBENCH_BUILD_TYPE;
#ifdef NDEBUG
  bool ndebug = true;
#else
  bool ndebug = false;
#endif
  bool telemetry_compiled = FLEXNET_TELEMETRY != 0;
  std::string load_start = loadavg();
  std::string load_end;

  bool release() const { return build_type == "Release" && ndebug; }

  std::string json() const {
    std::ostringstream o;
    o << "{\"nproc\": " << nproc << ", \"cpu\": " << json_str(cpu)
      << ", \"compiler\": " << json_str(compiler)
      << ", \"build_type\": " << json_str(build_type)
      << ", \"release\": " << (release() ? "true" : "false")
      << ", \"flexnet_telemetry_compiled\": "
      << (telemetry_compiled ? "true" : "false")
      << ", \"loadavg_start\": " << json_str(load_start)
      << ", \"loadavg_end\": " << json_str(load_end) << "}";
    return o.str();
  }
};

// --- Metrics and the result line.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string basis;  ///< how a ratio was formed, printed in the table
};

std::string fmt_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("%-30s %20s  %-8s %s\n", "metric", "value", "unit", "basis");
  for (const Metric& m : metrics)
    std::printf("%-30s %20.6g  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.basis.c_str());
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i == 0 ? "" : ", ") << json_str(metrics[i].name)
      << ": {\"value\": " << fmt_number(metrics[i].value)
      << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  o << "}}";
  return o.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Output checks. A job fails if it throws, if its statistics digest
// differs from the reference (reference seed) or from the run's first
// repetition (any seed), or if it deadlocks where the reference drains.

struct Checker {
  Reference ref;
  bool at_reference = false;
  std::vector<std::string> first;  ///< digests of the first repetition
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;

  void note(const std::string& p) {
    if (problems.size() < 20 &&
        std::find(problems.begin(), problems.end(), p) == problems.end())
      problems.push_back(p);
  }

  /// Checks one repetition's per-job results; `work` is optional.
  void check(const std::vector<Job>& jobs, const std::vector<SimResult>& rows,
             const std::vector<WorkCounts>* work, const char* pass) {
    attempted += static_cast<std::int64_t>(jobs.size());
    if (rows.size() != jobs.size()) {
      failed += static_cast<std::int64_t>(jobs.size());
      note(std::string(pass) + ": wrong job count");
      return;
    }
    const bool fill = first.empty();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string d = stats_digest(rows[i]);
      if (fill) first.push_back(d);
      std::string why;
      if (d != first[i]) why = "differs from the first repetition";
      const bool have_ref = ref.jobs.size() == jobs.size();
      if (at_reference && !have_ref) why = "no reference digest recorded";
      if (at_reference && have_ref && d != ref.jobs[i].stats)
        why = "statistics digest differs from the reference";
      if (at_reference && have_ref && work != nullptr &&
          work_digest((*work)[i]) != ref.jobs[i].work)
        why = "work-count digest differs from the reference";
      if (rows[i].deadlock && !(have_ref && ref.jobs[i].deadlock))
        why = "deadlocked where the reference drains";
      if (!rows[i].deadlock && rows[i].consumed_packets <= 0)
        why = "consumed no packets";
      if (!why.empty()) {
        ++failed;
        note(std::string(pass) + ": " + jobs[i].label + ": " + why);
      }
    }
  }

  void fail_all(const std::vector<Job>& jobs, const std::string& why) {
    attempted += static_cast<std::int64_t>(jobs.size());
    failed += static_cast<std::int64_t>(jobs.size());
    note(why);
  }
};

const char* const kModelNote =
    "note: this benchmark measures host time of the simulator. Simulated "
    "statistics are a correctness gate, not a metric: the network model has "
    "no reference measured on real hardware and is unvalidated.";

// --- The untraced run: end-to-end metrics.

std::vector<Metric> untraced_run(const RunContext& ctx, const Args& a,
                                 const std::vector<Job>& jobs,
                                 Checker* check) {
  const auto start = Clock::now();
  std::vector<double> setups, walls, rates;
  double rss_mb = 0.0;
  double setup_budget_s = 0.0;
  while (walls.size() < 3 || seconds_since(start) < a.seconds) {
    // Set-up samples are spread over the run, about a tenth of each
    // repetition's time before it, so their median sees the same machine
    // as the repetitions do.
    const auto s0 = Clock::now();
    do {
      setups.push_back(measure_setup(ctx, nullptr, -1).setup_s);
    } while (seconds_since(s0) < setup_budget_s && setups.size() < 5000);
    try {
      const RepResult r = run_rep(ctx, nullptr, -1);
      walls.push_back(r.wall_s);
      rates.push_back(ratio(static_cast<double>(r.cycles), r.sweep_s));
      setup_budget_s = 0.1 * r.wall_s;
      if (r.report_ok) {
        check->check(jobs, r.per_job, nullptr, "rep");
      } else {
        check->fail_all(jobs, "report write failed");
      }
    } catch (const std::exception& e) {
      check->fail_all(jobs, std::string("rep threw: ") + e.what());
      if (walls.size() < 3) walls.push_back(0.0);
    }
    // Peak memory of set-up plus one repetition: later repetitions add
    // only allocator drift, and how many run depends on speed.
    if (rss_mb == 0.0) rss_mb = peak_rss_mb();
  }
  std::printf("repetitions: %zu timed, %zu set-up samples\n", walls.size(),
              setups.size());
  std::printf("wall_s per repetition:");
  for (double v : walls) std::printf(" %.4f", v);
  std::printf("\n");
  return {
      {"sim_cycles_per_s", median(rates), "1/s",
       "simulated cycles over SweepRunner::run seconds, median of reps"},
      {"wall_s", median(walls), "s",
       "suite load to JSON report on disk, median of reps"},
      {"setup_s", median(setups), "s",
       "materialize + every job's Network constructor, median"},
      {"peak_rss_mb", rss_mb, "MB",
       "getrusage ru_maxrss after set-up and the first repetition"},
  };
}

// --- The traced run: per-layer metrics.

double percentile_ms(std::vector<double> v, double q, double* used_q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::ptrdiff_t>(v.size());
  // Nearest rank, but never fewer than 10 samples beyond it.
  auto idx = static_cast<std::ptrdiff_t>(std::ceil(q * static_cast<double>(n))) - 1;
  idx = std::max<std::ptrdiff_t>(0, std::min(idx, n - 11));
  if (used_q != nullptr) *used_q = static_cast<double>(idx + 1) / static_cast<double>(n);
  return v[static_cast<std::size_t>(idx)] * 1e3;
}

std::vector<Metric> traced_run(const RunContext& ctx,
                               const std::vector<Job>& jobs, Checker* check,
                               SpanRecorder* rec) {
  const Span root(rec, "traced_run", -1);
  std::vector<double> mat, build_total, build_max;
  for (int i = 0; i < 3; ++i) {
    const SetupSample s = measure_setup(ctx, rec, root.id());
    mat.push_back(s.materialize_s);
    build_total.push_back(s.build_total_s);
    build_max.push_back(s.build_max_s);
  }

  // A warm-up repetition whose time is dropped, then untraced and traced
  // repetitions interleaved (u t t u).
  std::vector<double> untraced_wall, traced_wall;
  RepResult traced;
  for (int i = 0; i < 5; ++i) {
    const bool with_spans = i == 2 || i == 3;
    RepResult r = run_rep(ctx, with_spans ? rec : nullptr, root.id());
    if (r.report_ok) {
      check->check(jobs, r.per_job, nullptr, with_spans ? "traced rep" : "rep");
    } else {
      check->fail_all(jobs, "report write failed");
    }
    if (i == 0) continue;
    (with_spans ? traced_wall : untraced_wall).push_back(r.wall_s);
    if (with_spans) traced = r;
  }

  const JobPass pass = run_job_pass(ctx, jobs, rec, root.id());
  std::vector<SimResult> rows;
  std::vector<WorkCounts> work;
  std::vector<double> run_s;
  double busy_sum = 0.0;
  WorkCounts w;
  for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
    const JobOutcome& o = pass.jobs[i];
    if (o.failed) check->note("job pass: " + jobs[i].label + ": " + o.error);
    rows.push_back(o.result);
    work.push_back(o.work);
    run_s.push_back(o.run_s);
    busy_sum += o.busy_s;
    w.grants += o.work.grants;
    w.re_requests += o.work.re_requests;
    w.escape_grants += o.work.escape_grants;
    w.overflow_picks += o.work.overflow_picks;
    w.lowest_picks += o.work.lowest_picks;
    w.consumed += o.work.consumed;
  }
  // Simulator::run per job must reproduce SweepRunner::run's statistics
  // bit for bit: the checker compares against the repetitions above.
  check->check(jobs, rows, &work, "job pass");

  const ProbeResult probe = run_step_probe(ctx, jobs, rec, root.id());
  double tail_q = 0.0;
  const double p99 = percentile_ms(probe.chunk_s, 0.99, &tail_q);
  double chunk_total = 0.0;
  for (double s : probe.chunk_s) chunk_total += s;
  const TelemetrySums t = sum_telemetry(pass.telemetry);
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  char tail_note[96];
  std::snprintf(tail_note, sizeof(tail_note),
                "nearest-rank p%.1f of %zu chunks of %lld cycles",
                100.0 * tail_q, probe.chunk_s.size(),
                static_cast<long long>(ctx.probe.chunk_cycles));
  char domains_note[96];
  std::snprintf(domains_note, sizeof(domains_note),
                "step rate at D=%d over D=1 on job %d", ctx.nproc,
                ctx.probe.domain_job);

  return {
      {"scenario.materialize_s", median(mat), "s",
       "materialize_for_run, median of 3 set-ups"},
      {"network.build_s", median(build_total), "s",
       "sum of Network constructors per set-up, median of 3"},
      {"network.build_s_max", *std::max_element(build_max.begin(),
                                                build_max.end()),
       "s", "slowest single Network constructor"},
      {"step.ns_per_cycle", 1e9 * ratio(chunk_total, d(probe.chunk_cycles)),
       "ns", "timed chunk seconds over chunk cycles (counters off)"},
      {"step.ns_per_router_cycle",
       1e9 * ratio(chunk_total, d(probe.chunk_router_cycles)), "ns",
       "timed chunk seconds over chunk cycles x routers"},
      {"step.ns_per_grant", 1e9 * ratio(chunk_total, d(probe.chunk_grants)),
       "ns", "timed chunk seconds over grants inside the chunks"},
      {"step.chunk_ms_p50", percentile_ms(probe.chunk_s, 0.5, nullptr), "ms",
       "median chunk"},
      {"step.chunk_ms_p99", p99, "ms", tail_note},
      {"step.warmup_s", probe.warmup_s, "s", "probe warm-up, summed over jobs"},
      {"simulator.run_s_p50", median(run_s), "s",
       "Simulator::run per job (counters on), median"},
      {"simulator.run_s_max", run_s.empty() ? 0.0
                                            : *std::max_element(run_s.begin(),
                                                                run_s.end()),
       "s", "slowest Simulator::run"},
      {"alloc.requests", d(t.requests), "count", "TelemetryCounters"},
      {"alloc.grants", d(w.grants), "count", "Network::total_grants"},
      {"alloc.conflicts", d(t.conflicts), "count", "TelemetryCounters"},
      {"alloc.re_requests", d(w.re_requests), "count",
       "Network::re_requests"},
      {"alloc.grant_ratio", ratio(d(t.grants), d(t.requests)), "ratio",
       "telemetry grants / requests"},
      {"alloc.re_requests_per_grant", ratio(d(w.re_requests), d(w.grants)),
       "ratio", "re_requests / total_grants"},
      {"alloc.grants_per_consumed", ratio(d(w.grants), d(w.consumed)),
       "ratio", "total_grants / consumed packets"},
      {"vcsel.escape_grants", d(w.escape_grants), "count",
       "Network::escape_grants"},
      {"vcsel.overflow_picks", d(w.overflow_picks), "count",
       "Network::overflow_picks"},
      {"vcsel.lowest_picks", d(w.lowest_picks), "count",
       "Network::lowest_picks"},
      {"net.alloc_routers_frac", ratio(d(t.alloc_routers_sum),
                                       d(t.router_steps)),
       "ratio", "allocating routers / (steps x routers)"},
      {"net.active_links_frac",
       ratio(d(t.active_links_sum), 2.0 * d(t.link_steps)), "ratio",
       "pending data + credit lanes / (steps x 2 x links)"},
      {"net.live_packets_mean", ratio(d(t.live_packets_sum), d(t.steps)),
       "packets", "live packets summed over steps / steps"},
      {"node.injections", d(t.injections), "count", "router injections"},
      {"flow.flits", d(t.flits), "count", "link flits"},
      {"flow.flit_stalls", d(t.flit_stalls), "count", "link flit stalls"},
      {"flow.stall_frac", ratio(d(t.flit_stalls), d(t.flits + t.flit_stalls)),
       "ratio", "flit_stalls / (flits + flit_stalls)"},
      {"flow.transit_flits", d(t.transit_flits), "count",
       "flits cut through unbuffered"},
      {"domains.count", static_cast<double>(jobs.front().config.sim_domains),
       "count", "sim_domains the workload runs at"},
      {"domains.speedup", ratio(probe.domains_one_s, probe.domains_n_s), "x",
       domains_note},
      {"runner.worker_util",
       ratio(busy_sum, static_cast<double>(ctx.workers) * pass.wall_s),
       "ratio", "summed job seconds / (workers x job-pass seconds)"},
      {"runner.workers", static_cast<double>(ctx.workers), "count",
       "min(nproc, jobs)"},
      {"journal.bytes", d(traced.journal_bytes), "bytes",
       "checkpoint journal after a rep"},
      {"report.write_s", traced.report_s, "s", "JsonReport::write_file"},
      {"telemetry.on_off_ratio",
       ratio(probe.telemetry_on_s, probe.telemetry_off_s), "x",
       "step rate counters off / counters on"},
      {"trace.overhead", ratio(median(traced_wall), median(untraced_wall)),
       "x", "traced rep wall / untraced rep wall, median of 2 each"},
  };
}

void print_span_table(const std::vector<SpanRecord>& spans) {
  std::printf("%-24s %7s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : span_totals(spans))
    std::printf("%-24s %7d %12.6f %12.6f\n", name.c_str(), t.count, t.total_s,
                t.self_s);
}

int record(const RunContext& ctx, const Args& a, const std::string& reference,
           const std::vector<Job>& jobs) {
  if (a.seed != kReferenceSeed || !a.sets.empty())
    return usage("--record runs at the reference seed without --set");
  const RepResult rep = run_rep(ctx, nullptr, -1);
  const JobPass pass = run_job_pass(ctx, jobs, nullptr, -1);
  std::vector<RefJob> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string d = stats_digest(rep.per_job.at(i));
    if (pass.jobs[i].failed || stats_digest(pass.jobs[i].result) != d) {
      std::fprintf(stderr, "flexbench: %s: runner and Simulator disagree\n",
                   jobs[i].label.c_str());
      return 1;
    }
    out.push_back(RefJob{jobs[i].label, d, work_digest(pass.jobs[i].work),
                         rep.per_job[i].deadlock});
  }
  std::string error;
  if (!store_reference(reference, reference_key(ctx), out, &error)) {
    std::fprintf(stderr, "flexbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("recorded %zu jobs as %s in %s\n", out.size(),
              reference_key(ctx).c_str(), reference.c_str());
  return 0;
}

int run(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) return usage("bad arguments");
  RunContext ctx;
  ctx.workload = find_workload(a.workload);
  if (ctx.workload == nullptr) return usage("unknown workload");
  ctx.root = a.root;
  ctx.seed = a.seed;
  ctx.smoke = a.smoke;
  ctx.out_dir = a.out;
  const std::string reference = a.root + "/flexbench/reference.json";
  std::filesystem::create_directories(ctx.out_dir);

  const Workload& w = *ctx.workload;
  ctx.extra.set("seed", std::to_string(a.seed));
  ctx.extra.set("warmup", std::to_string(a.smoke ? w.smoke_warmup : w.warmup));
  ctx.extra.set("measure",
                std::to_string(a.smoke ? w.smoke_measure : w.measure));
  ctx.probe = w.probe;
  if (a.smoke) {
    ctx.probe.warmup = std::min(w.probe.warmup, w.smoke_warmup);
    ctx.probe.chunks = std::min(w.probe.chunks, 20);
    ctx.probe.telemetry_pairs = std::min(w.probe.telemetry_pairs, 2);
    ctx.probe.domain_pairs = std::min(w.probe.domain_pairs, 2);
  }
  for (const std::string& kv : a.sets) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) return usage("--set takes key=value");
    ctx.extra.set(kv.substr(0, eq), kv.substr(eq + 1));
  }

  Env env;
  env.nproc = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  ctx.nproc = env.nproc;
  const std::vector<Job> jobs = jobs_of(materialize(ctx));
  ctx.workers = std::max(1, std::min(ctx.nproc, static_cast<int>(jobs.size())));
  if (a.record) return record(ctx, a, reference, jobs);

  std::printf("flexbench: workload=%s seed=%llu seconds=%g trace=%d jobs=%zu "
              "workers=%d%s\n",
              w.name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace, jobs.size(), ctx.workers, a.smoke ? " smoke" : "");
  std::printf("%s\n", kModelNote);
  if (!env.release())
    std::printf("WARNING: not a Release build (%s); timings are not "
                "comparable\n",
                env.build_type.c_str());

  Checker check;
  check.ref = load_reference(reference, reference_key(ctx));
  check.at_reference = a.seed == kReferenceSeed;

  std::vector<Metric> metrics;
  SpanRecorder rec;
  if (a.trace == 0) {
    metrics = untraced_run(ctx, a, jobs, &check);
  } else {
    metrics = traced_run(ctx, jobs, &check, &rec);
    const std::vector<SpanRecord> spans = rec.spans();
    print_span_table(spans);
    if (!write_chrome_trace(spans, ctx.out_dir + "/spans.json"))
      check.note("could not write spans.json");
  }
  env.load_end = loadavg();

  std::printf("env: %s\n", env.json().c_str());
  print_metrics(metrics);
  std::printf("jobs: %lld attempted, %lld failed\n",
              static_cast<long long>(check.attempted),
              static_cast<long long>(check.failed));
  for (const std::string& p : check.problems)
    std::printf("FAILED %s\n", p.c_str());
  if (check.at_reference)
    std::printf("digests checked against flexbench/reference.json [%s]\n",
                reference_key(ctx).c_str());
  const bool correct = check.failed == 0 && check.problems.empty() &&
                       check.attempted > 0;
  const std::string line =
      result_json(correct, std::max<std::int64_t>(1, check.attempted),
                  check.failed, metrics);
  std::ofstream(ctx.out_dir + "/result.json")
      << "{\"env\": " << env.json() << ", \"result\": " << line << "}\n";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace flexbench

int main(int argc, char** argv) {
  try {
    return flexbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flexbench: %s\n", e.what());
    return 1;
  }
}
