// flexbench workloads: the workload table, set-up and timed repetitions
// through the simulator's public entry points, the traced per-job pass,
// and the digests and reference file that gate correctness.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "runner/json_parser.hpp"
#include "runner/json_report.hpp"
#include "runner/sweep_runner.hpp"
#include "runner/thread_pool.hpp"
#include "sim/network.hpp"
#include "telemetry/telemetry.hpp"

namespace flexbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Horizons and probe plans are part of each workload's definition;
  // README.md gives the reasons. Probe chunk counts give at least 1,000
  // chunks per workload so the p99 chunk time has 10 chunks beyond it.
  static const std::vector<Workload> table = {
      {"paper_un_min", "flexbench/suites/paper_un_min.json",
       /*warmup=*/100, /*measure=*/200, /*smoke=*/4, 8,
       ProbePlan{/*warmup=*/200, /*chunks=*/1000, /*chunk_cycles=*/1,
                 /*telemetry_pairs=*/40, /*domain_job=*/0,
                 /*domain_pairs=*/60}},
      {"fig9_reactive", "examples/suites/fig9_vc_selection.json",
       /*warmup=*/2000, /*measure=*/4000, /*smoke=*/50, 100,
       ProbePlan{/*warmup=*/1000, /*chunks=*/40, /*chunk_cycles=*/10,
                 /*telemetry_pairs=*/10, /*domain_job=*/0,
                 /*domain_pairs=*/40}},
      {"toy_load_ramp", "flexbench/suites/toy_load_ramp.json",
       /*warmup=*/10000, /*measure=*/20000, /*smoke=*/50, 100,
       ProbePlan{/*warmup=*/2000, /*chunks=*/125, /*chunk_cycles=*/10,
                 /*telemetry_pairs=*/10, /*domain_job=*/3,
                 /*domain_pairs=*/50}},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

flexnet::MaterializedSuite materialize(const RunContext& ctx) {
  flexnet::MaterializedSuite ms = flexnet::materialize_for_run(
      ctx.root + "/" + ctx.workload->suite, &ctx.extra);
  if (ms.seeds != 1)
    throw std::runtime_error("flexbench: workload suites run one seed per point");
  return ms;
}

std::vector<Job> jobs_of(const flexnet::MaterializedSuite& ms) {
  std::vector<Job> jobs;
  for (const flexnet::ExperimentSeries& s : ms.grid) {
    for (double load : ms.spec.loads) {
      char label[160];
      std::snprintf(label, sizeof(label), "%s load=%g", s.label.c_str(), load);
      jobs.push_back(
          Job{label, flexnet::SweepRunner::job_config(s.config, load, 0)});
    }
  }
  return jobs;
}

SetupSample measure_setup(const RunContext& ctx, SpanRecorder* rec,
                          int parent) {
  SetupSample s;
  const Span setup(rec, "setup", parent);
  const auto t0 = Clock::now();
  flexnet::MaterializedSuite ms;
  {
    const Span span(rec, "scenario.materialize", setup.id());
    ms = materialize(ctx);
  }
  s.materialize_s = seconds_since(t0);
  for (const Job& job : jobs_of(ms)) {
    std::unique_ptr<flexnet::Network> net;
    const auto b0 = Clock::now();
    {
      const Span span(rec, "network.build", setup.id());
      net = std::make_unique<flexnet::Network>(job.config);
    }
    const double b = seconds_since(b0);
    s.build_total_s += b;
    s.build_max_s = std::max(s.build_max_s, b);
  }
  s.setup_s = s.materialize_s + s.build_total_s;
  return s;
}

RepResult run_rep(const RunContext& ctx, SpanRecorder* rec, int parent) {
  namespace fs = std::filesystem;
  RepResult out;
  const std::string journal = ctx.out_dir + "/journal.ckpt";
  const std::string report_path = ctx.out_dir + "/report.json";
  // A journal left by the previous repetition would resume it and skip
  // every job: each repetition starts from nothing.
  fs::remove(journal);
  fs::remove(journal + ".hb");
  fs::remove(report_path);

  const Span rep(rec, "rep", parent);
  const auto t0 = Clock::now();
  flexnet::MaterializedSuite ms;
  {
    const Span span(rec, "scenario.materialize", rep.id());
    ms = materialize(ctx);
  }
  flexnet::SweepRunner runner(ctx.workers);
  runner.set_checkpoint(journal);
  std::vector<flexnet::SweepResult> rows;
  const auto s0 = Clock::now();
  {
    const Span span(rec, "runner.run", rep.id());
    rows = runner.run(ms.grid, ms.spec.loads, ms.seeds);
  }
  out.sweep_s = seconds_since(s0);

  flexnet::JsonReport report;
  report.set_meta("workload", std::string(ctx.workload->name));
  report.set_meta("seed", static_cast<std::int64_t>(ctx.seed));
  report.set_meta("jobs", static_cast<std::int64_t>(ctx.workers));
  report.add_sweep(ms.spec.title, rows, out.sweep_s);
  const auto w0 = Clock::now();
  {
    const Span span(rec, "report.write", rep.id());
    out.report_ok = report.write_file(report_path);
  }
  out.report_s = seconds_since(w0);
  out.wall_s = seconds_since(t0);

  for (const flexnet::SweepResult& s : rows) {
    for (const flexnet::SweepRow& row : s.rows) {
      out.per_job.push_back(row.result);
      out.cycles += row.result.cycles;
    }
  }
  std::error_code ec;
  const auto bytes = fs::file_size(journal, ec);
  out.journal_bytes = ec ? 0 : static_cast<std::int64_t>(bytes);
  return out;
}

TelemetrySums sum_telemetry(const flexnet::TelemetryCounters& t) {
  TelemetrySums sums;
  sums.requests = t.total_requests();
  sums.grants = t.total_grants();
  sums.conflicts = t.total_conflicts();
  sums.steps = t.steps();
  sums.router_steps = t.steps() * t.routers();
  sums.link_steps = t.steps() * t.links();
  sums.alloc_routers_sum = t.alloc_routers_sum();
  sums.active_links_sum = t.active_links_sum();
  sums.live_packets_sum = t.live_packets_sum();
  // Counters with no aggregate getter are summed by suffix from the
  // rendered snapshot ("router.<r>.injections 12").
  const std::pair<const char*, std::int64_t*> by_suffix[] = {
      {".injections", &sums.injections},
      {".flits", &sums.flits},
      {".flit_stalls", &sums.flit_stalls},
      {".transit_flits", &sums.transit_flits},
  };
  std::istringstream in(t.render());
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    for (const auto& [suffix, total] : by_suffix) {
      const std::size_t n = std::strlen(suffix);
      if (sp >= n && line.compare(sp - n, n, suffix) == 0) {
        *total += std::stoll(line.substr(sp + 1));
        break;
      }
    }
  }
  return sums;
}

JobPass run_job_pass(const RunContext& ctx, const std::vector<Job>& jobs,
                     SpanRecorder* rec, int parent) {
  JobPass pass;
  pass.jobs.resize(jobs.size());
  std::mutex mu;
  const Span span(rec, "runner.jobs", parent);
  const auto t0 = Clock::now();
  {
    flexnet::ThreadPool pool(ctx.workers);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      pool.submit([&, i] {
        JobOutcome& out = pass.jobs[i];
        const auto b0 = Clock::now();
        try {
          flexnet::Simulator sim(jobs[i].config);
          sim.set_telemetry(true);
          SimResult r;
          {
            const Span job_span(rec, "simulator.run", span.id(),
                                flexnet::ThreadPool::current_worker());
            const auto j0 = Clock::now();
            r = sim.run();
            out.run_s = seconds_since(j0);
          }
          out.result = flexnet::SweepRunner::aggregate_seeds({r});
          const flexnet::Network& net = *sim.network();
          out.work.grants = net.total_grants();
          out.work.re_requests = net.re_requests();
          out.work.escape_grants = net.escape_grants();
          out.work.overflow_picks = net.overflow_picks();
          out.work.lowest_picks = net.lowest_picks();
          out.work.consumed = net.metrics().consumed_packets();
          // Addition is commutative: the aggregate does not depend on
          // completion order.
          const std::lock_guard<std::mutex> lock(mu);
          pass.telemetry.merge(net.telemetry());
        } catch (const std::exception& e) {
          out.failed = true;
          out.error = e.what();
        }
        out.busy_s = seconds_since(b0);
      });
    }
    pool.wait_idle();
  }
  pass.wall_s = seconds_since(t0);
  return pass;
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

}  // namespace

std::string stats_digest(const SimResult& r) {
  Fnv f;
  for (double v : {r.offered, r.accepted, r.avg_latency, r.avg_hops,
                   r.request_latency, r.reply_latency, r.latency_p50,
                   r.latency_p99, r.latency_max})
    f.add(v);
  f.add(static_cast<std::int64_t>(r.consumed_packets));
  f.add(static_cast<std::int64_t>(r.cycles));
  f.add(static_cast<unsigned char>(r.deadlock ? 1 : 0));
  return f.hex();
}

std::string work_digest(const WorkCounts& w) {
  Fnv f;
  f.add(w.grants);
  f.add(w.re_requests);
  return f.hex();
}

std::string reference_key(const RunContext& ctx) {
  return std::string(ctx.workload->name) + (ctx.smoke ? "/smoke" : "/full");
}

namespace {

bool read_file(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *text = ss.str();
  return true;
}

}  // namespace

Reference load_reference(const std::string& path, const std::string& key) {
  Reference ref;
  std::string text;
  std::string error;
  flexnet::JsonValue doc;
  if (!read_file(path, &text) || !flexnet::json_parse(text, &doc, &error))
    return ref;
  const flexnet::JsonValue* entries = doc.find("entries");
  const flexnet::JsonValue* jobs =
      entries != nullptr ? entries->find(key) : nullptr;
  if (jobs == nullptr || !jobs->is_array()) return ref;
  for (const flexnet::JsonValue& j : jobs->array) {
    RefJob rj;
    if (const auto* v = j.find("label")) rj.label = v->string_or("");
    if (const auto* v = j.find("stats")) rj.stats = v->string_or("");
    if (const auto* v = j.find("work")) rj.work = v->string_or("");
    if (const auto* v = j.find("deadlock")) rj.deadlock = v->boolean;
    ref.jobs.push_back(rj);
  }
  return ref;
}

bool store_reference(const std::string& path, const std::string& key,
                     const std::vector<RefJob>& jobs, std::string* error) {
  using flexnet::JsonValue;
  JsonValue old;
  std::string text;
  if (read_file(path, &text) && !flexnet::json_parse(text, &old, error))
    return false;
  JsonValue entries = JsonValue::make_object();
  if (const JsonValue* prev = old.find("entries")) {
    for (const auto& [k, v] : prev->object)
      if (k != key) entries.set(k, v);
  }
  JsonValue list = JsonValue::make_array();
  for (const RefJob& j : jobs) {
    JsonValue o = JsonValue::make_object();
    o.set("label", JsonValue::make_string(j.label));
    o.set("stats", JsonValue::make_string(j.stats));
    o.set("work", JsonValue::make_string(j.work));
    o.set("deadlock", JsonValue::make_bool(j.deadlock));
    list.array.push_back(o);
  }
  entries.set(key, list);
  JsonValue doc = JsonValue::make_object();
  doc.set("seed", JsonValue::make_number(static_cast<double>(kReferenceSeed)));
  doc.set("entries", entries);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << flexnet::json_serialize(doc, 0) << '\n';
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace flexbench
