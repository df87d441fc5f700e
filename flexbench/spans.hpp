// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into the
// simulator's public entry points (materialize_for_run, Network::Network,
// SweepRunner::run, Simulator::run, Network::step, JsonReport::write_file)
// and kept in memory until the run ends, when write_chrome_trace() dumps
// them. Each span has a name, a start, an end, the id of the span that
// caused it, and the worker track it ran on. A null recorder records
// nothing, so the untraced run shares the code path at no cost.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace flexbench {

struct SpanRecord {
  std::string name;
  int parent = -1;  ///< id (index) of the causing span; -1 at the root
  int tid = 0;      ///< worker track (0 = main thread)
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  int begin(std::string name, int parent, int tid) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(SpanRecord{std::move(name), parent, tid, t, t});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
  }

  /// Snapshot of every span recorded so far (call after workers joined).
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; inert when the recorder is null. id() is the parent handle
/// for nested spans (-1 when inert, which nests children at the root).
class Span {
 public:
  Span(SpanRecorder* rec, std::string name, int parent, int tid = 0)
      : rec_(rec),
        id_(rec != nullptr ? rec->begin(std::move(name), parent, tid) : -1) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

struct SpanTotals {
  int count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus the part children cover
};

/// Per-name totals with self time: a span's self time is its duration
/// minus the union of its children's intervals clipped to it (children on
/// parallel workers overlap, so their durations are not simply summed).
inline std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                            s.end_s);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo0, hi0] : iv) {
      const double lo = std::max(lo0, s.start_s);
      const double hi = std::min(hi0, s.end_s);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_s += s.end_s - s.start_s;
    t.self_s += (s.end_s - s.start_s) - covered;
  }
  return out;
}

/// Writes the spans as Chrome-trace "complete" events (ui.perfetto.dev
/// opens the file); the causing span travels as args.parent.
inline bool write_chrome_trace(const std::vector<SpanRecord>& spans,
                               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.tid, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace flexbench
