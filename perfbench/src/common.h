#ifndef SKYUP_PERFBENCH_COMMON_H_
#define SKYUP_PERFBENCH_COMMON_H_

// Shared pieces of the repository benchmark: command-line options, exact
// per-sample latency sets, the bench-side span recorder (Chrome trace
// events + per-layer self time), and the report every workload fills —
// provenance, workload spec, metrics — and prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/upgrade_result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs so every workload finishes in about a second (self-test).
  bool smoke = false;
  /// Where the full report and the Chrome trace are written.
  std::string out_dir = ".bench_out";
};

/// Exact per-sample values (milliseconds unless stated); quantiles use
/// linear interpolation between closest ranks.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Each is 0 for an empty set.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  double Max() const;

 private:
  std::vector<double> values_;
};

/// Bench-side spans around calls into the library's layers. A span's
/// name is "<layer>.<call>"; nesting is tracked per thread, so a span's
/// self time is its duration minus that of its direct children. Off
/// (the default), `Span` costs one branch.
class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  struct Event {
    const char* name;  ///< string literal
    uint32_t tid;
    int64_t parent;  ///< index into events, -1 for a root span
    int64_t start_ns;
    int64_t dur_ns;
    int64_t child_ns;  ///< total duration of direct children
  };

  int64_t Begin(const char* name);
  void End(int64_t index);

  /// Chrome trace-event JSON ("X" events, microseconds), loadable by
  /// Perfetto / chrome://tracing.
  bool WriteChromeTrace(const std::string& path) const;

  /// Self seconds summed per layer (the span-name prefix before the
  /// first '.'); root spans named "bench.*" are the unattributed
  /// remainder of the measured window.
  std::map<std::string, double> SelfSecondsByLayer() const;
  size_t size() const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
};

class Span {
 public:
  explicit Span(const char* name)
      : index_(Tracer::Get().enabled() ? Tracer::Get().Begin(name) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_;
};

/// Same ranked answers: equal length and, rank by rank, costs equal
/// within 1e-9 (ties may order products differently between engines).
bool SameRanking(const std::vector<skyup::UpgradeResult>& got,
                 const std::vector<skyup::UpgradeResult>& want, size_t k);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// `num / den`, or 0 when `den` is 0.
inline double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// `%.17g`: a double that survives the text round trip bit-exactly.
std::string Num17(double v);

/// The per-layer metrics every traced run reports, whatever the
/// workload (BENCHMARK.json lists the same names). A layer the workload
/// bypasses reads 0: it made no calls into it.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
inline constexpr LayerMetricDef kLayerMetrics[] = {
    {"planner.create_ms", "ms"},
    {"planner.pruned_ratio", "ratio"},
    {"skyline.gather_us", "us"},
    {"skyline.nodes_per_probe", "count"},
    {"skyline.points_per_probe", "count"},
    {"skyline.kernel_calls_per_probe", "count"},
    {"single_upgrade.upgrade_us", "us"},
    {"single_upgrade.skyline_size", "count"},
    {"join.first_result_ms", "ms"},
    {"join.heap_pops", "count"},
    {"join.lbc_evaluations", "count"},
    {"server.update_ms", "ms"},
    {"rebuilder.patch_ms", "ms"},
    {"rebuilder.major_ms", "ms"},
    {"rebuilder.patches", "count"},
    {"rebuilder.majors", "count"},
    {"query.probe_ms", "ms"},
    {"query.upgrade_ms", "ms"},
    {"query.delta_ops_per_query", "count"},
    {"query.candidates_per_query", "count"},
    {"upgrade_cache.hit_ratio", "ratio"},
    {"skyline_memo.hit_ratio", "ratio"},
    {"wire.rtt_ms", "ms"},
    {"wire.overhead_ms", "ms"},
    {"server.queue_ms", "ms"},
    {"server.execute_ms", "ms"},
    {"server.batch_size", "count"},
    {"shard_query.slowest_shard_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

/// One workload's output: provenance, spec, metrics and correctness.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  /// Workload spec: generator, sizes, dims, op mix, rates, options.
  std::vector<std::pair<std::string, std::string>> spec;
  /// End-to-end metrics gated by BENCHMARK.json (every workload).
  std::vector<Metric> end_to_end;
  /// Workload-specific end-to-end metrics (printed and saved, not gated).
  std::vector<Metric> extra;
  /// Per-layer values of the traced run, by `kLayerMetrics` name.
  std::map<std::string, double> layer;
  /// Free-form report sections (per-layer self-time table, ladder, ...).
  std::vector<std::string> notes;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string failure;  ///< first correctness failure, for the log

  void Spec(const std::string& key, const std::string& value) {
    spec.emplace_back(key, value);
  }
  void Spec(const std::string& key, double value);
  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
};

/// Adds the per-layer self-time table of the traced spans to `report` as
/// a note and writes the Chrome trace next to the report.
void AddSelfTimeTable(const Options& options, Report* report);

/// Prints the human-readable report, saves the JSON report under
/// `options.out_dir`, and prints the result line last. Returns the exit
/// code (non-zero when the build is not Release).
int Emit(const Options& options, const Report& report);

// Workloads.
Report RunOffline(const Options& options);
Report RunChurn(const Options& options);
Report RunWire(const Options& options);

}  // namespace perfbench

#endif  // SKYUP_PERFBENCH_COMMON_H_
