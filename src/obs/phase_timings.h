#ifndef SKYUP_OBS_PHASE_TIMINGS_H_
#define SKYUP_OBS_PHASE_TIMINGS_H_

// Per-phase wall-time accounting for the top-k engines: where a query's
// time went (probing the index, reducing dominators to their skyline,
// Algorithm 1 upgrades, lower-bound pruning, the final merge), per shard
// and rolled up. This is the timing companion of `ExecStats` — the paper
// argues its experiments by exactly this breakdown (§V: probing vs join,
// dominator fetches vs Algorithm-1 calls), and a regression in
// BENCH_topk.json is only explainable with it.
//
// Collection is pull-based and null-safe: engines lap a `PhaseClock`
// bound to a shard-local `PhaseTimings`; a null sink compiles the laps
// down to a pointer test, so callers that do not ask for telemetry pay
// nothing measurable.

#include <cstddef>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/field_table.h"
#include "util/timer.h"

namespace skyup {

// X(field, name, metric, help): every engine phase, declared once. `name`
// labels the phase in `--profile` and, with an `_s` suffix, in flight
// records. The list generates PhaseTimings' fields and
// `kPhaseTimingsFields`, and through them MergeFrom, TotalSeconds, the
// phase gauges and profile rows (core/report.h) and the flight-record
// `phases` object (obs/flight_recorder.h).
// clang-format off
#define SKYUP_PHASE_TIMINGS_FIELDS(X)                          \
  X(probe_seconds, "probe", "skyup_phase_probe_seconds",       \
    "index traversal / dominator fetch")                       \
  X(skyline_seconds, "skyline", "skyup_phase_skyline_seconds", \
    "dominator-skyline reduction")                             \
  X(upgrade_seconds, "upgrade", "skyup_phase_upgrade_seconds", \
    "Algorithm 1 invocations")                                 \
  X(prune_seconds, "prune", "skyup_phase_prune_seconds",       \
    "sound lower-bound evaluations")                           \
  X(merge_seconds, "merge", "skyup_phase_merge_seconds",       \
    "shard collect/merge/sort")                                \
  X(other_seconds, "other", "skyup_phase_other_seconds",       \
    "residual attributed to no phase")
// clang-format on

/// Wall seconds spent per engine phase. Laps are contiguous (each lap
/// closes at the next one's start), so the field sum approximates the
/// instrumented region's wall time; `other_seconds` absorbs work that
/// belongs to no named phase, keeping that identity honest.
struct PhaseTimings {
#define SKYUP_PHASE_TIMINGS_MEMBER(field, name, metric, help) \
  double field = 0;
  SKYUP_PHASE_TIMINGS_FIELDS(SKYUP_PHASE_TIMINGS_MEMBER)
#undef SKYUP_PHASE_TIMINGS_MEMBER

  /// Field-wise sum, used wherever per-shard timings roll up into one
  /// view.
  PhaseTimings& MergeFrom(const PhaseTimings& other);
  PhaseTimings& operator+=(const PhaseTimings& other) {
    return MergeFrom(other);
  }

  /// Sum of every phase — the wall time the instrumentation attributed.
  double TotalSeconds() const;
};

inline constexpr FieldSpec<PhaseTimings, double> kPhaseTimingsFields[] = {
#define SKYUP_PHASE_TIMINGS_ROW(field, name, metric, help) \
  {name, metric, help, &PhaseTimings::field},
    SKYUP_PHASE_TIMINGS_FIELDS(SKYUP_PHASE_TIMINGS_ROW)
#undef SKYUP_PHASE_TIMINGS_ROW
};

inline PhaseTimings& PhaseTimings::MergeFrom(const PhaseTimings& other) {
  for (const auto& phase : kPhaseTimingsFields) {
    this->*phase.member += other.*phase.member;
  }
  return *this;
}

inline double PhaseTimings::TotalSeconds() const {
  double total = 0;
  for (const auto& phase : kPhaseTimingsFields) total += this->*phase.member;
  return total;
}

/// Phase timings of one query: the per-shard raw values (index = shard,
/// size = worker count actually used; sequential engines report one
/// shard) plus their roll-up. For parallel shards the roll-up sums CPU
/// time across workers, so it can exceed the query's wall clock.
struct PhaseBreakdown {
  PhaseTimings total;
  std::vector<PhaseTimings> per_shard;

  /// Appends one shard's timings and folds them into `total`.
  void AddShard(const PhaseTimings& shard) {
    per_shard.push_back(shard);
    total.MergeFrom(shard);
  }
};

/// Chained lap timer feeding a `PhaseTimings`: every `Lap(&field)` adds
/// the time since the previous lap (or construction) to that field and
/// returns it, so consecutive laps tile the elapsed wall time with no
/// gaps. A null sink disables all clock reads.
class PhaseClock {
 public:
  explicit PhaseClock(PhaseTimings* sink) : sink_(sink) {
    if (sink_ != nullptr) last_ = SteadyClock::now();
  }

  /// Closes the current lap into `field`; returns its seconds (0 when
  /// disabled).
  double Lap(double PhaseTimings::* field) {
    if (sink_ == nullptr) return 0.0;
    const SteadyClock::time_point now = SteadyClock::now();
    const double seconds =
        std::chrono::duration<double>(now - last_).count();
    sink_->*field += seconds;
    last_ = now;
    return seconds;
  }

  bool enabled() const { return sink_ != nullptr; }

 private:
  PhaseTimings* sink_;
  SteadyClock::time_point last_;
};

/// Everything one query reports beyond its results and `ExecStats`: the
/// phase breakdown plus per-candidate latency histograms. Shards collect
/// into local `ShardTelemetry` and flush here once, so the hot path never
/// shares this object.
struct QueryTelemetry {
  PhaseBreakdown phases;
  Histogram probe_latency{Histogram::DefaultLatencyBucketsSeconds()};
  Histogram upgrade_latency{Histogram::DefaultLatencyBucketsSeconds()};
};

/// Per-shard collection context: a phase clock over shard-local timings
/// and latency histograms, flushed into the query-level `QueryTelemetry`
/// after the shard finishes (for parallel engines, on the merging
/// thread). Engines allocate one per shard only when the caller asked for
/// telemetry and pass null otherwise — the `Lap*` free functions below
/// are null-safe so call sites stay unconditional.
class ShardTelemetry {
 public:
  ShardTelemetry() : clock_(&timings_) {}
  ShardTelemetry(const ShardTelemetry&) = delete;  // clock_ points into us
  ShardTelemetry& operator=(const ShardTelemetry&) = delete;

  void LapProbe() {
    probe_latency_.Observe(clock_.Lap(&PhaseTimings::probe_seconds));
  }
  void LapSkyline() { clock_.Lap(&PhaseTimings::skyline_seconds); }
  void LapUpgrade() {
    upgrade_latency_.Observe(clock_.Lap(&PhaseTimings::upgrade_seconds));
  }
  void LapPrune() { clock_.Lap(&PhaseTimings::prune_seconds); }
  void LapMerge() { clock_.Lap(&PhaseTimings::merge_seconds); }
  void LapOther() { clock_.Lap(&PhaseTimings::other_seconds); }

  /// Appends this shard's timings and histograms to `out`.
  void FlushInto(QueryTelemetry* out) const {
    out->phases.AddShard(timings_);
    out->probe_latency.MergeFrom(probe_latency_);
    out->upgrade_latency.MergeFrom(upgrade_latency_);
  }

  const PhaseTimings& timings() const { return timings_; }

 private:
  PhaseTimings timings_;
  PhaseClock clock_;
  Histogram probe_latency_{Histogram::DefaultLatencyBucketsSeconds()};
  Histogram upgrade_latency_{Histogram::DefaultLatencyBucketsSeconds()};
};

// Null-safe lap helpers: engines call these unconditionally on their hot
// paths; with telemetry off (`shard == nullptr`) each is one branch.
inline void LapProbe(ShardTelemetry* shard) {
  if (shard != nullptr) shard->LapProbe();
}
inline void LapSkyline(ShardTelemetry* shard) {
  if (shard != nullptr) shard->LapSkyline();
}
inline void LapUpgrade(ShardTelemetry* shard) {
  if (shard != nullptr) shard->LapUpgrade();
}
inline void LapPrune(ShardTelemetry* shard) {
  if (shard != nullptr) shard->LapPrune();
}
inline void LapMerge(ShardTelemetry* shard) {
  if (shard != nullptr) shard->LapMerge();
}
inline void LapOther(ShardTelemetry* shard) {
  if (shard != nullptr) shard->LapOther();
}

}  // namespace skyup

#endif  // SKYUP_OBS_PHASE_TIMINGS_H_
