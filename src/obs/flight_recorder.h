#ifndef SKYUP_OBS_FLIGHT_RECORDER_H_
#define SKYUP_OBS_FLIGHT_RECORDER_H_

// Black-box flight recorder for the serve tier: a fixed-size ring of
// completed-query records plus a ring of periodic system samples, kept
// in memory at all times and dumped post hoc (CLI `--flight-out`,
// `Server::DumpDiagnostics`, or SIGUSR1 on a live process).
//
// Everything the PR-4 observability stack exports at end-of-run is
// aggregate; when a query goes slow under churn there is no record of
// what the system was doing at that moment. The recorder closes that
// gap with bounded memory: the query ring holds the last N completed
// queries (id, status, latency, phase breakdown, work counters, cache
// flags), the sample ring holds the last M system snapshots (epoch +
// age, queue depth, delta backlog, tombstone %, memo bytes, publish
// counters). Rings overwrite oldest-first; drop counts are reported in
// the dump so truncation is visible.
//
// Cost discipline: `enabled()` is one relaxed atomic load — a disabled
// recorder costs nothing on the hot path. Recording itself takes the
// recorder mutex (rank `lock_order::kObsFlight`, below the metrics/
// trace registries, above only the log sink) for a struct copy — it is
// off the per-candidate hot path, paid once per completed query.
//
// This is deliberately a plain-data layer: records carry flat integers
// and `PhaseTimings`, not serve-layer types, so obs/ keeps linking only
// against util/ and the sharded front door can reuse it unchanged.

#include <cstdint>
#include <ostream>
#include <vector>

#include "obs/phase_timings.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace skyup {

// X(field): the per-query work counters a flight record keeps, in JSON
// key order. Each is the `ServeStats` counter of the same name, measured
// over the query's group (one sweep serves every member); obs/ may not
// include serve/, so the list lives here and `Server::ExecuteBatch`
// copies it by name (a name that is not a `ServeStats` field fails to
// compile there).
// clang-format off
#define SKYUP_FLIGHT_RECORD_COUNTERS(X) \
  X(candidates_evaluated)               \
  X(candidates_pruned)                  \
  X(delta_ops_scanned)                  \
  X(cache_hits)                         \
  X(cache_misses)                       \
  X(memo_hits)                          \
  X(memo_misses)
// clang-format on

/// One completed query, as remembered by the ring.
struct QueryFlightRecord {
  uint64_t query_id = 0;   ///< admission-assigned id (0 = unattributed)
  uint64_t batch_id = 0;   ///< shared by a group's members (0 = group of one)
  uint64_t tenant_id = 0;  ///< front-door tenant (0 = single-tenant serve)
  uint64_t epoch = 0;      ///< snapshot epoch the query was served at
  uint64_t end_ts_us = 0;  ///< wall-clock completion time (unix µs)
  StatusCode status = StatusCode::kOk;
  uint32_t k = 0;        ///< requested result count
  uint32_t results = 0;  ///< results actually returned
  double queue_seconds = 0;  ///< admission → execution start
  double wall_seconds = 0;   ///< admission → completion
  PhaseTimings phases;       ///< engine phase breakdown (rolled up)
#define SKYUP_FLIGHT_RECORD_MEMBER(field) uint64_t field = 0;
  SKYUP_FLIGHT_RECORD_COUNTERS(SKYUP_FLIGHT_RECORD_MEMBER)
#undef SKYUP_FLIGHT_RECORD_MEMBER
  /// Scatter-gather attribution, shared by a group's members: which
  /// shard dominated the group's wall time.
  uint32_t shard_count = 0;
  uint32_t slowest_shard = 0;
  double slowest_shard_seconds = 0;
  bool slow = false;  ///< promoted by the --slow-query-us threshold
};

/// One periodic snapshot of serve-tier health.
struct SystemSample {
  uint64_t ts_us = 0;  ///< wall-clock sample time (unix µs)
  uint64_t epoch = 0;
  double snapshot_age_seconds = 0;
  uint64_t queue_depth = 0;    ///< admission queue occupancy
  uint64_t delta_backlog = 0;  ///< unpublished delta ops
  double tombstone_pct = 0;    ///< share of a shard's index pending erases mask
  uint64_t memo_bytes = 0;     ///< skyline-memo footprint
  uint64_t rebuilds_published = 0;
  uint64_t patches_published = 0;
  uint64_t live_competitors = 0;
  uint64_t live_products = 0;
};

struct FlightRecorderOptions {
  size_t query_ring = 1024;  ///< completed-query records retained
  size_t sample_ring = 256;  ///< system samples retained
};

/// Lifetime/drop counters, for the dump header and tests.
struct FlightRecorderStats {
  uint64_t queries_recorded = 0;
  uint64_t queries_dropped = 0;  ///< overwritten by ring wrap-around
  uint64_t samples_recorded = 0;
  uint64_t samples_dropped = 0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(const FlightRecorderOptions& options = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The hot-path gate: one relaxed atomic load. Callers skip record
  /// assembly entirely when false.
  bool enabled() const {
    // lint: relaxed-ok (pure on/off gate; a racing toggle merely
    // records or skips one query, same as the trace gate)
    return enabled_.load(std::memory_order_relaxed);
  }
  /// lint: relaxed-ok (gate toggle; see enabled())
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  void RecordQuery(const QueryFlightRecord& record);
  void RecordSample(const SystemSample& sample);

  /// Retained records, oldest-first. Copies under the recorder lock.
  std::vector<QueryFlightRecord> QueryRecords() const;
  std::vector<SystemSample> Samples() const;
  FlightRecorderStats stats() const;

  /// Drops all retained records and resets the drop counters.
  void Clear();

  /// Dumps the rings as JSONL: one `flight_meta` header line, then one
  /// `query` line per retained record (oldest-first), then one `sample`
  /// line per retained sample. Every line is a self-contained JSON
  /// object — `python3 -m json.tool` validates each.
  void WriteJsonl(std::ostream& out) const;

  const FlightRecorderOptions& options() const { return options_; }

 private:
  const FlightRecorderOptions options_;
  std::atomic<bool> enabled_{true};
  mutable Mutex mu_ SKYUP_ACQUIRED_AFTER(lock_order::kObsFlight);
  std::vector<QueryFlightRecord> queries_ SKYUP_GUARDED_BY(mu_);
  std::vector<SystemSample> samples_ SKYUP_GUARDED_BY(mu_);
  uint64_t queries_recorded_ SKYUP_GUARDED_BY(mu_) = 0;
  uint64_t samples_recorded_ SKYUP_GUARDED_BY(mu_) = 0;
};

/// Formats one record / sample as a single-line JSON object (no trailing
/// newline) — shared by `WriteJsonl` and the slow-query log path.
std::string QueryRecordJson(const QueryFlightRecord& record);
std::string SystemSampleJson(const SystemSample& sample);

}  // namespace skyup

#endif  // SKYUP_OBS_FLIGHT_RECORDER_H_
