#ifndef SKYUP_SERVE_SERVER_H_
#define SKYUP_SERVE_SERVER_H_

// The serving front door: a bounded-queue session executor over one
// `ShardedTable` (N = 1 is the single-table case). Updates apply
// synchronously (validated, logged, visible); queries either run inline
// (`Query`/`QueryBatch`, the deterministic path) or through the worker
// pool (`Submit`) with admission control — a full queue rejects with
// `kResourceExhausted` instead of building unbounded backlog — and
// per-query deadlines enforced cooperatively by the query engine
// (core/query_control.h). Every query runs as a group through one
// executor, `ExecuteBatch` over `TopKShardedBatch`
// (serve/shard/shard_query.h); a solo query is a group of one. Snapshot
// regeneration runs on the table's background coordinator, or inline
// after each update when `ServerOptions::background_rebuild` is false
// (replay mode).

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/cost_function.h"
#include "core/query_control.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/rebuilder.h"
#include "serve/serve_stats.h"
#include "serve/shard/shard_query.h"
#include "serve/shard/sharded_table.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace skyup {

struct ServerOptions {
  size_t dims = 0;  ///< required, in [1, kMaxDims]
  /// Shard-per-core serving: P (and co-partitioned T) split into N
  /// spatial shards behind one id space and one cross-shard epoch
  /// (serve/shard/sharded_table.h); 1 is a single table. Must be in
  /// [1, kMaxShards]. Results are byte-identical for any value —
  /// fuzz/fuzz_serve.cc and the `--shards` replay guard enforce it.
  size_t shards = 1;
  /// Front-door tenant id stamped into flight records (0 = single-tenant).
  uint64_t tenant_id = 0;
  /// Worker threads draining the `Submit` queue.
  size_t query_threads = 2;
  /// Admission control: queued-but-not-started queries beyond this are
  /// rejected with `kResourceExhausted`.
  size_t max_pending = 64;
  double default_epsilon = 1e-6;
  size_t rtree_fanout = 64;
  /// Publish trigger: a cycle folds the delta log once the backlog holds
  /// this many ops (serve/rebuilder.h).
  size_t rebuild_threshold_ops = 1024;
  /// True: the table's background coordinator thread folds the delta
  /// log. False: the size threshold is applied inline after each accepted
  /// update — deterministic, used by `--replay`.
  bool background_rebuild = true;
  /// Grouped execution width: workers drain up to this many queued queries
  /// and run them as one shared candidate sweep (TopKShardedBatch). 1 =
  /// groups of one (the batching-off baseline); max kMaxServeBatch.
  /// Results are bit-identical either way.
  size_t batch_max = 1;
  /// With batch_max > 1: a worker that finds fewer than batch_max queued
  /// queries waits up to this long for more before executing what it has.
  /// 0 = never wait (drain whatever is queued).
  size_t batch_wait_us = 200;
  /// Byte budget (in MB) of the epoch-scoped skyline memo shared by all
  /// queries (serve/skyline_memo.h); 0 disables memoization.
  size_t memo_cache_mb = 16;
  /// Flight recorder (obs/flight_recorder.h): always-on bounded-memory
  /// rings of completed-query records and periodic system samples (sized
  /// by the `FlightRecorderOptions` defaults), kept for post-hoc dumps.
  /// Observe-only — turning it off changes nothing but the per-query
  /// record cost (one relaxed load when off).
  bool flight_recorder = true;
  /// Queries whose end-to-end latency reaches this many microseconds are
  /// promoted: marked slow in their flight record and emitted as a
  /// structured-log record carrying their retained trace spans.
  /// 0 disables promotion.
  uint64_t slow_query_us = 0;
  /// Period of background system samples; each lands in the sample ring
  /// and is emitted as a structured-log heartbeat. 0 = no sampler (a
  /// fresh sample is still taken at every dump).
  size_t stats_interval_ms = 0;
  /// Where `RequestDump()` (e.g. a SIGUSR1 handler) writes the JSONL
  /// diagnostics dump. Empty = dump requests are ignored. The
  /// diagnostics thread runs when this is set or the sampler is on.
  std::string flight_dump_path;
};

struct QueryRequest {
  size_t k = 1;
  /// 0 = no deadline. Enforced from submission time (queue wait counts).
  double timeout_seconds = 0.0;
  /// Optional external cancel/deadline token; when set, the server uses it
  /// instead of allocating one (the caller may `Cancel()` it any time).
  std::shared_ptr<QueryControl> control;
};

struct QueryResponse {
  Status status;  ///< OK, kResourceExhausted, kDeadlineExceeded, kCancelled
  /// Ranked results; `product_id` carries the *stable id*.
  std::vector<UpgradeResult> results;
  /// Epoch of the snapshot the query ran against (0 if it never ran).
  uint64_t epoch = 0;
  double wall_seconds = 0.0;
};

class Server {
 public:
  static Result<std::unique_ptr<Server>> Create(ProductCostFunction cost_fn,
                                                ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Update API — thin validated wrappers over the live table; rejected
  /// updates are counted but change nothing.
  Result<uint64_t> InsertCompetitor(const std::vector<double>& coords);
  Result<uint64_t> InsertProduct(const std::vector<double>& coords);
  Status EraseCompetitor(uint64_t id);
  Status EraseProduct(uint64_t id);

  /// Runs the query inline on the calling thread (still honors the
  /// request's deadline/control) as a group of one: `QueryBatch({request})`.
  QueryResponse Query(const QueryRequest& request);

  /// Runs a group of queries inline as ONE shared traversal — the
  /// deterministic path `--replay` uses for every run of consecutive
  /// queries. `responses[i]` corresponds to `requests[i]` and is
  /// bit-identical to `Query(requests[i])`. Group size must be <=
  /// kMaxServeBatch.
  std::vector<QueryResponse> QueryBatch(
      const std::vector<QueryRequest>& requests);

  /// Enqueues the query for the worker pool. The future always resolves:
  /// with results, with the admission rejection, or with the
  /// deadline/cancel status.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Aggregate counters since construction (one consistent copy).
  ServeStats stats() const;

  /// Dumps the flight recorder as JSONL (`flight_meta`, `query`, and
  /// `sample` lines). Takes one fresh system sample first, so the dump
  /// always ends with the state of "now". Observe-only and safe on a
  /// live server — admission and workers are never paused.
  void DumpDiagnostics(std::ostream& out);

  /// Requests an asynchronous diagnostics dump to
  /// `options().flight_dump_path`, drained by the diagnostics thread.
  /// Async-signal-safe: one lock-free atomic store, nothing else — this
  /// is exactly what a SIGUSR1 handler may call.
  void RequestDump() {
    // lint: relaxed-ok (lone request flag; the diagnostics thread polls
    // it and a late observation only delays the dump by one poll)
    dump_requested_.store(true, std::memory_order_relaxed);
  }

  /// The recorder itself, for tests and external dump plumbing.
  FlightRecorder& flight_recorder() { return recorder_; }

  /// Registers the serve counters, liveness gauges (epoch, snapshot age,
  /// delta backlog, live row counts), and the query latency histogram.
  void FillMetrics(MetricsRegistry* registry) const;

  /// Liveness accessors (replay and the load generator use these).
  uint64_t CurrentEpoch() const { return table_->epoch(); }
  size_t DeltaBacklog() const { return table_->delta_backlog(); }

  ShardedTable& table() { return *table_; }
  const ServerOptions& options() const { return options_; }

  /// Test seam: while held, workers do not dequeue — admission and
  /// deadline behavior become deterministic to test.
  void HoldWorkersForTest();
  void ReleaseWorkersForTest();

 private:
  Server(ProductCostFunction cost_fn, ServerOptions options,
         std::unique_ptr<ShardedTable> table);

  struct PendingQuery {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    std::shared_ptr<QueryControl> control;
    SteadyClock::time_point admitted{};  ///< for queue-wait attribution
  };

  /// The one executor: runs `group` as one sweep over one view set.
  /// `records` may be null (recorder off); otherwise it is resized to the
  /// group and each member's record gets the execution-side fields: the
  /// shared batch id (0 for a group of one), epoch, k, and the group's
  /// counters, slowest shard and — when every member carries a control —
  /// phase laps.
  std::vector<QueryResponse> ExecuteBatch(
      const std::vector<BatchQuery>& group,
      std::vector<QueryFlightRecord>* records);
  /// Callable while holding `queue_mu_` (Submit records rejections inside
  /// its admission critical section — the queue -> stats edge of the
  /// declared lock order), but never while holding `stats_mu_` itself.
  void RecordOutcome(const QueryResponse& response)
      SKYUP_EXCLUDES(stats_mu_);
  void AfterUpdate(const Result<uint64_t>& outcome)
      SKYUP_EXCLUDES(stats_mu_);
  void AfterUpdate(const Status& outcome) SKYUP_EXCLUDES(stats_mu_);
  void WorkerLoop() SKYUP_EXCLUDES(queue_mu_, stats_mu_);

  /// Admission-order query id; 0 is reserved for "never admitted".
  uint64_t NextQueryId() {
    // lint: relaxed-ok (pure id allocation; only uniqueness matters)
    return next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Stamps outcome fields (id, status, timing, slow promotion) and
  /// appends the record to the flight ring. `record` null = recorder off.
  void FinishFlight(QueryFlightRecord* record, const QueryResponse& response,
                    uint64_t query_id, double queue_seconds);
  /// Flight record for an admission rejection (shutdown / queue full).
  /// Called under `queue_mu_`; the recorder lock is a kObsFlight leaf, so
  /// the nesting is within the declared order.
  void RecordRejection(const QueryControl& control,
                       const QueryResponse& response);
  /// One consistent system sample into the sample ring; heartbeat=true
  /// also emits it as a structured-log record.
  void TakeSystemSample(bool heartbeat)
      SKYUP_EXCLUDES(queue_mu_, stats_mu_);
  void DiagnosticsLoop() SKYUP_EXCLUDES(diag_mu_);
  void WriteRequestedDump();

  ProductCostFunction cost_fn_;
  ServerOptions options_;
  std::unique_ptr<ShardedTable> table_;
  RebuildPolicy inline_policy_;

  // kServerStats band: acquired under `queue_mu_` (Submit's rejection
  // accounting) and above the publish coordinator lock (stats() reads the
  // publish counters) and the metrics registry (FillMetrics exports
  // under it).
  mutable Mutex stats_mu_ SKYUP_ACQUIRED_AFTER(lock_order::kServerStats)
      SKYUP_ACQUIRED_BEFORE(lock_order::kRebuilder);
  ServeStats stats_ SKYUP_GUARDED_BY(stats_mu_);
  Histogram query_latency_ SKYUP_GUARDED_BY(stats_mu_){
      Histogram::DefaultLatencyBucketsSeconds()};
  /// Queries per grouped execution (observed once per group).
  Histogram batch_size_ SKYUP_GUARDED_BY(stats_mu_){
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}};

  // kServerQueue band: the outermost lock in the process — nothing is
  // ever acquired before it.
  Mutex queue_mu_ SKYUP_ACQUIRED_AFTER(lock_order::kServerQueue)
      SKYUP_ACQUIRED_BEFORE(lock_order::kServerStats);
  CondVar queue_cv_;
  std::deque<PendingQuery> queue_ SKYUP_GUARDED_BY(queue_mu_);
  bool shutdown_ SKYUP_GUARDED_BY(queue_mu_) = false;
  bool hold_workers_ SKYUP_GUARDED_BY(queue_mu_) = false;
  /// Written once at construction, joined once at destruction; no guard.
  std::vector<std::thread> workers_;

  // Flight recorder + diagnostics thread. The recorder has its own leaf
  // lock (kObsFlight); `diag_mu_` only covers the sampler's shutdown
  // handshake and is never held while sampling, so it sits beside
  // `queue_mu_` in the order without nesting anything.
  FlightRecorder recorder_;
  std::atomic<uint64_t> next_query_id_{0};
  std::atomic<uint64_t> next_batch_id_{0};
  std::atomic<bool> dump_requested_{false};
  Mutex diag_mu_ SKYUP_ACQUIRED_AFTER(lock_order::kServerQueue)
      SKYUP_ACQUIRED_BEFORE(lock_order::kServerStats);
  CondVar diag_cv_;
  bool diag_shutdown_ SKYUP_GUARDED_BY(diag_mu_) = false;
  std::thread diag_thread_;  ///< joined at destruction; no guard
};

}  // namespace skyup

#endif  // SKYUP_SERVE_SERVER_H_
