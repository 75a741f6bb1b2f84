#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <utility>

#include "obs/log.h"
#include "obs/trace.h"
#include "rtree/mbr.h"
#include "util/check.h"
#include "util/timer.h"

namespace skyup {

namespace {

uint64_t NowUnixMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Server::Server(ProductCostFunction cost_fn, ServerOptions options,
               std::unique_ptr<ShardedTable> table)
    : cost_fn_(std::move(cost_fn)),
      options_(options),
      table_(std::move(table)),
      recorder_(FlightRecorderOptions{options.flight_query_ring,
                                      options.flight_sample_ring}) {
  recorder_.set_enabled(options_.flight_recorder);
}

Result<std::unique_ptr<Server>> Server::Create(ProductCostFunction cost_fn,
                                               ServerOptions options) {
  if (options.dims < 1 || options.dims > kMaxDims) {
    return Status::InvalidArgument("server dims must be in [1, " +
                                   std::to_string(kMaxDims) + "]");
  }
  if (options.shards < 1 || options.shards > kMaxShards) {
    return Status::InvalidArgument("server shards must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  if (cost_fn.dims() != options.dims) {
    return Status::InvalidArgument(
        "cost function dimensionality " + std::to_string(cost_fn.dims()) +
        " does not match server dims " + std::to_string(options.dims));
  }
  if (options.query_threads < 1) {
    return Status::InvalidArgument("query_threads must be >= 1");
  }
  if (options.max_pending < 1) {
    return Status::InvalidArgument("max_pending must be >= 1");
  }
  if (options.default_epsilon <= 0.0) {
    return Status::InvalidArgument("default_epsilon must be positive");
  }
  if (options.rebuild_threshold_ops < 1) {
    return Status::InvalidArgument("rebuild_threshold_ops must be >= 1");
  }
  if (options.batch_max < 1 || options.batch_max > kMaxServeBatch) {
    return Status::InvalidArgument(
        "batch_max must be in [1, " + std::to_string(kMaxServeBatch) + "]");
  }
  ShardedTableOptions table_options;
  table_options.dims = options.dims;
  table_options.shards = options.shards;
  table_options.rtree_fanout = options.rtree_fanout;
  table_options.memo_cache_bytes = options.memo_cache_mb * (1u << 20);
  Result<std::unique_ptr<ShardedTable>> table =
      ShardedTable::Create(table_options);
  if (!table.ok()) return table.status();

  std::unique_ptr<Server> server(new Server(std::move(cost_fn), options,
                                            std::move(table).value()));
  RebuildPolicy policy;
  policy.threshold_ops = options.rebuild_threshold_ops;
  policy.max_age_seconds = options.rebuild_max_age_seconds;
  policy.min_publish_backlog = options.publish_min_backlog;
  policy.min_publish_interval_seconds = options.publish_min_interval_seconds;
  policy.compact_tombstone_pct = options.compact_tombstone_pct;
  policy.compact_tail_pct = options.compact_tail_pct;
  server->inline_policy_ = policy;
  {
    // Config echoes: a stats dump documents the policy it ran under. No
    // worker exists yet, so the lock is uncontended — taken only to keep
    // the GUARDED_BY invariant on stats_ unconditional.
    MutexLock lock(server->stats_mu_);
    server->stats_.rebuild_threshold_ops = options.rebuild_threshold_ops;
    server->stats_.publish_min_backlog = options.publish_min_backlog;
    server->stats_.publish_min_interval_ms = static_cast<uint64_t>(
        options.publish_min_interval_seconds * 1000.0);
    server->stats_.compact_tombstone_pct = options.compact_tombstone_pct;
    server->stats_.compact_tail_pct = options.compact_tail_pct;
    server->stats_.batch_max_queries = options.batch_max;
    server->stats_.batch_wait_us = options.batch_wait_us;
    server->stats_.memo_cache_mb = options.memo_cache_mb;
    server->stats_.shards = options.shards;
  }
  if (options.background_rebuild) server->table_->Start(policy);
  server->workers_.reserve(options.query_threads);
  for (size_t i = 0; i < options.query_threads; ++i) {
    server->workers_.emplace_back([raw = server.get()] {
      raw->WorkerLoop();
    });
  }
  // The diagnostics thread exists only when it has work: periodic
  // samples, or a dump path that RequestDump() targets.
  if (options.stats_interval_ms > 0 || !options.flight_dump_path.empty()) {
    server->diag_thread_ = std::thread([raw = server.get()] {
      raw->DiagnosticsLoop();
    });
  }
  return server;
}

Server::~Server() {
  {
    MutexLock lock(diag_mu_);
    diag_shutdown_ = true;
  }
  diag_cv_.notify_all();
  if (diag_thread_.joinable()) diag_thread_.join();
  {
    MutexLock lock(queue_mu_);
    shutdown_ = true;
    hold_workers_ = false;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Drain: resolve every query the workers never picked up. The workers
  // are joined, so the lock is uncontended; RecordOutcome under it is the
  // same queue -> stats nesting Submit establishes.
  {
    MutexLock lock(queue_mu_);
    for (PendingQuery& pending : queue_) {
      QueryResponse response;
      response.status = Status::Cancelled("server shutting down");
      RecordOutcome(response);
      pending.promise.set_value(std::move(response));
    }
  }
  table_->Stop();
}

void Server::AfterUpdate(const Result<uint64_t>& outcome) {
  AfterUpdate(outcome.status());
}

void Server::AfterUpdate(const Status& outcome) {
  {
    MutexLock lock(stats_mu_);
    if (outcome.ok()) {
      ++stats_.updates_applied;
    } else {
      ++stats_.updates_rejected;
    }
  }
  if (!outcome.ok()) return;
  if (options_.background_rebuild) {
    table_->Nudge();
    return;
  }
  // Deterministic mode: apply the size threshold right here, so publish
  // timing (and the patch-vs-major choice) is a pure function of the op
  // sequence. The trigger fires on the TOTAL backlog across shards, so
  // publish-cycle boundaries are identical for every shard count (the
  // `--shards` replay guard depends on this). Cycle counters live in the
  // table; stats() overlays them. A failed cycle is remembered by the
  // table (last_error()); frozen ops stay pending and the next cycle
  // re-offers them.
  (void)table_->MaybePublishInline(inline_policy_);
}

Result<uint64_t> Server::InsertCompetitor(
    const std::vector<double>& coords) {
  Result<uint64_t> outcome = table_->InsertCompetitor(coords);
  AfterUpdate(outcome);
  return outcome;
}

Result<uint64_t> Server::InsertProduct(const std::vector<double>& coords) {
  Result<uint64_t> outcome = table_->InsertProduct(coords);
  AfterUpdate(outcome);
  return outcome;
}

Status Server::EraseCompetitor(uint64_t id) {
  Status outcome = table_->EraseCompetitor(id);
  AfterUpdate(outcome);
  return outcome;
}

Status Server::EraseProduct(uint64_t id) {
  Status outcome = table_->EraseProduct(id);
  AfterUpdate(outcome);
  return outcome;
}

QueryResponse Server::Execute(const QueryRequest& request,
                              const QueryControl* control,
                              QueryFlightRecord* record) {
  QueryResponse response;
  Timer wall;
  ServeStats query_stats;
  // Phase attribution costs per-candidate clock laps, so it is collected
  // only for queries that both want a record and carry a control (every
  // Submit allocates one; the deterministic control-free inline path —
  // what --replay and the benches drive — stays lap-free).
  std::optional<QueryTelemetry> telemetry;
  if (record != nullptr && control != nullptr) telemetry.emplace();
  ShardQueryInfo shard_info;
  const ShardedView views = table_->AcquireViews();
  response.epoch = views.epoch;
  std::vector<BatchQueryResult> outcome;
  TopKShardedBatch(views, cost_fn_, {BatchQuery{request.k, control}},
                   options_.default_epsilon, options_.shard_query_threads,
                   &outcome, &query_stats,
                   telemetry.has_value() ? &*telemetry : nullptr, &shard_info);
  {
    MutexLock lock(stats_mu_);
    stats_.MergeFrom(query_stats);
  }
  response.status = std::move(outcome.front().status);
  response.results = std::move(outcome.front().results);
  response.wall_seconds = wall.ElapsedSeconds();
  if (record != nullptr) {
    record->epoch = response.epoch;
    record->k = static_cast<uint32_t>(request.k);
    if (telemetry.has_value()) record->phases = telemetry->phases.total;
    record->candidates_evaluated = query_stats.candidates_evaluated;
    record->candidates_pruned = query_stats.candidates_pruned;
    record->delta_ops_scanned = query_stats.delta_ops_scanned;
    record->cache_hits = query_stats.cache_hits;
    record->cache_misses = query_stats.cache_misses;
    record->memo_hits = query_stats.memo_hits;
    record->memo_misses = query_stats.memo_misses;
    record->shard_count = shard_info.shard_count;
    record->slowest_shard = shard_info.slowest_shard;
    record->slowest_shard_seconds = shard_info.slowest_shard_seconds;
  }
  return response;
}

std::vector<QueryResponse> Server::ExecuteBatch(
    const std::vector<const QueryRequest*>& requests,
    const std::vector<const QueryControl*>& controls,
    std::vector<QueryFlightRecord>* records) {
  SKYUP_CHECK(requests.size() == controls.size());
  SKYUP_CHECK(!requests.empty() && requests.size() <= kMaxServeBatch);
  Timer wall;
  ServeStats batch_stats;
  batch_stats.batches_executed = 1;
  if (requests.size() >= 2) batch_stats.batched_queries = requests.size();
  std::vector<BatchQuery> batch;
  batch.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    BatchQuery q;
    q.k = requests[i]->k;
    q.control = controls[i];
    batch.push_back(q);
  }
  // One consistent view set AND one candidate sweep for the whole group
  // — each member's result is bit-identical to its solo execution.
  const ShardedView views = table_->AcquireViews();
  const uint64_t group_epoch = views.epoch;
  std::vector<BatchQueryResult> outcomes;
  TopKShardedBatch(views, cost_fn_, batch, options_.default_epsilon,
                   options_.shard_query_threads, &outcomes, &batch_stats);
  const double elapsed = wall.ElapsedSeconds();
  {
    MutexLock lock(stats_mu_);
    stats_.MergeFrom(batch_stats);
    batch_size_.Observe(static_cast<double>(requests.size()));
  }
  std::vector<QueryResponse> responses(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    responses[i].epoch = group_epoch;
    responses[i].wall_seconds = elapsed;
    if (outcomes[i].status.ok()) {
      responses[i].results = std::move(outcomes[i].results);
    } else {
      responses[i].status = std::move(outcomes[i].status);
    }
  }
  if (records != nullptr) {
    // Batch members share one traversal, so per-member work counters and
    // phase laps are not attributable — records carry the shared batch id
    // (0 for a group of one) plus the member's own epoch/k/outcome, and
    // leave the counters zero.
    records->assign(requests.size(), QueryFlightRecord{});
    const uint64_t batch_id =
        requests.size() >= 2
            // lint: relaxed-ok (pure id allocation; only uniqueness matters)
            ? next_batch_id_.fetch_add(1, std::memory_order_relaxed) + 1
            : 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      (*records)[i].batch_id = batch_id;
      (*records)[i].epoch = group_epoch;
      (*records)[i].k = static_cast<uint32_t>(requests[i]->k);
    }
  }
  return responses;
}

void Server::RecordOutcome(const QueryResponse& response) {
  MutexLock lock(stats_mu_);
  switch (response.status.code()) {
    case StatusCode::kOk:
      ++stats_.queries_executed;
      query_latency_.Observe(response.wall_seconds);
      break;
    case StatusCode::kDeadlineExceeded:
      ++stats_.queries_timed_out;
      break;
    case StatusCode::kResourceExhausted:
      ++stats_.queries_rejected;
      break;
    default:
      // Cancelled / invalid-argument queries count as neither executed
      // nor rejected; callers see the status.
      break;
  }
}

QueryResponse Server::Query(const QueryRequest& request) {
  std::shared_ptr<QueryControl> control = request.control;
  if (control == nullptr && request.timeout_seconds > 0.0) {
    control = std::make_shared<QueryControl>();
  }
  if (control != nullptr && request.timeout_seconds > 0.0) {
    control->SetTimeout(request.timeout_seconds);
  }
  const uint64_t query_id = NextQueryId();
  if (control != nullptr) control->set_query_id(query_id);
  const bool record_flight = recorder_.enabled();
  QueryFlightRecord record;
  QueryResponse response =
      Execute(request, control.get(), record_flight ? &record : nullptr);
  RecordOutcome(response);
  if (record_flight) {
    FinishFlight(&record, response, query_id, /*queue_seconds=*/0.0);
  }
  return response;
}

std::vector<QueryResponse> Server::QueryBatch(
    const std::vector<QueryRequest>& requests) {
  if (requests.empty()) return {};
  // Same control/timeout plumbing as Query(), per member.
  std::vector<std::shared_ptr<QueryControl>> owned(requests.size());
  std::vector<const QueryControl*> controls(requests.size(), nullptr);
  std::vector<const QueryRequest*> request_ptrs(requests.size());
  std::vector<uint64_t> query_ids(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    std::shared_ptr<QueryControl> control = requests[i].control;
    if (control == nullptr && requests[i].timeout_seconds > 0.0) {
      control = std::make_shared<QueryControl>();
    }
    if (control != nullptr && requests[i].timeout_seconds > 0.0) {
      control->SetTimeout(requests[i].timeout_seconds);
    }
    query_ids[i] = NextQueryId();
    if (control != nullptr) control->set_query_id(query_ids[i]);
    owned[i] = control;
    controls[i] = control.get();
    request_ptrs[i] = &requests[i];
  }
  const bool record_flight = recorder_.enabled();
  std::vector<QueryFlightRecord> records;
  std::vector<QueryResponse> responses = ExecuteBatch(
      request_ptrs, controls, record_flight ? &records : nullptr);
  for (size_t i = 0; i < responses.size(); ++i) {
    RecordOutcome(responses[i]);
    if (record_flight) {
      FinishFlight(&records[i], responses[i], query_ids[i],
                   /*queue_seconds=*/0.0);
    }
  }
  return responses;
}

std::future<QueryResponse> Server::Submit(QueryRequest request) {
  PendingQuery pending;
  pending.control = request.control;
  if (pending.control == nullptr) {
    pending.control = std::make_shared<QueryControl>();
  }
  if (request.timeout_seconds > 0.0) {
    // The clock starts at admission: time spent queued counts against the
    // deadline, so a saturated server sheds load instead of serving
    // answers nobody is waiting for anymore.
    pending.control->SetTimeout(request.timeout_seconds);
  }
  // The id is assigned at admission (before the accept/reject decision),
  // so even rejected queries are attributable in the flight ring. The
  // queue mutex publishes it to the worker along with the rest of the
  // pending entry.
  pending.control->set_query_id(NextQueryId());
  pending.admitted = SteadyClock::now();
  pending.request = std::move(request);
  std::future<QueryResponse> future = pending.promise.get_future();
  {
    MutexLock lock(queue_mu_);
    if (shutdown_) {
      QueryResponse response;
      response.status = Status::Cancelled("server shutting down");
      RecordOutcome(response);
      RecordRejection(*pending.control, response);
      pending.promise.set_value(std::move(response));
      return future;
    }
    if (queue_.size() >= options_.max_pending) {
      QueryResponse response;
      response.status = Status::ResourceExhausted(
          "query queue full (" + std::to_string(options_.max_pending) +
          " pending)");
      RecordOutcome(response);
      RecordRejection(*pending.control, response);
      pending.promise.set_value(std::move(response));
      return future;
    }
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_one();
  return future;
}

void Server::WorkerLoop() {
  const size_t cap = options_.batch_max;
  for (;;) {
    std::vector<PendingQuery> group;
    {
      // Explicit wait loops (not predicate lambdas): the analysis checks
      // each guarded read against the lock actually held here.
      MutexLock lock(queue_mu_);
      while (!(shutdown_ || (!hold_workers_ && !queue_.empty()))) {
        queue_cv_.wait(queue_mu_);
      }
      if (shutdown_) return;
      if (cap > 1 && options_.batch_wait_us > 0 && queue_.size() < cap) {
        // Bounded wait to fill the group; on timeout run what arrived.
        // After a shutdown wakes this wait we still drain and execute what
        // we take — returning while holding queries would strand promises.
        const auto deadline =
            SteadyClock::now() +
            std::chrono::microseconds(options_.batch_wait_us);
        while (!(shutdown_ || queue_.size() >= cap)) {
          if (queue_cv_.wait_until(queue_mu_, deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
      }
      if (hold_workers_) continue;  // test seam engaged mid-wait
      while (!queue_.empty() && group.size() < cap) {
        group.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (group.empty()) continue;

    const bool record_flight = recorder_.enabled();
    // Queue wait is measured to one instant for the whole group — members
    // executed together waited together.
    const SteadyClock::time_point exec_start = SteadyClock::now();
    std::vector<QueryFlightRecord> records(record_flight ? group.size() : 0);

    // Members whose deadline lapsed while queued are shed without running.
    std::vector<size_t> runnable;
    std::vector<QueryResponse> responses(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      Status admission = group[i].control->Check();
      if (!admission.ok()) {
        responses[i].status = std::move(admission);
        if (record_flight) {
          records[i].k = static_cast<uint32_t>(group[i].request.k);
        }
      } else {
        runnable.push_back(i);
      }
    }
    if (runnable.size() == 1 && cap == 1) {
      // Batching off: the historical per-query path.
      PendingQuery& pending = group[runnable.front()];
      responses[runnable.front()] =
          Execute(pending.request, pending.control.get(),
                  record_flight ? &records[runnable.front()] : nullptr);
    } else if (!runnable.empty()) {
      std::vector<const QueryRequest*> requests;
      std::vector<const QueryControl*> controls;
      requests.reserve(runnable.size());
      controls.reserve(runnable.size());
      for (size_t i : runnable) {
        requests.push_back(&group[i].request);
        controls.push_back(group[i].control.get());
      }
      std::vector<QueryFlightRecord> grouped_records;
      std::vector<QueryResponse> grouped =
          ExecuteBatch(requests, controls,
                       record_flight ? &grouped_records : nullptr);
      for (size_t u = 0; u < runnable.size(); ++u) {
        responses[runnable[u]] = std::move(grouped[u]);
        if (record_flight) records[runnable[u]] = grouped_records[u];
      }
    }
    for (size_t i = 0; i < group.size(); ++i) {
      RecordOutcome(responses[i]);
      if (record_flight) {
        const double queue_seconds =
            std::chrono::duration<double>(exec_start - group[i].admitted)
                .count();
        FinishFlight(&records[i], responses[i],
                     group[i].control->query_id(), queue_seconds);
      }
      group[i].promise.set_value(std::move(responses[i]));
    }
  }
}

void Server::FinishFlight(QueryFlightRecord* record,
                          const QueryResponse& response, uint64_t query_id,
                          double queue_seconds) {
  record->query_id = query_id;
  record->tenant_id = options_.tenant_id;
  record->status = response.status.code();
  record->results = static_cast<uint32_t>(response.results.size());
  record->queue_seconds = queue_seconds;
  record->wall_seconds = queue_seconds + response.wall_seconds;
  record->end_ts_us = NowUnixMicros();
  if (options_.slow_query_us > 0 &&
      record->wall_seconds * 1e6 >=
          static_cast<double>(options_.slow_query_us)) {
    record->slow = true;
    if (LogEnabled(LogLevel::kWarn)) {
      // The tail of this thread's trace ring is the query's own span
      // history — the thread that finishes a query is the thread that
      // executed it. Spans tagged with a different query id (a previous
      // query on this worker) are filtered out.
      std::string spans;
      RecentSpan recent[16];
      const size_t count = CollectRecentSpans(16, recent);
      for (size_t i = 0; i < count; ++i) {
        if (recent[i].qid != 0 && recent[i].qid != query_id) continue;
        if (!spans.empty()) spans += ';';
        spans += recent[i].name;
        spans += ':';
        spans += std::to_string(recent[i].dur_ns / 1000);
        spans += "us";
      }
      LogRecord log(LogLevel::kWarn, "slow_query");
      log.U64("query_id", record->query_id)
          .U64("batch_id", record->batch_id)
          .U64("tenant_id", record->tenant_id)
          .U64("epoch", record->epoch)
          .Str("status", std::string(StatusCodeName(record->status)))
          .U64("k", record->k)
          .U64("results", record->results)
          .F64("queue_s", record->queue_seconds)
          .F64("wall_s", record->wall_seconds)
          .F64("probe_s", record->phases.probe_seconds)
          .F64("skyline_s", record->phases.skyline_seconds)
          .F64("upgrade_s", record->phases.upgrade_seconds)
          .F64("prune_s", record->phases.prune_seconds)
          .F64("merge_s", record->phases.merge_seconds)
          .F64("other_s", record->phases.other_seconds)
          .U64("candidates_evaluated", record->candidates_evaluated)
          .U64("candidates_pruned", record->candidates_pruned)
          .U64("cache_hits", record->cache_hits)
          .U64("memo_hits", record->memo_hits);
      if (record->shard_count > 0) {
        // Sharded serve: name the shard that dominated the wall time.
        log.U64("shard_count", record->shard_count)
            .U64("slowest_shard", record->slowest_shard)
            .F64("slowest_shard_s", record->slowest_shard_seconds);
      }
      if (!spans.empty()) log.Str("spans", spans);
    }
  }
  recorder_.RecordQuery(*record);
}

void Server::RecordRejection(const QueryControl& control,
                             const QueryResponse& response) {
  if (!recorder_.enabled()) return;
  QueryFlightRecord record;
  FinishFlight(&record, response, control.query_id(), /*queue_seconds=*/0.0);
}

void Server::TakeSystemSample(bool heartbeat) {
  SystemSample sample;
  sample.ts_us = NowUnixMicros();
  const LiveTable::Diagnostics diag = table_->SampleDiagnostics();
  sample.epoch = diag.epoch;
  sample.snapshot_age_seconds = diag.snapshot_age_seconds;
  sample.delta_backlog = diag.delta_backlog;
  sample.tombstone_pct = diag.tombstone_pct;
  sample.memo_bytes = diag.memo_bytes;
  sample.live_competitors = diag.live_competitors;
  sample.live_products = diag.live_products;
  {
    MutexLock lock(queue_mu_);
    sample.queue_depth = queue_.size();
  }
  const ServeStats current = stats();
  sample.rebuilds_published = current.rebuilds_published;
  sample.patches_published = current.patches_published;
  recorder_.RecordSample(sample);
  if (heartbeat && LogEnabled(LogLevel::kInfo)) {
    LogRecord(LogLevel::kInfo, "heartbeat")
        .U64("epoch", sample.epoch)
        .F64("snapshot_age_s", sample.snapshot_age_seconds)
        .U64("queue_depth", sample.queue_depth)
        .U64("delta_backlog", sample.delta_backlog)
        .F64("tombstone_pct", sample.tombstone_pct)
        .U64("memo_bytes", sample.memo_bytes)
        .U64("rebuilds", sample.rebuilds_published)
        .U64("patches", sample.patches_published)
        .U64("live_competitors", sample.live_competitors)
        .U64("live_products", sample.live_products);
  }
}

void Server::DumpDiagnostics(std::ostream& out) {
  TakeSystemSample(/*heartbeat=*/false);
  recorder_.WriteJsonl(out);
}

void Server::WriteRequestedDump() {
  if (options_.flight_dump_path.empty()) return;
  std::ofstream out(options_.flight_dump_path,
                    std::ios::out | std::ios::trunc);
  if (!out.good()) {
    LogRecord(LogLevel::kError, "flight_dump_failed")
        .Str("path", options_.flight_dump_path);
    return;
  }
  DumpDiagnostics(out);
  out.flush();
  LogRecord(LogLevel::kInfo, "flight_dump")
      .Str("path", options_.flight_dump_path)
      .U64("queries", recorder_.stats().queries_recorded)
      .U64("samples", recorder_.stats().samples_recorded);
  FlushLogSink();
}

void Server::DiagnosticsLoop() {
  // Poll fast enough that a SIGUSR1-requested dump lands promptly while
  // still honoring the sample period; shutdown cuts through via the
  // condvar, so the poll interval never delays destruction.
  const bool sampling = options_.stats_interval_ms > 0;
  const auto poll = std::chrono::milliseconds(
      sampling ? std::min<size_t>(options_.stats_interval_ms, 50) : 50);
  auto next_sample = SteadyClock::now() +
                     std::chrono::milliseconds(options_.stats_interval_ms);
  for (;;) {
    {
      MutexLock lock(diag_mu_);
      if (!diag_shutdown_) diag_cv_.wait_for(diag_mu_, poll);
      if (diag_shutdown_) break;
    }
    // lint: relaxed-ok (lone request flag; rationale on RequestDump())
    if (dump_requested_.exchange(false, std::memory_order_relaxed)) {
      WriteRequestedDump();
    }
    if (sampling && SteadyClock::now() >= next_sample) {
      TakeSystemSample(/*heartbeat=*/true);
      next_sample = SteadyClock::now() +
                    std::chrono::milliseconds(options_.stats_interval_ms);
    }
  }
  // Shutdown drain: a dump requested moments before exit still lands.
  // lint: relaxed-ok (lone request flag; rationale on RequestDump())
  if (dump_requested_.exchange(false, std::memory_order_relaxed)) {
    WriteRequestedDump();
  }
}

ServeStats Server::stats() const {
  MutexLock lock(stats_mu_);
  ServeStats copy = stats_;
  // The table owns the publish counters in both inline and background
  // mode (one cycle publishes every shard).
  copy.rebuilds_published = table_->rebuilds_published();
  copy.patches_published = table_->patches_published();
  return copy;
}

void Server::FillMetrics(MetricsRegistry* registry) const {
  SKYUP_CHECK(registry != nullptr);
  AddServeStatsMetrics(stats(), registry);
  // One consistent health sample, aggregated across shards exactly like
  // the heartbeat's.
  const LiveTable::Diagnostics diag = table_->SampleDiagnostics();
  registry
      ->AddGauge("skyup_serve_snapshot_epoch",
                 "epoch of the currently published snapshot")
      ->Set(static_cast<double>(diag.epoch));
  registry
      ->AddGauge("skyup_serve_snapshot_age_seconds",
                 "seconds since the current snapshot was built")
      ->Set(diag.snapshot_age_seconds);
  registry
      ->AddGauge("skyup_serve_delta_backlog_ops",
                 "delta ops not yet absorbed by a snapshot")
      ->Set(static_cast<double>(diag.delta_backlog));
  registry
      ->AddGauge("skyup_serve_live_competitors",
                 "live competitor rows (snapshot + overlay)")
      ->Set(static_cast<double>(diag.live_competitors));
  registry
      ->AddGauge("skyup_serve_live_products",
                 "live product rows (snapshot + overlay)")
      ->Set(static_cast<double>(diag.live_products));
  MutexLock lock(stats_mu_);
  registry
      ->AddHistogram("skyup_serve_query_latency_seconds",
                     "end-to-end serve query latency",
                     query_latency_.bounds())
      ->MergeFrom(query_latency_);
  registry
      ->AddHistogram("skyup_serve_batch_size_queries",
                     "queries per grouped execution",
                     batch_size_.bounds())
      ->MergeFrom(batch_size_);
}

void Server::HoldWorkersForTest() {
  MutexLock lock(queue_mu_);
  hold_workers_ = true;
}

void Server::ReleaseWorkersForTest() {
  {
    MutexLock lock(queue_mu_);
    hold_workers_ = false;
  }
  queue_cv_.notify_all();
}

}  // namespace skyup
