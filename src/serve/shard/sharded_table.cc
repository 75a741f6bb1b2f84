#include "serve/shard/sharded_table.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/log.h"
#include "serve/upgrade_cache.h"
#include "util/check.h"

namespace skyup {

ShardedTable::ShardedTable(ShardedTableOptions options) : options_(options) {}

ShardedTable::~ShardedTable() { Stop(); }

Result<std::unique_ptr<ShardedTable>> ShardedTable::Create(
    ShardedTableOptions options) {
  if (options.dims < 1) {
    return Status::InvalidArgument("sharded table dims must be >= 1");
  }
  if (options.shards < 1 || options.shards > kMaxShards) {
    return Status::InvalidArgument("sharded table shards must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  std::unique_ptr<ShardedTable> sharded(new ShardedTable(options));
  sharded->tables_.reserve(options.shards);
  LiveTableOptions shard_options;
  shard_options.dims = options.dims;
  shard_options.rtree_fanout = options.rtree_fanout;
  shard_options.memo_cache_bytes = options.memo_cache_bytes / options.shards;
  for (size_t s = 0; s < options.shards; ++s) {
    Result<std::unique_ptr<LiveTable>> table =
        LiveTable::Create(shard_options);
    if (!table.ok()) return table.status();
    sharded->tables_.push_back(std::move(table).value());
  }
  {
    // Not shared yet; the lock only keeps the GUARDED_BY invariant
    // unconditional (same construction pattern as LiveTable::Create).
    WriterLock lock(sharded->route_mu_);
    ShardPartitionerOptions part;
    part.dims = options.dims;
    part.shards = options.shards;
    part.fit_after = options.partition_fit_after;
    sharded->partitioner_ = std::make_unique<ShardPartitioner>(part);
  }
  sharded->cache_ = std::make_shared<UpgradeCache>(options.dims);
  return sharded;
}

Result<uint64_t> ShardedTable::InsertCompetitor(
    const std::vector<double>& coords) {
  if (coords.size() != options_.dims) {
    return Status::InvalidArgument(
        "insert has " + std::to_string(coords.size()) + " coords, table is " +
        std::to_string(options_.dims) + "-dimensional");
  }
  WriterLock lock(route_mu_);
  const uint64_t id = next_competitor_id_++;
  const uint32_t shard = partitioner_->RouteCompetitor(coords);
  competitor_shard_.emplace(id, shard);
  // Feed the global cache in id-allocation order, before the op reaches
  // its shard (so no reader sees an op the cache hasn't vetted entries
  // against). A shard apply cannot fail past this point — arity was
  // checked above and the id is fresh and the largest yet — so the cache
  // never observes a phantom op.
  cache_->OnDeltaOp(
      DeltaOp{DeltaTarget::kCompetitor, DeltaKind::kInsert, id, coords});
  return tables_[shard]->InsertCompetitorWithId(id, coords);
}

Result<uint64_t> ShardedTable::InsertProduct(
    const std::vector<double>& coords) {
  if (coords.size() != options_.dims) {
    return Status::InvalidArgument(
        "insert has " + std::to_string(coords.size()) + " coords, table is " +
        std::to_string(options_.dims) + "-dimensional");
  }
  WriterLock lock(route_mu_);
  const uint64_t id = next_product_id_++;
  const uint32_t shard = partitioner_->RouteProduct(coords);
  product_shard_.emplace(id, shard);
  cache_->OnDeltaOp(
      DeltaOp{DeltaTarget::kProduct, DeltaKind::kInsert, id, coords});
  return tables_[shard]->InsertProductWithId(id, coords);
}

Status ShardedTable::EraseCompetitor(uint64_t id) {
  WriterLock lock(route_mu_);
  auto it = competitor_shard_.find(id);
  if (it == competitor_shard_.end()) {
    return Status::NotFound("competitor id " + std::to_string(id) +
                            " is not live");
  }
  const uint32_t shard = it->second;
  competitor_shard_.erase(it);
  cache_->OnDeltaOp(
      DeltaOp{DeltaTarget::kCompetitor, DeltaKind::kErase, id, {}});
  return tables_[shard]->EraseCompetitor(id);
}

Status ShardedTable::EraseProduct(uint64_t id) {
  WriterLock lock(route_mu_);
  auto it = product_shard_.find(id);
  if (it == product_shard_.end()) {
    return Status::NotFound("product id " + std::to_string(id) +
                            " is not live");
  }
  const uint32_t shard = it->second;
  product_shard_.erase(it);
  cache_->OnDeltaOp(
      DeltaOp{DeltaTarget::kProduct, DeltaKind::kErase, id, {}});
  return tables_[shard]->EraseProduct(id);
}

ShardedView ShardedTable::AcquireViews() const {
  // The reader side of the table fence. Every op runs (cache feed and
  // shard apply) and every publish installs under the writer side, so
  // the capture below is one cut of the op stream: exactly the first
  // `version` ops, every shard at one epoch.
  ShardedView sharded;
  sharded.cache = cache_;
  sharded.views.reserve(tables_.size());
  ReaderLock lock(route_mu_);
  sharded.version = cache_->version();
  for (const std::unique_ptr<LiveTable>& table : tables_) {
    sharded.views.push_back(table->AcquireView());
  }
  sharded.epoch = sharded.views.front().epoch();
  for (const ReadView& view : sharded.views) {
    SKYUP_DCHECK(view.epoch() == sharded.epoch)
        << "mixed epochs under the reader fence: " << view.epoch() << " vs "
        << sharded.epoch;
  }
  return sharded;
}

Result<size_t> ShardedTable::MaybePublishInline(const RebuildPolicy& policy) {
  MutexLock lock(coord_mu_);
  if (delta_backlog() < policy.threshold_ops) return size_t{0};
  return PublishCycle(policy);
}

// One publish cycle, all shards in lock-step:
//   freeze    every shard's delta log (allow_empty keeps idle shards in
//             the cycle so epochs never diverge),
//   merge     each shard outside every lock readers touch — patch or
//             compact per shard-local churn (ChoosePublish),
//   install   all shards under the exclusive epoch fence.
// Serialized by coord_mu_ (held by the caller), so freeze never finds a
// rebuild already in flight.
Result<size_t> ShardedTable::PublishCycle(const RebuildPolicy& policy) {
  const size_t n = tables_.size();
  std::vector<LiveTable::RebuildJob> jobs;
  jobs.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    std::optional<LiveTable::RebuildJob> job =
        tables_[s]->BeginRebuild(/*allow_empty=*/true);
    SKYUP_CHECK(job.has_value())
        << "shard " << s << " had a rebuild in flight during a cycle";
    jobs.push_back(std::move(*job));
  }

  size_t cycle_majors = 0;
  std::vector<std::shared_ptr<const Snapshot>> next(n);
  for (size_t s = 0; s < n; ++s) {
    const PublishKind kind = ChoosePublish(*jobs[s].base, jobs[s].ops, policy);
    Result<std::shared_ptr<const Snapshot>> merged =
        kind == PublishKind::kMajor
            ? MergeSnapshot(*jobs[s].base, jobs[s].ops, jobs[s].next_epoch,
                            tables_[s]->rtree_fanout())
            : PatchSnapshot(*jobs[s].base, jobs[s].ops, jobs[s].next_epoch);
    if (!merged.ok()) {
      // Unwind the whole cycle: every shard keeps its frozen ops pending
      // and the next cycle re-offers them; no shard installs, so the
      // common-epoch invariant holds.
      for (size_t u = 0; u < n; ++u) tables_[u]->AbandonRebuild();
      last_error_ = merged.status();
      return merged.status();
    }
    if (kind == PublishKind::kMajor) ++cycle_majors;
    next[s] = std::move(merged).value();
  }

  {
    WriterLock fence(route_mu_);
    for (size_t s = 0; s < n; ++s) {
      tables_[s]->CompleteRebuild(std::move(next[s]));
    }
  }
  majors_ += cycle_majors;
  patches_ += n - cycle_majors;
  ++cycles_;
  if (LogEnabled(LogLevel::kInfo)) {
    size_t ops = 0;
    for (const LiveTable::RebuildJob& job : jobs) ops += job.ops.size();
    LogRecord(LogLevel::kInfo, "publish")
        .U64("epoch", jobs.front().next_epoch)
        .U64("shards", n)
        .U64("majors", cycle_majors)
        .U64("ops", ops);
  }
  return n;
}

bool ShardedTable::ShouldPublish(const RebuildPolicy& policy) const {
  const size_t backlog = delta_backlog();
  if (backlog == 0) return false;
  // All shards publish together, so shard 0's snapshot age is the cycle
  // age. Storm hysteresis: no trigger fires within the minimum interval
  // of the previous publish, and the age trigger additionally demands a
  // minimum backlog worth publishing.
  if (policy.min_publish_interval_seconds > 0.0 &&
      tables_.front()->snapshot_age_seconds() <
          policy.min_publish_interval_seconds) {
    return false;
  }
  if (backlog >= policy.threshold_ops) return true;
  return policy.max_age_seconds > 0.0 &&
         backlog >= policy.min_publish_backlog &&
         tables_.front()->snapshot_age_seconds() >= policy.max_age_seconds;
}

void ShardedTable::Start(const RebuildPolicy& policy) {
  policy_ = policy;
  MutexLock lock(coord_mu_);
  SKYUP_CHECK(!running_) << "shard coordinator already started";
  running_ = true;
  stop_ = false;
  coord_thread_ = std::thread([this] { Loop(); });
}

void ShardedTable::Stop() {
  {
    MutexLock lock(coord_mu_);
    if (!running_) return;
    stop_ = true;
  }
  coord_cv_.notify_all();
  coord_thread_.join();
  MutexLock lock(coord_mu_);
  running_ = false;
}

void ShardedTable::Nudge() { coord_cv_.notify_all(); }

void ShardedTable::Loop() {
  const auto interval = std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(
          std::max(policy_.poll_interval_seconds, 1e-3)));
  for (;;) {
    MutexLock lock(coord_mu_);
    if (stop_) return;
    // Check before waiting. Nudge() notifies without the lock (it must
    // never block behind a cycle), so a nudge that lands while a cycle
    // runs — or before the loop starts — finds no waiter; checking here
    // publishes that backlog now instead of one poll interval later.
    // The cycle runs under coord_mu_ (its REQUIRES contract): Stop()
    // waits out at most one cycle.
    if (ShouldPublish(policy_)) {
      if (PublishCycle(policy_).ok()) continue;
      // A failed cycle (last_error_ holds why) retries only after a full
      // interval, nudges or not, so a persistent merge error cannot spin.
      const SteadyClock::time_point retry_at = SteadyClock::now() + interval;
      while (!stop_ && SteadyClock::now() < retry_at) {
        coord_cv_.wait_until(coord_mu_, retry_at);
      }
      continue;
    }
    coord_cv_.wait_for(coord_mu_, interval);
  }
}

uint64_t ShardedTable::epoch() const {
  ReaderLock lock(route_mu_);
  return tables_.front()->epoch();
}

size_t ShardedTable::delta_backlog() const {
  size_t total = 0;
  for (const std::unique_ptr<LiveTable>& table : tables_) {
    total += table->delta_backlog();
  }
  return total;
}

LiveTable::Diagnostics ShardedTable::SampleDiagnostics() const {
  LiveTable::Diagnostics agg;
  bool first = true;
  for (const std::unique_ptr<LiveTable>& table : tables_) {
    const LiveTable::Diagnostics d = table->SampleDiagnostics();
    if (first) {
      agg.epoch = d.epoch;
      agg.snapshot_age_seconds = d.snapshot_age_seconds;
      first = false;
    }
    agg.delta_backlog += d.delta_backlog;
    agg.tombstone_pct = std::max(agg.tombstone_pct, d.tombstone_pct);
    agg.memo_bytes += d.memo_bytes;
    agg.live_competitors += d.live_competitors;
    agg.live_products += d.live_products;
  }
  return agg;
}

uint64_t ShardedTable::rebuilds_published() const {
  MutexLock lock(coord_mu_);
  return majors_;
}

uint64_t ShardedTable::patches_published() const {
  MutexLock lock(coord_mu_);
  return patches_;
}

uint64_t ShardedTable::publish_cycles() const {
  MutexLock lock(coord_mu_);
  return cycles_;
}

Status ShardedTable::last_error() const {
  MutexLock lock(coord_mu_);
  return last_error_;
}

}  // namespace skyup
