#include "serve/shard/sharded_table.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "obs/log.h"
#include "serve/skyline_memo.h"
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
  if (options.rtree_fanout < 2) {
    return Status::InvalidArgument("R-tree fanout must be at least 2");
  }
  // Every shard starts on the same immutable empty epoch-1 snapshot.
  Result<std::shared_ptr<const Snapshot>> empty = Snapshot::Create(
      /*epoch=*/1, Dataset(options.dims), {}, Dataset(options.dims), {},
      options.rtree_fanout);
  if (!empty.ok()) return empty.status();
  const size_t memo_bytes = options.memo_cache_bytes / options.shards;
  std::unique_ptr<ShardedTable> sharded(new ShardedTable(options));
  {
    // Not shared yet; the lock only keeps the GUARDED_BY invariant
    // unconditional.
    WriterLock lock(sharded->route_mu_);
    sharded->shards_.reserve(options.shards);
    for (size_t s = 0; s < options.shards; ++s) {
      sharded->shards_.push_back(Shard{
          DeltaLog(*empty),
          memo_bytes > 0
              ? std::make_shared<SkylineMemo>(options.dims, memo_bytes)
              : nullptr});
    }
    ShardPartitionerOptions part;
    part.dims = options.dims;
    part.shards = options.shards;
    part.fit_after = options.partition_fit_after;
    sharded->partitioner_ = std::make_unique<ShardPartitioner>(part);
  }
  sharded->cache_ = std::make_shared<UpgradeCache>(options.dims);
  return sharded;
}

Result<uint64_t> ShardedTable::Insert(DeltaTarget target,
                                      const std::vector<double>& coords) {
  if (coords.size() != options_.dims) {
    return Status::InvalidArgument(
        "insert has " + std::to_string(coords.size()) + " coords, table is " +
        std::to_string(options_.dims) + "-dimensional");
  }
  if (!AllFinite(coords.data(), coords.size())) {
    return Status::InvalidArgument("insert has a non-finite coordinate " +
                                   PointToString(coords));
  }
  const bool competitor = target == DeltaTarget::kCompetitor;
  WriterLock lock(route_mu_);
  const uint64_t id = competitor ? next_competitor_id_++ : next_product_id_++;
  const uint32_t shard = competitor ? partitioner_->RouteCompetitor(coords)
                                    : partitioner_->RouteProduct(coords);
  (competitor ? competitor_shard_ : product_shard_).emplace(id, shard);
  // Feed the global cache in id-allocation order, before the op reaches
  // its shard (so no reader sees an op the cache hasn't vetted entries
  // against). The append cannot fail past this point — arity and
  // finiteness were checked above and the id is fresh and the largest yet
  // — so the cache never observes a phantom op.
  cache_->OnDeltaOp(DeltaOp{target, DeltaKind::kInsert, id, coords});
  shards_[shard].log.AppendInsert(target, id, coords.data());
  return id;
}

Status ShardedTable::Erase(DeltaTarget target, uint64_t id) {
  const bool competitor = target == DeltaTarget::kCompetitor;
  WriterLock lock(route_mu_);
  std::unordered_map<uint64_t, uint32_t>& routes =
      competitor ? competitor_shard_ : product_shard_;
  auto it = routes.find(id);
  if (it == routes.end()) {
    return Status::NotFound(std::string(competitor ? "competitor"
                                                   : "product") +
                            " id " + std::to_string(id) + " is not live");
  }
  DeltaLog& log = shards_[it->second].log;
  routes.erase(it);
  // A routed id is live in its shard: the routing map drops it here, at
  // its only erase.
  const std::optional<DeltaErase> erase = log.Resolve(target, id);
  SKYUP_CHECK(erase.has_value())
      << "routed id " << id << " has no live row in its shard";
  cache_->OnDeltaOp(DeltaOp{target, DeltaKind::kErase, id, {}});
  log.AppendErase(*erase);
  return Status::OK();
}

Result<uint64_t> ShardedTable::InsertCompetitor(
    const std::vector<double>& coords) {
  return Insert(DeltaTarget::kCompetitor, coords);
}

Result<uint64_t> ShardedTable::InsertProduct(
    const std::vector<double>& coords) {
  return Insert(DeltaTarget::kProduct, coords);
}

Status ShardedTable::EraseCompetitor(uint64_t id) {
  return Erase(DeltaTarget::kCompetitor, id);
}

Status ShardedTable::EraseProduct(uint64_t id) {
  return Erase(DeltaTarget::kProduct, id);
}

ShardedView ShardedTable::AcquireViews() const {
  // The reader side of the table fence. Every op runs (cache feed and
  // log append) and every publish installs under the writer side, so
  // the capture below is one cut of the op stream: exactly the first
  // `version` ops, every shard at one epoch.
  ShardedView sharded;
  sharded.cache = cache_;
  sharded.views.reserve(options_.shards);
  ReaderLock lock(route_mu_);
  sharded.version = cache_->version();
  for (const Shard& shard : shards_) {
    sharded.views.push_back(
        ReadView{shard.log.base(), shard.log.prefix(), shard.memo});
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
  if (!ShouldPublish(policy)) return size_t{0};
  return PublishCycle();
}

// One publish cycle, all shards in lock-step:
//   freeze    every shard at one cut of the op stream — a view capture
//             under the reader side, so counts, not copies (idle shards
//             stay in the cycle so epochs never diverge),
//   merge     each shard outside the fence: an STR re-pack of its live
//             rows (MergeSnapshot),
//   install   all shards under the writer side: the merged snapshot
//             starts its epoch's log, which carries over the ops
//             appended past the freeze, and the shard's memo rolls.
// Serialized by coord_mu_ (held by the caller), so nothing replaces a
// log between its freeze and its install. A failed merge installs
// nothing and leaves every log untouched: its ops stay pending for the
// next cycle.
Result<size_t> ShardedTable::PublishCycle() {
  const ShardedView frozen = AcquireViews();
  const uint64_t next_epoch = frozen.epoch + 1;
  const size_t n = frozen.views.size();
  size_t ops = 0;
  std::vector<std::shared_ptr<const Snapshot>> next(n);
  for (size_t s = 0; s < n; ++s) {
    const DeltaPrefix& prefix = frozen.views[s].deltas;
    Result<std::shared_ptr<const Snapshot>> merged =
        MergeSnapshot(*frozen.views[s].snapshot, prefix, next_epoch,
                      options_.rtree_fanout);
    if (!merged.ok()) {
      last_error_ = merged.status();
      return merged.status();
    }
    ops += prefix.size();
    next[s] = std::move(merged).value();
  }

  {
    WriterLock fence(route_mu_);
    for (size_t s = 0; s < n; ++s) {
      Shard& shard = shards_[s];
      DeltaLog log(std::move(next[s]));
      log.CarryOver(shard.log, frozen.views[s].deltas);
      shard.log = std::move(log);
      // Epoch rollover: old-epoch memo entries can never match new-epoch
      // lookups (entries self-describe their epoch), so dropping the
      // cache is purely memory reclamation — the "free invalidation" of
      // epoch scoping.
      if (shard.memo != nullptr) shard.memo->OnPublish();
    }
  }
  ++cycles_;
  if (LogEnabled(LogLevel::kInfo)) {
    LogRecord(LogLevel::kInfo, "publish")
        .U64("epoch", next_epoch)
        .U64("shards", n)
        .U64("ops", ops);
  }
  return n;
}

bool ShardedTable::ShouldPublish(const RebuildPolicy& policy) const {
  const size_t backlog = delta_backlog();
  return backlog > 0 && backlog >= policy.threshold_ops;
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
      if (PublishCycle().ok()) continue;
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
  return shards_.front().log.base()->epoch();
}

size_t ShardedTable::delta_backlog() const {
  ReaderLock lock(route_mu_);
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.log.size();
  return total;
}

ShardedTable::Diagnostics ShardedTable::SampleDiagnostics() const {
  // One capture under the reader side; everything else derives from the
  // captured snapshots and prefixes, outside the fence.
  const ShardedView sharded = AcquireViews();
  Diagnostics d;
  d.epoch = sharded.epoch;
  d.snapshot_age_seconds =
      std::chrono::duration<double>(
          SteadyClock::now() - sharded.views.front().snapshot->published_at())
          .count();
  DeltaMasks masks;
  for (const ReadView& view : sharded.views) {
    const Snapshot& base = *view.snapshot;
    d.delta_backlog += view.deltas.size();
    // The share of the index that queries must mask.
    const size_t indexed = base.index().size();
    if (indexed > 0) {
      d.tombstone_pct = std::max(
          d.tombstone_pct,
          100.0 * static_cast<double>(view.deltas.erased_indexed) /
              static_cast<double>(indexed));
    }
    if (view.memo != nullptr) d.memo_bytes += view.memo->bytes_used();
    masks.Build(base, view.deltas);
    d.live_competitors +=
        masks.Live(DeltaTarget::kCompetitor, base, view.deltas);
    d.live_products += masks.Live(DeltaTarget::kProduct, base, view.deltas);
  }
  return d;
}

uint64_t ShardedTable::rebuilds_published() const {
  MutexLock lock(coord_mu_);
  return cycles_ * options_.shards;
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
