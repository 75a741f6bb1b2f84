#include "serve/live_table.h"

#include <string>
#include <utility>

#include "serve/skyline_memo.h"
#include "util/check.h"

namespace skyup {

LiveTable::LiveTable(LiveTableOptions options,
                     std::shared_ptr<const Snapshot> initial)
    : options_(options), log_(std::move(initial)) {}

Result<std::unique_ptr<LiveTable>> LiveTable::Create(
    LiveTableOptions options) {
  if (options.dims < 1) {
    return Status::InvalidArgument("live table dims must be >= 1");
  }
  if (options.rtree_fanout < 2) {
    return Status::InvalidArgument("R-tree fanout must be at least 2");
  }
  Result<std::shared_ptr<const Snapshot>> initial = Snapshot::Create(
      /*epoch=*/1, Dataset(options.dims), {}, Dataset(options.dims), {},
      options.rtree_fanout);
  if (!initial.ok()) return initial.status();
  std::unique_ptr<LiveTable> table(
      new LiveTable(options, std::move(initial).value()));
  if (options.memo_cache_bytes > 0) {
    // The table is not shared yet, so the lock is uncontended — taken only
    // so the GUARDED_BY invariant on the member holds on every write.
    MutexLock lock(table->mu_);
    table->memo_ = std::make_shared<SkylineMemo>(options.dims,
                                                 options.memo_cache_bytes);
  }
  return table;
}

Result<uint64_t> LiveTable::Insert(DeltaTarget target, uint64_t id,
                                   const std::vector<double>& coords) {
  if (id == 0) return Status::InvalidArgument("stable id 0 is reserved");
  if (coords.size() != options_.dims) {
    return Status::InvalidArgument(
        "insert has " + std::to_string(coords.size()) + " coords, table is " +
        std::to_string(options_.dims) + "-dimensional");
  }
  MutexLock lock(mu_);
  if (!log_.AcceptsId(target, id)) {
    return Status::InvalidArgument(
        "stable id " + std::to_string(id) +
        " does not exceed every id this table has seen");
  }
  // Write-ahead: the hook sees the op before the append makes it visible.
  if (hook_) hook_(DeltaOp{target, DeltaKind::kInsert, id, coords});
  log_.AppendInsert(target, id, coords.data());
  return id;
}

Status LiveTable::Erase(DeltaTarget target, uint64_t id) {
  MutexLock lock(mu_);
  const std::optional<DeltaErase> erase = log_.Resolve(target, id);
  if (!erase.has_value()) {
    return Status::NotFound(
        std::string(target == DeltaTarget::kCompetitor ? "competitor"
                                                       : "product") +
        " id " + std::to_string(id) + " is not live");
  }
  if (hook_) hook_(DeltaOp{target, DeltaKind::kErase, id, {}});
  log_.AppendErase(*erase);
  return Status::OK();
}

Result<uint64_t> LiveTable::InsertCompetitorWithId(
    uint64_t id, const std::vector<double>& coords) {
  return Insert(DeltaTarget::kCompetitor, id, coords);
}

Result<uint64_t> LiveTable::InsertProductWithId(
    uint64_t id, const std::vector<double>& coords) {
  return Insert(DeltaTarget::kProduct, id, coords);
}

Status LiveTable::EraseCompetitor(uint64_t id) {
  return Erase(DeltaTarget::kCompetitor, id);
}

Status LiveTable::EraseProduct(uint64_t id) {
  return Erase(DeltaTarget::kProduct, id);
}

ReadView LiveTable::AcquireView() const {
  MutexLock lock(mu_);
  return ReadView{log_.base(), log_.prefix(), memo_};
}

void LiveTable::SetAppendHook(AppendHook hook) {
  MutexLock lock(mu_);
  hook_ = std::move(hook);
}

uint64_t LiveTable::epoch() const {
  MutexLock lock(mu_);
  return log_.base()->epoch();
}

size_t LiveTable::delta_backlog() const {
  MutexLock lock(mu_);
  return log_.size();
}

double LiveTable::snapshot_age_seconds() const {
  MutexLock lock(mu_);
  return std::chrono::duration<double>(SteadyClock::now() -
                                       log_.base()->published_at())
      .count();
}

LiveTable::Diagnostics LiveTable::SampleDiagnostics() const {
  Diagnostics d;
  std::shared_ptr<const Snapshot> snapshot;
  DeltaPrefix log;
  {
    MutexLock lock(mu_);
    snapshot = log_.base();
    log = log_.prefix();
    d.snapshot_age_seconds =
        std::chrono::duration<double>(SteadyClock::now() -
                                      snapshot->published_at())
            .count();
    // bytes_used() takes the memo's internal shard locks — kTableSub
    // band, nested under mu_ exactly like every other memo call under
    // the table lock.
    if (memo_ != nullptr) d.memo_bytes = memo_->bytes_used();
  }
  // Everything else derives from the captured snapshot and prefix,
  // outside the lock.
  const Snapshot& base = *snapshot;
  d.epoch = base.epoch();
  d.delta_backlog = log.size();
  const FlatRTree& index = base.index();
  if (index.size() > 0) {
    d.tombstone_pct = 100.0 * static_cast<double>(index.tombstones()) /
                      static_cast<double>(index.size());
  }
  DeltaMasks masks;
  masks.Build(base, log);
  d.live_competitors = masks.Live(DeltaTarget::kCompetitor, base, log);
  d.live_products = masks.Live(DeltaTarget::kProduct, base, log);
  return d;
}

std::optional<LiveTable::RebuildJob> LiveTable::BeginRebuild(
    bool allow_empty) {
  MutexLock lock(mu_);
  if (frozen_.has_value()) return std::nullopt;
  if (!allow_empty && log_.size() == 0) return std::nullopt;
  // Freeze: a point, not a copy. Updates racing with the merge append past
  // it and are carried into the next epoch's log by CompleteRebuild.
  frozen_ = log_.prefix();
  return RebuildJob{log_.base(), *frozen_, log_.base()->epoch() + 1};
}

void LiveTable::CompleteRebuild(std::shared_ptr<const Snapshot> snapshot) {
  SKYUP_CHECK(snapshot != nullptr);
  MutexLock lock(mu_);
  SKYUP_CHECK(frozen_.has_value())
      << "CompleteRebuild without a matching BeginRebuild";
  SKYUP_CHECK(snapshot->epoch() == log_.base()->epoch() + 1)
      << "rebuild produced epoch " << snapshot->epoch() << ", expected "
      << log_.base()->epoch() + 1;
  DeltaLog next(std::move(snapshot));
  next.CarryOver(log_, *frozen_);
  log_ = std::move(next);
  frozen_.reset();
  // Epoch rollover: old-epoch memo entries can never match new-epoch
  // lookups (entries self-describe their epoch), so dropping the cache is
  // purely memory reclamation — the "free invalidation" of epoch scoping.
  if (memo_ != nullptr) memo_->OnPublish();
}

void LiveTable::AbandonRebuild() {
  MutexLock lock(mu_);
  SKYUP_CHECK(frozen_.has_value())
      << "AbandonRebuild without a matching BeginRebuild";
  frozen_.reset();
}

}  // namespace skyup
