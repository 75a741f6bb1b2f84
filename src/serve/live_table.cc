#include "serve/live_table.h"

#include <string>
#include <utility>

#include "serve/skyline_memo.h"
#include "util/check.h"

namespace skyup {

LiveTable::LiveTable(LiveTableOptions options) : options_(options) {
  index_options_.max_entries = options_.rtree_fanout;
}

Result<std::unique_ptr<LiveTable>> LiveTable::Create(
    LiveTableOptions options) {
  if (options.dims < 1) {
    return Status::InvalidArgument("live table dims must be >= 1");
  }
  if (options.rtree_fanout < 2) {
    return Status::InvalidArgument("R-tree fanout must be at least 2");
  }
  std::unique_ptr<LiveTable> table(new LiveTable(options));
  Result<std::shared_ptr<const Snapshot>> initial = Snapshot::Create(
      /*epoch=*/1, Dataset(options.dims), {}, Dataset(options.dims), {},
      table->index_options_);
  if (!initial.ok()) return initial.status();
  {
    // The table is not shared yet, so the lock is uncontended — taken only
    // so the GUARDED_BY invariant on these members holds on every write.
    MutexLock lock(table->mu_);
    table->snapshot_ = std::move(initial).value();
    if (options.memo_cache_bytes > 0) {
      table->memo_ = std::make_shared<SkylineMemo>(options.dims,
                                                   options.memo_cache_bytes);
    }
  }
  return table;
}

Result<uint64_t> LiveTable::Insert(DeltaTarget target,
                                   const std::vector<double>& coords,
                                   uint64_t forced_id) {
  if (coords.size() != options_.dims) {
    return Status::InvalidArgument(
        "insert has " + std::to_string(coords.size()) + " coords, table is " +
        std::to_string(options_.dims) + "-dimensional");
  }
  MutexLock lock(mu_);
  const bool is_competitor = target == DeltaTarget::kCompetitor;
  uint64_t& counter =
      is_competitor ? next_competitor_id_ : next_product_id_;
  const uint64_t id = forced_id != 0 ? forced_id : counter++;
  if (forced_id != 0 && counter <= forced_id) counter = forced_id + 1;
  active_.Append(DeltaOp{target, DeltaKind::kInsert, id, coords});
  (is_competitor ? live_competitors_ : live_products_).insert(id);
  return id;
}

Status LiveTable::Erase(DeltaTarget target, uint64_t id) {
  MutexLock lock(mu_);
  const bool is_competitor = target == DeltaTarget::kCompetitor;
  std::unordered_set<uint64_t>& live =
      is_competitor ? live_competitors_ : live_products_;
  if (live.erase(id) == 0) {
    return Status::NotFound(
        std::string(is_competitor ? "competitor" : "product") + " id " +
        std::to_string(id) + " is not live");
  }
  active_.Append(DeltaOp{target, DeltaKind::kErase, id, {}});
  return Status::OK();
}

Result<uint64_t> LiveTable::InsertCompetitor(
    const std::vector<double>& coords) {
  return Insert(DeltaTarget::kCompetitor, coords, /*forced_id=*/0);
}

Result<uint64_t> LiveTable::InsertProduct(const std::vector<double>& coords) {
  return Insert(DeltaTarget::kProduct, coords, /*forced_id=*/0);
}

Result<uint64_t> LiveTable::InsertCompetitorWithId(
    uint64_t id, const std::vector<double>& coords) {
  if (id == 0) return Status::InvalidArgument("stable id 0 is reserved");
  return Insert(DeltaTarget::kCompetitor, coords, id);
}

Result<uint64_t> LiveTable::InsertProductWithId(
    uint64_t id, const std::vector<double>& coords) {
  if (id == 0) return Status::InvalidArgument("stable id 0 is reserved");
  return Insert(DeltaTarget::kProduct, coords, id);
}

Status LiveTable::EraseCompetitor(uint64_t id) {
  return Erase(DeltaTarget::kCompetitor, id);
}

Status LiveTable::EraseProduct(uint64_t id) {
  return Erase(DeltaTarget::kProduct, id);
}

ReadView LiveTable::AcquireView() const {
  MutexLock lock(mu_);
  ReadView view;
  view.snapshot = snapshot_;
  view.deltas = frozen_;
  std::vector<DeltaOp> active = active_.CopyAll();
  view.deltas.insert(view.deltas.end(),
                     std::make_move_iterator(active.begin()),
                     std::make_move_iterator(active.end()));
  view.memo = memo_;
  return view;
}

void LiveTable::SetAppendHook(DeltaLog::AppendHook hook) {
  MutexLock lock(mu_);
  active_.SetAppendHook(std::move(hook));
}

uint64_t LiveTable::epoch() const {
  MutexLock lock(mu_);
  return snapshot_->epoch();
}

size_t LiveTable::delta_backlog() const {
  MutexLock lock(mu_);
  return frozen_.size() + active_.size();
}

double LiveTable::snapshot_age_seconds() const {
  MutexLock lock(mu_);
  return std::chrono::duration<double>(SteadyClock::now() -
                                       snapshot_->published_at())
      .count();
}

LiveTable::Diagnostics LiveTable::SampleDiagnostics() const {
  MutexLock lock(mu_);
  Diagnostics d;
  d.epoch = snapshot_->epoch();
  d.snapshot_age_seconds =
      std::chrono::duration<double>(SteadyClock::now() -
                                    snapshot_->published_at())
          .count();
  d.delta_backlog = frozen_.size() + active_.size();
  const FlatRTree& index = snapshot_->index();
  if (index.size() > 0) {
    d.tombstone_pct = 100.0 * static_cast<double>(index.tombstones()) /
                      static_cast<double>(index.size());
  }
  // bytes_used() takes the memo's internal shard locks — kTableSub band,
  // nested under mu_ exactly like every other memo call under the table
  // lock.
  if (memo_ != nullptr) d.memo_bytes = memo_->bytes_used();
  d.live_competitors = live_competitors_.size();
  d.live_products = live_products_.size();
  return d;
}

std::optional<LiveTable::RebuildJob> LiveTable::BeginRebuild(
    bool allow_empty) {
  MutexLock lock(mu_);
  if (rebuild_in_flight_) return std::nullopt;
  std::vector<DeltaOp> active = active_.CopyAll();
  if (!allow_empty && frozen_.empty() && active.empty()) return std::nullopt;
  // Freeze: the active ops move behind the frozen fence; the active log
  // restarts empty so updates racing with the merge land after the fence.
  frozen_.insert(frozen_.end(), std::make_move_iterator(active.begin()),
                 std::make_move_iterator(active.end()));
  active_.Clear();
  rebuild_in_flight_ = true;
  RebuildJob job;
  job.base = snapshot_;
  job.ops = frozen_;
  job.next_epoch = snapshot_->epoch() + 1;
  return job;
}

void LiveTable::CompleteRebuild(std::shared_ptr<const Snapshot> snapshot) {
  SKYUP_CHECK(snapshot != nullptr);
  MutexLock lock(mu_);
  SKYUP_CHECK(rebuild_in_flight_)
      << "CompleteRebuild without a matching BeginRebuild";
  SKYUP_CHECK(snapshot->epoch() == snapshot_->epoch() + 1)
      << "rebuild produced epoch " << snapshot->epoch() << ", expected "
      << snapshot_->epoch() + 1;
  snapshot_ = std::move(snapshot);
  frozen_.clear();
  rebuild_in_flight_ = false;
  // Epoch rollover: old-epoch memo entries can never match new-epoch
  // lookups (entries self-describe their epoch), so dropping the cache is
  // purely memory reclamation — the "free invalidation" of epoch scoping.
  if (memo_ != nullptr) memo_->OnPublish();
}

void LiveTable::AbandonRebuild() {
  MutexLock lock(mu_);
  SKYUP_CHECK(rebuild_in_flight_)
      << "AbandonRebuild without a matching BeginRebuild";
  rebuild_in_flight_ = false;
}

}  // namespace skyup
