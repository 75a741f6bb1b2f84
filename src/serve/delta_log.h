#ifndef SKYUP_SERVE_DELTA_LOG_H_
#define SKYUP_SERVE_DELTA_LOG_H_

// The append-only delta pipeline between snapshots: every accepted update
// (insert/erase on P or T) becomes a `DeltaOp` in a `DeltaLog`; queries
// fold the log's prefix into a `DeltaOverlay` over their snapshot, and the
// rebuilder folds the whole log into the next snapshot.
//
// Overlay soundness (full argument in docs/algorithms.md):
//   - erased competitors are composed into the index probe as a per-row
//     mask (DominatingSkylineInto): a masked point never enters the
//     traversal's dominance window, so live dominators it would have
//     shadowed are discovered by the same probe — exactness without any
//     linear rescan;
//   - inserted competitors (and the snapshot's unindexed tail) are scanned
//     through the batched dominance kernels and folded into the probed
//     skyline one point at a time (skyline/incremental.h), preserving the
//     value set a from-scratch skyline reduction would produce;
//   - the box lower-bound prune stays sound because live-node MBRs are
//     re-tightened on every index tombstone and a query's prune is
//     disabled when a *pending* overlay erase touches a face of the live
//     bounding box (serve/shard/shard_query.h has the face argument).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/dominance_batch.h"
#include "serve/snapshot.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace skyup {

class SkylineMemo;

enum class DeltaTarget : uint8_t {
  kCompetitor,  ///< the paper's P
  kProduct,     ///< the paper's T
};

enum class DeltaKind : uint8_t { kInsert, kErase };

/// One accepted update. `coords` is sized `dims` for inserts and empty for
/// erases; `id` is the table-scoped stable id the op creates or removes.
struct DeltaOp {
  DeltaTarget target = DeltaTarget::kCompetitor;
  DeltaKind kind = DeltaKind::kInsert;
  uint64_t id = 0;
  std::vector<double> coords;
};

/// Append-only op buffer with write-ahead semantics: the append hook (a
/// durability seam — tests assert on it, a real deployment would fsync a
/// WAL record in it) runs *before* the op becomes visible to any reader.
/// Appends are serialized; reads snapshot a prefix under a shared lock.
class DeltaLog {
 public:
  using AppendHook = std::function<void(const DeltaOp&)>;

  DeltaLog() = default;
  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  /// Installs the write-ahead hook (null to clear). Takes the log's write
  /// lock, but is still not synchronized with the hook *invocation* in
  /// Append (which deliberately runs unlocked) — install before the log
  /// goes live.
  void SetAppendHook(AppendHook hook);

  /// Appends one op. The hook observes the op strictly before any reader
  /// can (write-ahead visibility point); it runs outside the log's lock,
  /// so it may read the log. Appends must be externally serialized (the
  /// live table holds its mutex across Append).
  void Append(DeltaOp op);

  size_t size() const;
  bool empty() const { return size() == 0; }

  /// Copies ops `[0, end)` in append order. `end` is clamped to `size()`.
  std::vector<DeltaOp> CopyPrefix(size_t end) const;

  /// Copies everything appended so far.
  std::vector<DeltaOp> CopyAll() const;

  /// Drops all ops (rebuild absorbed them). Caller must guarantee no
  /// reader still expects them — in the live table, the frozen log is
  /// cleared only after its replacement snapshot is published.
  void Clear();

 private:
  mutable SharedMutex mu_ SKYUP_ACQUIRED_AFTER(lock_order::kTableSub)
      SKYUP_ACQUIRED_BEFORE(lock_order::kObsRegistry);
  AppendHook hook_ SKYUP_GUARDED_BY(mu_);
  std::vector<DeltaOp> ops_ SKYUP_GUARDED_BY(mu_);
};

/// What one query runs against: an immutable snapshot plus the delta ops
/// accepted before the view was taken. Capturing a view is cheap (one
/// shared_ptr copy + one op-vector copy of the bounded backlog); the view
/// stays consistent forever, no matter what publishes after it.
struct ReadView {
  std::shared_ptr<const Snapshot> snapshot;
  std::vector<DeltaOp> deltas;  ///< frozen ++ active, in append order
  /// The table's shared epoch-scoped skyline memo (serve/skyline_memo.h);
  /// null disables dominator-skyline memoization for this view.
  std::shared_ptr<SkylineMemo> memo;

  uint64_t epoch() const { return snapshot->epoch(); }
};

/// The delta log digested for one query: erase bitmaps over the snapshot's
/// base rows, plus the alive inserted rows of both tables. Inserted
/// competitors are also mirrored into an SoA block so the per-candidate
/// dominator scan runs through the batched kernels.
struct DeltaOverlay {
  explicit DeltaOverlay(size_t dims)
      : inserted_competitors(dims),
        inserted_products(dims),
        competitor_block(dims) {}

  /// `competitor_erased[row]` != 0 iff the snapshot's competitor row was
  /// erased after the snapshot was cut. Same for products.
  std::vector<uint8_t> competitor_erased;
  std::vector<uint8_t> product_erased;
  size_t competitors_erased = 0;
  size_t products_erased = 0;
  /// The rows flagged in `competitor_erased`, in op order — the query
  /// engine's prune-soundness face check walks these without scanning the
  /// whole bitmap.
  std::vector<PointId> erased_competitor_rows;

  /// Rows inserted after the snapshot and still alive at view time,
  /// ascending by stable id (ids only grow, appends happen in id order).
  Dataset inserted_competitors;
  std::vector<uint64_t> inserted_competitor_ids;
  Dataset inserted_products;
  std::vector<uint64_t> inserted_product_ids;

  /// SoA mirror of `inserted_competitors` for the batched kernels.
  SoaBlock competitor_block;

  size_t live_competitors(const Snapshot& base) const {
    // Overlay erases always target snapshot-*live* rows (the live table
    // validates ids), so the subtraction never double-counts a tombstone.
    return base.live_competitors() - competitors_erased +
           inserted_competitors.size();
  }
  size_t live_products(const Snapshot& base) const {
    return base.live_products() - products_erased +
           inserted_products.size();
  }
};

/// Folds `view.deltas` over `view.snapshot` into an overlay. Ops arrive in
/// append order, so insert-then-erase sequences cancel correctly.
DeltaOverlay BuildOverlay(const ReadView& view);

}  // namespace skyup

#endif  // SKYUP_SERVE_DELTA_LOG_H_
