#ifndef SKYUP_SERVE_DELTA_LOG_H_
#define SKYUP_SERVE_DELTA_LOG_H_

// The append-only delta pipeline between snapshots. Every accepted update
// (insert/erase on P or T) is appended to its shard's `DeltaLog`, one log
// per epoch, and resolved there once, against the epoch's base snapshot:
// an insert takes the next inserted row of its table, an erase names the
// snapshot row or inserted row it kills. A view captures a `DeltaPrefix`
// (the chunk list plus counts) and reads the log in place; the rebuilder
// folds a frozen prefix into the next snapshot, and the ops appended past
// the freeze are carried into the next epoch's log.
//
// Visibility without copies (docs/algorithms.md, "Serving & online
// updates"):
//   - rows and erase entries live in fixed-capacity chunks held by
//     shared_ptr; a chunk never moves, and adding one replaces the chunk
//     list rather than growing it in place, so a captured list stays
//     valid while the log keeps growing and outlives the epoch;
//   - every write happens under the writer side of the table fence
//     (ShardedTable::route_mu_) before the counts that expose it are
//     bumped, and nothing below a count is ever written again — so a
//     reader whose counts were captured under the reader side reads the
//     rows below them with no lock and no atomics.
//
// Overlay soundness (full argument in docs/algorithms.md):
//   - erased competitors are composed into the index probe as a per-row
//     mask (DominatingSkylineInto): a masked point never enters the
//     traversal's dominance window, so live dominators it would have
//     shadowed are discovered by the same probe — exactness without any
//     linear rescan;
//   - inserted competitors are scanned through the batched dominance
//     kernels and folded into the probed skyline one point at a time
//     (skyline/incremental.h), preserving the value set a from-scratch
//     skyline reduction would produce;
//   - the box lower-bound prune stays sound because every publish
//     re-bulk-loads only live rows, so each epoch's root MBR is exact,
//     and a query's prune is disabled when a *pending* erase of a
//     snapshot competitor touches a face of the live bounding box
//     (serve/shard/shard_query.cc has the face argument).

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/dominance_batch.h"
#include "core/point.h"
#include "serve/snapshot.h"

namespace skyup {

class SkylineMemo;

enum class DeltaTarget : uint8_t {
  kCompetitor,  ///< the paper's P
  kProduct,     ///< the paper's T
};

enum class DeltaKind : uint8_t { kInsert, kErase };

/// One accepted update as a value — what the upgrade cache observes.
/// `coords` is sized `dims` for inserts and empty for erases; `id` is the
/// table-scoped stable id the op creates or removes. The log itself
/// stores resolved rows, not these.
struct DeltaOp {
  DeltaTarget target = DeltaTarget::kCompetitor;
  DeltaKind kind = DeltaKind::kInsert;
  uint64_t id = 0;
  std::vector<double> coords;
};

/// Rows (or erase entries) per log chunk.
inline constexpr size_t kDeltaChunkRows = 256;

/// One fixed-capacity block of the rows one table inserted during an
/// epoch. `rows` is row-major; competitor chunks also keep a
/// dimension-major mirror (stride kDeltaChunkRows) for the batched
/// kernels.
struct DeltaRowChunk {
  DeltaRowChunk(size_t row_dims, bool with_columns);

  size_t dims;
  std::vector<uint64_t> ids;    ///< kDeltaChunkRows stable ids
  std::vector<double> rows;     ///< kDeltaChunkRows * dims
  std::vector<double> columns;  ///< dims * kDeltaChunkRows, or empty
};

/// An erase as resolved at append: the row it kills, either a row of the
/// base snapshot or one of the log's own inserted rows of the same table.
struct DeltaErase {
  PointId row = kInvalidPointId;
  DeltaTarget target = DeltaTarget::kCompetitor;
  bool inserted = false;
};

struct DeltaEraseChunk {
  DeltaErase entries[kDeltaChunkRows];
};

/// A log's chunk list. Replaced, never grown in place, when a chunk is
/// added; the chunks themselves are shared between successive lists.
struct DeltaChunks {
  std::vector<std::shared_ptr<DeltaRowChunk>> competitors;
  std::vector<std::shared_ptr<DeltaRowChunk>> products;
  std::vector<std::shared_ptr<DeltaEraseChunk>> erases;

  const std::vector<std::shared_ptr<DeltaRowChunk>>& rows(
      DeltaTarget target) const {
    return target == DeltaTarget::kCompetitor ? competitors : products;
  }
};

/// A prefix of one epoch's log, captured under the table fence:
/// the chunk list and the counts that bound what a reader may touch.
/// Copying one copies a shared_ptr and five integers.
struct DeltaPrefix {
  std::shared_ptr<const DeltaChunks> chunks;  ///< null before any append
  size_t ops = 0;            ///< accepted ops (inserts + erases)
  size_t competitors = 0;    ///< inserted competitor rows
  size_t products = 0;       ///< inserted product rows
  size_t erases = 0;         ///< erase-list entries
  size_t erased_indexed = 0; ///< erases of snapshot competitors (all indexed)

  size_t size() const { return ops; }
  bool empty() const { return ops == 0; }

  size_t inserted(DeltaTarget target) const {
    return target == DeltaTarget::kCompetitor ? competitors : products;
  }
  /// Stable id / coordinates of inserted row `row` of `target`; ids
  /// ascend with the row.
  uint64_t id(DeltaTarget target, size_t row) const {
    return chunks->rows(target)[row / kDeltaChunkRows]
        ->ids[row % kDeltaChunkRows];
  }
  const double* row(DeltaTarget target, size_t row) const {
    const DeltaRowChunk& chunk = *chunks->rows(target)[row / kDeltaChunkRows];
    return chunk.rows.data() + (row % kDeltaChunkRows) * chunk.dims;
  }
  const DeltaErase& erase(size_t i) const {
    return chunks->erases[i / kDeltaChunkRows]
        ->entries[i % kDeltaChunkRows];
  }
  /// Inserted competitor chunks in the prefix, and the lanes of chunk `c`
  /// the prefix covers (lane `j` is row `c * kDeltaChunkRows + j`).
  size_t competitor_chunks() const {
    return (competitors + kDeltaChunkRows - 1) / kDeltaChunkRows;
  }
  SoaView competitor_lanes(size_t c) const;
};

/// What one query runs against: an immutable snapshot plus a captured
/// prefix of the epoch's delta log. Capturing one copies three
/// shared_ptrs and the prefix counts — no op is copied; the view stays
/// consistent forever, no matter what is appended or published after it.
struct ReadView {
  std::shared_ptr<const Snapshot> snapshot;
  DeltaPrefix deltas;
  /// The table's shared epoch-scoped skyline memo (serve/skyline_memo.h);
  /// null disables dominator-skyline memoization for this view.
  std::shared_ptr<SkylineMemo> memo;

  uint64_t epoch() const { return snapshot->epoch(); }
};

/// A prefix digested for one reader: byte masks of the snapshot rows it
/// erased and of its inserted rows that are dead at its end, plus their
/// counts. Materialized from the erase list alone; `Build` reuses the
/// buffer, so a long-lived digest allocates only when it grows.
class DeltaMasks {
 public:
  void Build(const Snapshot& base, const DeltaPrefix& log);

  /// Non-zero at snapshot row `r` of `target` iff the prefix erased it.
  const uint8_t* snapshot_mask(DeltaTarget target) const {
    return bytes_.data() + offset_[Segment(target, false)];
  }
  /// Non-zero at inserted row `i` of `target` iff the prefix erased it.
  const uint8_t* inserted_mask(DeltaTarget target) const {
    return bytes_.data() + offset_[Segment(target, true)];
  }
  size_t snapshot_erased(DeltaTarget target) const {
    return erased_[Segment(target, false)];
  }
  size_t inserted_erased(DeltaTarget target) const {
    return erased_[Segment(target, true)];
  }
  /// Live rows of `target` at the prefix's end. Erases always target rows
  /// that are live at the time (the sharded table validates ids), so the
  /// subtraction never counts a row twice.
  size_t Live(DeltaTarget target, const Snapshot& base,
              const DeltaPrefix& log) const;

 private:
  static size_t Segment(DeltaTarget target, bool inserted) {
    return (inserted ? 2 : 0) + static_cast<size_t>(target);
  }

  std::vector<uint8_t> bytes_;
  size_t offset_[4] = {};
  size_t erased_[4] = {};
};

/// One epoch's append-only log, bound to the epoch's base snapshot. Not
/// synchronized: every call happens under the owning ShardedTable's fence
/// (`route_mu_`), and readers only ever see it through captured prefixes.
class DeltaLog {
 public:
  explicit DeltaLog(std::shared_ptr<const Snapshot> base);

  DeltaLog(DeltaLog&&) = default;
  DeltaLog& operator=(DeltaLog&&) = default;
  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  const std::shared_ptr<const Snapshot>& base() const { return base_; }
  /// Everything appended so far — what a view or a freeze captures.
  const DeltaPrefix& prefix() const { return end_; }
  size_t size() const { return end_.ops; }

  /// True iff `id` exceeds every id of `target` in the base and the log
  /// (ids only grow, which keeps inserted rows in id order).
  bool AcceptsId(DeltaTarget target, uint64_t id) const;
  /// Appends a row of `base()->dims()` coordinates; `id` must be accepted.
  void AppendInsert(DeltaTarget target, uint64_t id, const double* coords);

  /// The row an erase of `id` kills, or nullopt when no live row of the
  /// base or the log carries the id. Appends nothing.
  std::optional<DeltaErase> Resolve(DeltaTarget target, uint64_t id) const;
  void AppendErase(const DeltaErase& erase);

  /// Re-appends the ops `from` holds past `freeze` (a prefix of `from`),
  /// resolving each erase again against this log's base: the carry-over
  /// of ops that landed while their epoch's successor was being merged.
  void CarryOver(const DeltaLog& from, const DeltaPrefix& freeze);

 private:
  DeltaChunks& GrowChunks();
  uint64_t EraseId(const DeltaErase& erase) const;

  std::shared_ptr<const Snapshot> base_;
  DeltaPrefix end_;
};

}  // namespace skyup

#endif  // SKYUP_SERVE_DELTA_LOG_H_
