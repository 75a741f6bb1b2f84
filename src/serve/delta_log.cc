#include "serve/delta_log.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace skyup {

DeltaRowChunk::DeltaRowChunk(size_t row_dims, bool with_columns)
    : dims(row_dims),
      ids(kDeltaChunkRows),
      rows(kDeltaChunkRows * row_dims),
      columns(with_columns ? kDeltaChunkRows * row_dims : 0) {}

SoaView DeltaPrefix::competitor_lanes(size_t c) const {
  const DeltaRowChunk& chunk = *chunks->competitors[c];
  return SoaView{chunk.columns.data(), kDeltaChunkRows,
                 std::min(kDeltaChunkRows, competitors - c * kDeltaChunkRows),
                 chunk.dims};
}

void DeltaMasks::Build(const Snapshot& base, const DeltaPrefix& log) {
  const size_t sizes[4] = {base.competitors().size(), base.products().size(),
                           log.competitors, log.products};
  size_t total = 0;
  for (size_t s = 0; s < 4; ++s) {
    offset_[s] = total;
    erased_[s] = 0;
    total += sizes[s];
  }
  bytes_.assign(total, 0);
  for (size_t i = 0; i < log.erases; ++i) {
    const DeltaErase& erase = log.erase(i);
    const size_t segment = Segment(erase.target, erase.inserted);
    uint8_t& dead = bytes_[offset_[segment] + static_cast<size_t>(erase.row)];
    if (dead == 0) {
      dead = 1;
      ++erased_[segment];
    }
  }
}

size_t DeltaMasks::Live(DeltaTarget target, const Snapshot& base,
                        const DeltaPrefix& log) const {
  const size_t in_snapshot = target == DeltaTarget::kCompetitor
                                 ? base.competitors().size()
                                 : base.products().size();
  return in_snapshot - snapshot_erased(target) + log.inserted(target) -
         inserted_erased(target);
}

DeltaLog::DeltaLog(std::shared_ptr<const Snapshot> base)
    : base_(std::move(base)) {
  SKYUP_CHECK(base_ != nullptr) << "a delta log needs a base snapshot";
}

DeltaChunks& DeltaLog::GrowChunks() {
  // Readers may hold the current list; the next one is a copy, so theirs
  // never changes under them.
  std::shared_ptr<DeltaChunks> next =
      end_.chunks != nullptr ? std::make_shared<DeltaChunks>(*end_.chunks)
                             : std::make_shared<DeltaChunks>();
  DeltaChunks& chunks = *next;
  end_.chunks = std::move(next);
  return chunks;
}

bool DeltaLog::AcceptsId(DeltaTarget target, uint64_t id) const {
  const size_t n = end_.inserted(target);
  if (n > 0) return id > end_.id(target, n - 1);
  const std::vector<uint64_t>& ids = target == DeltaTarget::kCompetitor
                                         ? base_->competitor_ids()
                                         : base_->product_ids();
  return ids.empty() || id > ids.back();
}

void DeltaLog::AppendInsert(DeltaTarget target, uint64_t id,
                            const double* coords) {
  SKYUP_DCHECK(AcceptsId(target, id)) << "insert id " << id << " out of order";
  const bool competitor = target == DeltaTarget::kCompetitor;
  const size_t row = end_.inserted(target);
  const size_t lane = row % kDeltaChunkRows;
  if (lane == 0) {
    DeltaChunks& chunks = GrowChunks();
    (competitor ? chunks.competitors : chunks.products)
        .push_back(std::make_shared<DeltaRowChunk>(base_->dims(), competitor));
  }
  DeltaRowChunk& chunk = *end_.chunks->rows(target).back();
  chunk.ids[lane] = id;
  std::copy_n(coords, chunk.dims, chunk.rows.data() + lane * chunk.dims);
  if (competitor) {
    for (size_t d = 0; d < chunk.dims; ++d) {
      chunk.columns[d * kDeltaChunkRows + lane] = coords[d];
    }
    ++end_.competitors;
  } else {
    ++end_.products;
  }
  ++end_.ops;
}

std::optional<DeltaErase> DeltaLog::Resolve(DeltaTarget target,
                                            uint64_t id) const {
  // Every inserted id exceeds every base id, and inserted ids ascend with
  // the row, so an id at or above the first inserted one is found by
  // binary search or not at all.
  const size_t n = end_.inserted(target);
  if (n > 0 && id >= end_.id(target, 0)) {
    size_t lo = 0;
    size_t hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (end_.id(target, mid) < id) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == n || end_.id(target, lo) != id) return std::nullopt;
    return DeltaErase{static_cast<PointId>(lo), target, true};
  }
  const bool competitor = target == DeltaTarget::kCompetitor;
  const PointId row =
      competitor ? base_->CompetitorRow(id) : base_->ProductRow(id);
  if (row == kInvalidPointId) return std::nullopt;
  return DeltaErase{row, target, false};
}

void DeltaLog::AppendErase(const DeltaErase& erase) {
  const size_t lane = end_.erases % kDeltaChunkRows;
  if (lane == 0) {
    GrowChunks().erases.push_back(std::make_shared<DeltaEraseChunk>());
  }
  end_.chunks->erases.back()->entries[lane] = erase;
  ++end_.erases;
  ++end_.ops;
  // The skyline memo's clock: erases the indexed probe can observe.
  if (erase.target == DeltaTarget::kCompetitor && !erase.inserted) {
    ++end_.erased_indexed;
  }
}

uint64_t DeltaLog::EraseId(const DeltaErase& erase) const {
  if (erase.inserted) {
    return end_.id(erase.target, static_cast<size_t>(erase.row));
  }
  return erase.target == DeltaTarget::kCompetitor
             ? base_->competitor_id(erase.row)
             : base_->product_id(erase.row);
}

void DeltaLog::CarryOver(const DeltaLog& from, const DeltaPrefix& freeze) {
  const DeltaPrefix& end = from.prefix();
  for (DeltaTarget target : {DeltaTarget::kCompetitor, DeltaTarget::kProduct}) {
    for (size_t i = freeze.inserted(target); i < end.inserted(target); ++i) {
      AppendInsert(target, end.id(target, i), end.row(target, i));
    }
  }
  // An erase past the freeze kills a row that was live at the freeze: it
  // is now either a row of this log's base (the merge kept it) or one of
  // the inserts carried above. Erase order is kept, so the erased-indexed
  // prefix stays a prefix.
  for (size_t i = freeze.erases; i < end.erases; ++i) {
    const DeltaErase& erase = end.erase(i);
    const uint64_t id = from.EraseId(erase);
    std::optional<DeltaErase> moved = Resolve(erase.target, id);
    SKYUP_CHECK(moved.has_value())
        << "carried erase of id " << id << " found no live row";
    AppendErase(*moved);
  }
}

}  // namespace skyup
