#include "serve/skyline_memo.h"

#include <cstring>

#include "util/check.h"

namespace skyup {

namespace {

// splitmix64 finalizer: the bucket-key mixer. Only distribution quality
// matters here — collisions are resolved by exact compare.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Canonicalized box key: truncate the low 32 mantissa bits of each
// coordinate (relative quantization, ~1e-7, range-independent and with no
// float->int overflow hazard) so near-identical probe points land in the
// same bucket. +0.0/-0.0 collapse to one cell explicitly; IEEE comparisons
// cannot distinguish them, and entries compare with `==` anyway.
uint64_t QuantizeCoord(double v) {
  if (v == 0.0) return 0;  // lint: float-eq-ok
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits & ~0xffffffffull;
}

constexpr size_t kMaxBucketEntries = 64;

}  // namespace

SkylineMemo::SkylineMemo(size_t dims, size_t max_bytes)
    : dims_(dims),
      max_bytes_(max_bytes),
      shard_budget_(max_bytes / kShards + 1) {
  SKYUP_CHECK(dims >= 1) << "memo dims must be positive";
  SKYUP_CHECK(max_bytes >= 1) << "memo byte budget must be positive";
}

uint64_t SkylineMemo::KeyOf(const double* t) const {
  uint64_t h = 0x51ab2ea7315309ddull;
  for (size_t d = 0; d < dims_; ++d) {
    h = Mix(h ^ QuantizeCoord(t[d]));
  }
  return h;
}

size_t SkylineMemo::EntryBytes(const Entry& e) {
  return sizeof(Entry) + e.t.capacity() * sizeof(double) +
         e.rows.capacity() * sizeof(PointId);
}

bool SkylineMemo::Lookup(uint64_t epoch, const double* t,
                         uint64_t erased_indexed, std::vector<PointId>* rows) {
  const uint64_t key = KeyOf(t);
  Shard& shard = shards_[key % kShards];
  MutexLock lock(shard.mu);
  auto it = shard.buckets.find(key);
  if (it == shard.buckets.end()) return false;
  for (const Entry& e : it->second.entries) {
    if (e.epoch != epoch || e.erased_indexed != erased_indexed) continue;
    bool same = true;
    for (size_t d = 0; d < dims_ && same; ++d) {
      same = e.t[d] == t[d];  // lint: float-eq-ok
    }
    if (!same) continue;
    rows->assign(e.rows.begin(), e.rows.end());
    return true;
  }
  return false;
}

void SkylineMemo::Store(uint64_t epoch, const double* t,
                        uint64_t erased_indexed,
                        const std::vector<PointId>& rows) {
  const uint64_t key = KeyOf(t);
  Shard& shard = shards_[key % kShards];
  Entry entry;
  entry.epoch = epoch;
  entry.erased_indexed = erased_indexed;
  entry.t.assign(t, t + dims_);
  entry.rows = rows;
  const size_t entry_bytes = EntryBytes(entry);

  MutexLock lock(shard.mu);
  auto [it, created] = shard.buckets.try_emplace(key);
  if (created) shard.fifo.push_back(key);
  Bucket& bucket = it->second;
  if (bucket.entries.size() >= kMaxBucketEntries) {
    // Pathological pileup in one cell (adversarially aligned probes):
    // bound the linear lookup scan by dropping the oldest entry.
    shard.bytes -= EntryBytes(bucket.entries.front());
    bucket.entries.erase(bucket.entries.begin());
    ++shard.evictions;
  }
  bucket.entries.push_back(std::move(entry));
  shard.bytes += entry_bytes;
  if (shard.bytes > shard_budget_) EvictLocked(&shard);
}

void SkylineMemo::EvictLocked(Shard* shard) {
  while (shard->bytes > shard_budget_ && shard->fifo_head < shard->fifo.size()) {
    const uint64_t victim = shard->fifo[shard->fifo_head++];
    auto it = shard->buckets.find(victim);
    if (it == shard->buckets.end()) continue;
    for (const Entry& e : it->second.entries) {
      shard->bytes -= EntryBytes(e);
      ++shard->evictions;
    }
    shard->buckets.erase(it);
  }
  if (shard->fifo_head == shard->fifo.size()) {
    shard->fifo.clear();
    shard->fifo_head = 0;
  }
}

void SkylineMemo::OnPublish() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.buckets.clear();
    shard.fifo.clear();
    shard.fifo_head = 0;
    shard.bytes = 0;
  }
}

size_t SkylineMemo::entry_count() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [key, bucket] : shard.buckets) {
      n += bucket.entries.size();
    }
  }
  return n;
}

size_t SkylineMemo::bytes_used() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    n += shard.bytes;
  }
  return n;
}

uint64_t SkylineMemo::evictions() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    n += shard.evictions;
  }
  return n;
}

}  // namespace skyup
