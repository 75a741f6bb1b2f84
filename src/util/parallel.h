#ifndef SKYUP_UTIL_PARALLEL_H_
#define SKYUP_UTIL_PARALLEL_H_

// Minimal sharded-parallelism primitives shared by the query engine and
// the benches: a contiguous-range ParallelFor over std::thread workers and
// a lock-free, monotonically non-increasing cost threshold (CAS-min).
//
// Static concurrency analysis note: ParallelFor is the one place work
// crosses threads without a capability changing hands — Clang Thread
// Safety Analysis cannot follow the spawn/join handoff, so a `body` that
// touches guarded state must acquire the guarding lock *inside* the
// lambda (as core/probing.cc does for its stop status). The
// join in ParallelFor is still the happens-before edge that lets callers
// read the workers' results unlocked afterwards.

#include <atomic>
#include <cstddef>
#include <functional>

namespace skyup {

/// Number of workers actually used for `items` units of work: `requested`
/// capped at `items`, with 0 meaning one per hardware thread. Always >= 1.
size_t ResolveThreadCount(size_t requested, size_t items);

/// Splits [0, items) into near-equal contiguous shards and runs
/// `body(shard, begin, end)` on each, shard 0 on the calling thread and the
/// rest on their own std::thread. Returns only after every shard finished.
/// `threads` is resolved with `ResolveThreadCount`; `body` must be safe to
/// run concurrently on disjoint ranges.
void ParallelFor(size_t items, size_t threads,
                 const std::function<void(size_t shard, size_t begin,
                                          size_t end)>& body);

/// A cost bound shared by all workers of one query, maintained lock-free
/// with compare-exchange. Starts at +infinity ("admit everything");
/// workers only ever lower it as their local top-k buffers fill, so it
/// converges onto the global k-th-best cost. Reads are relaxed: a stale
/// (larger) value merely weakens pruning, never correctness.
class AtomicCostThreshold {
 public:
  AtomicCostThreshold();

  /// Current bound. A candidate whose cost (or sound lower bound on it)
  /// strictly exceeds this value is provably outside the global top-k.
  double Get() const;

  /// Lowers the bound to `value` if that improves on the current one
  /// (CAS-min loop). Returns true iff this call changed the threshold.
  bool RelaxTo(double value);

 private:
  std::atomic<double> threshold_;
};

}  // namespace skyup

#endif  // SKYUP_UTIL_PARALLEL_H_
