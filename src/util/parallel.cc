#include "util/parallel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "util/check.h"

namespace skyup {

size_t ResolveThreadCount(size_t requested, size_t items) {
  if (requested == 0) {
    // Read once: the query is a syscall (or a /sys read), and the serve
    // scatter resolves its width on every query.
    static const size_t hardware =
        std::max(1u, std::thread::hardware_concurrency());
    requested = hardware;
  }
  return std::max<size_t>(1, std::min(requested, items));
}

void ParallelFor(size_t items, size_t threads,
                 const std::function<void(size_t, size_t, size_t)>& body) {
  if (items == 0) return;
  threads = ResolveThreadCount(threads, items);
  // Balanced contiguous partition: shard s covers
  // [s*items/threads, (s+1)*items/threads), so shard sizes differ by at
  // most one and — because ResolveThreadCount caps threads at items —
  // every shard is non-empty. The previous ceil-division split handed
  // trailing shards zero items whenever threads did not divide items
  // (e.g. 5 items over 4 threads ran as 2/2/1/0).
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (size_t s = 1; s < threads; ++s) {
    const size_t begin = s * items / threads;
    const size_t end = (s + 1) * items / threads;
    SKYUP_DCHECK(begin < end) << "empty shard " << s << " of " << threads
                              << " over " << items << " items";
    workers.emplace_back([&body, s, begin, end] { body(s, begin, end); });
  }
  body(0, 0, items / threads);
  for (std::thread& w : workers) w.join();
}

AtomicCostThreshold::AtomicCostThreshold()
    : threshold_(std::numeric_limits<double>::infinity()) {}

double AtomicCostThreshold::Get() const {
  // lint: relaxed-ok (stale larger bound only weakens pruning, header doc)
  return threshold_.load(std::memory_order_relaxed);
}

bool AtomicCostThreshold::RelaxTo(double value) {
  // A NaN bound would silently disable pruning forever (every comparison
  // below is false); surface it instead of converging to garbage.
  SKYUP_DCHECK(!std::isnan(value)) << "RelaxTo(NaN)";
  // lint: relaxed-ok (monotone CAS-min; no payload rides on the value)
  double current = threshold_.load(std::memory_order_relaxed);
  while (value < current) {
    // lint: relaxed-ok (same rationale as the load above)
    if (threshold_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace skyup
