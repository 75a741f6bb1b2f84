#ifndef SKYUP_CORE_QUERY_CONTROL_H_
#define SKYUP_CORE_QUERY_CONTROL_H_

// Cooperative cancellation + deadline token for long-running queries.
//
// The serving layer (src/serve/) hands one `QueryControl` per query to the
// engine. The offline candidate loop (core/probing.cc) polls `Check()`
// between gathers once `kPollStride` candidates have passed, at every
// thread count, so a deadline fires within one tile — at most 64
// candidates; the serving sweep polls every `kPollStride` candidates. Both
// unwind with `kCancelled` / `kDeadlineExceeded` when it fires. The token
// is write-once-ish by design: the deadline is set before the query is
// submitted (workers only read it), while `Cancel()` may race with the
// query from any thread.

#include <atomic>
#include <chrono>
#include <cstddef>

#include "util/check.h"
#include "util/status.h"
#include "util/timer.h"

namespace skyup {

class QueryControl {
 public:
  /// How many candidates a shard processes between `Check()` polls (the
  /// offline loop additionally waits for the current tile, at most 64
  /// candidates, to finish). Small enough that a deadline fires within a
  /// handful of upgrade evaluations, large enough that the steady-clock
  /// read never shows up in a profile.
  static constexpr size_t kPollStride = 32;

  QueryControl() = default;
  QueryControl(const QueryControl&) = delete;
  QueryControl& operator=(const QueryControl&) = delete;

  /// Requests cancellation. Safe to call from any thread, any time.
  /// lint: relaxed-ok (a lone flag carries no payload; workers poll it)
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Sets an absolute deadline. Must be called before the query starts
  /// (workers read the deadline without further synchronization beyond
  /// the release/acquire pair on `has_deadline_`).
  void SetDeadline(SteadyClock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_.store(true, std::memory_order_release);
  }

  /// The largest timeout `SetTimeout` takes: half the clock's range, so
  /// `now + seconds` cannot overflow.
  static constexpr double kMaxTimeoutSeconds =
      std::chrono::duration<double>(SteadyClock::duration::max()).count() /
      2.0;

  /// Convenience: deadline = now + `seconds`, with `seconds` in
  /// (0, kMaxTimeoutSeconds].
  void SetTimeout(double seconds) {
    SKYUP_DCHECK(seconds > 0.0 && seconds <= kMaxTimeoutSeconds)
        << "timeout out of range: " << seconds;
    SetDeadline(SteadyClock::now() +
                std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(seconds)));
  }

  /// Stamps the admission-assigned query id. Like the deadline, this is
  /// set before the query is handed to a worker (the queue mutex
  /// publishes it), so workers read it without further synchronization.
  /// 0 means "never admitted" (e.g. engine-level tests).
  void set_query_id(uint64_t id) { query_id_ = id; }
  uint64_t query_id() const { return query_id_; }

  bool cancelled() const {
    // lint: relaxed-ok (poll of the lone flag; a late observation only
    // delays the unwind by at most one poll stride)
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// OK while the query may keep running; `kCancelled` or
  /// `kDeadlineExceeded` once it must stop. Cancellation wins ties so a
  /// cancelled query reports as cancelled even when its deadline has also
  /// lapsed.
  Status Check() const {
    if (cancelled()) return Status::Cancelled("query cancelled");
    if (has_deadline_.load(std::memory_order_acquire) &&
        SteadyClock::now() >= deadline_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  SteadyClock::time_point deadline_{};
  uint64_t query_id_ = 0;
};

}  // namespace skyup

#endif  // SKYUP_CORE_QUERY_CONTROL_H_
