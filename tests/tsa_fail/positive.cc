// Expected-pass seed (EXPECT=pass, tsa_compile_check.cmake): exercises
// the whole annotated wrapper surface — Mutex/MutexLock, SharedMutex
// with Reader/WriterLock, CondVar waits (plain, timed, explicit
// predicate loop), try_lock, SKYUP_REQUIRES preconditions, and a
// lock-order-correct band nesting — and must stay clean under the full
// thread-safety flag set. If this seed starts failing, the wrapper
// types (src/util/mutex.h), not the seed, regressed.

#include <chrono>

#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace {

using skyup::lock_order::kObsRegistry;
using skyup::lock_order::kShardTable;
using skyup::lock_order::kTableSub;

class Table {
 public:
  void Put(int v) {
    skyup::MutexLock lock(mu_);
    value_ = v;
    ApplyLocked();
    skyup::MutexLock sub(sub_mu_);  // correct order: table before sub
    sub_value_ = v;
  }

  int Get() const {
    skyup::MutexLock lock(mu_);
    return value_;
  }

  bool TryBump() {
    if (!mu_.try_lock()) return false;
    ++value_;
    mu_.unlock();
    return true;
  }

  void WaitNonZero() {
    skyup::MutexLock lock(mu_);
    while (value_ == 0) {
      cv_.wait(mu_);
    }
  }

  bool WaitNonZeroFor(std::chrono::milliseconds timeout) {
    skyup::MutexLock lock(mu_);
    while (value_ == 0) {
      if (cv_.wait_for(mu_, timeout) == std::cv_status::timeout) {
        return value_ != 0;
      }
    }
    return true;
  }

  void Signal() {
    {
      skyup::MutexLock lock(mu_);
      value_ = 1;
    }
    cv_.notify_all();
  }

 private:
  void ApplyLocked() SKYUP_REQUIRES(mu_) { ++value_; }

  mutable skyup::Mutex mu_ SKYUP_ACQUIRED_AFTER(kShardTable)
      SKYUP_ACQUIRED_BEFORE(kTableSub);
  skyup::CondVar cv_;
  int value_ SKYUP_GUARDED_BY(mu_) = 0;
  skyup::Mutex sub_mu_ SKYUP_ACQUIRED_AFTER(kTableSub)
      SKYUP_ACQUIRED_BEFORE(kObsRegistry);
  int sub_value_ SKYUP_GUARDED_BY(sub_mu_) = 0;
};

class SharedCounter {
 public:
  int Read() const {
    skyup::ReaderLock lock(mu_);
    return value_;
  }

  void Write(int v) {
    skyup::WriterLock lock(mu_);
    value_ = v;
  }

 private:
  mutable skyup::SharedMutex mu_;
  int value_ SKYUP_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Table t;
  t.Put(1);
  t.Signal();
  t.WaitNonZero();
  static_cast<void>(t.WaitNonZeroFor(std::chrono::milliseconds(1)));
  static_cast<void>(t.TryBump());
  SharedCounter s;
  s.Write(2);
  return t.Get() + s.Read();
}
