#ifndef SKYUP_UTIL_LOCK_ORDER_H_
#define SKYUP_UTIL_LOCK_ORDER_H_

// Global lock-acquisition order, encoded as capability "rank" tokens so
// Clang Thread Safety Analysis (-Wthread-safety-beta) turns potential
// deadlocks into compile errors.
//
// A Rank is a capability that is never acquired at runtime; it exists
// only to anchor SKYUP_ACQUIRED_BEFORE/AFTER edges. Each real mutex is
// sandwiched between two adjacent ranks, which places every mutex class
// in one total order without pairwise edges between unrelated mutexes.
// The analysis computes the transitive closure, so acquiring a
// lower-band mutex while holding a higher-band one is rejected at
// compile time.
//
// Declared order, outermost (acquired first) to innermost:
//
//   kFrontDoor     TenantRegistry::mu_ (tenant lookup/create may admit a
//        |                             query — the whole serving stack
//        |                             nests under the registry)
//   kServerQueue   Server::queue_mu_   (admission queue + worker wakeup)
//        |
//   kServerStats   Server::stats_mu_   (ServeStats + latency histograms;
//        |                             Submit records rejects while
//        |                             holding the queue lock)
//   kRebuilder     ShardedTable::coord_mu_ (publish coordinator; a
//        |                             cycle holds it across freeze, merge
//        |                             and install; Server::stats() reads
//        |                             publish counters under stats_mu_)
//   kShardTable    ShardedTable::route_mu_ — the table fence and the
//        |         only lock on shard state: id routing and each op's
//        |         log append on the writer side, view capture on the
//        |         reader side, every publish install on the writer side
//   kTableSub      UpgradeCache, SkylineMemo shards — table
//        |         substructures locked while route_mu_ is held (cache
//        |         feed, memo roll at install); mutually non-nesting
//   kObsRegistry   trace registry, MetricsRegistry — any layer may
//        |         export metrics/spans while holding serving locks
//   kObsFlight     FlightRecorder::mu_ — query records are appended
//        |         from outcome paths that may hold stats_mu_, and
//        |         system samples are taken while reading table stats
//   kObsLog        LogSink::mu_ — the true leaf: every layer (including
//                  the flight recorder and the registries above) must
//                  be able to emit a structured log line from anywhere,
//                  so nothing is ever acquired under the log sink.
//
// See docs/algorithms.md ("Static concurrency analysis") for the full
// capability map and the rationale for each edge.

#include "util/thread_annotations.h"

namespace skyup {
namespace lock_order {

class SKYUP_CAPABILITY("lock_rank") Rank {
 public:
  Rank() = default;
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;
};

inline Rank kFrontDoor;
inline Rank kServerQueue SKYUP_ACQUIRED_AFTER(kFrontDoor);
inline Rank kServerStats SKYUP_ACQUIRED_AFTER(kServerQueue);
inline Rank kRebuilder SKYUP_ACQUIRED_AFTER(kServerStats);
inline Rank kShardTable SKYUP_ACQUIRED_AFTER(kRebuilder);
inline Rank kTableSub SKYUP_ACQUIRED_AFTER(kShardTable);
inline Rank kObsRegistry SKYUP_ACQUIRED_AFTER(kTableSub);
inline Rank kObsFlight SKYUP_ACQUIRED_AFTER(kObsRegistry);
inline Rank kObsLog SKYUP_ACQUIRED_AFTER(kObsFlight);

}  // namespace lock_order
}  // namespace skyup

#endif  // SKYUP_UTIL_LOCK_ORDER_H_
