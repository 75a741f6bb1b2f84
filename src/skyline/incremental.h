#ifndef SKYUP_SKYLINE_INCREMENTAL_H_
#define SKYUP_SKYLINE_INCREMENTAL_H_

// Incremental skyline maintenance: patch an existing skyline under point
// insertion instead of re-reducing the whole candidate set. The serving
// engine (src/serve/shard/shard_query.cc) starts from the index probe's
// skyline of live dominators and folds in pending inserts one at a time
// (and, across shards, the other shards' skylines); the result
// is the same *value set* SkylineOfPointers (skyline/sfs.cc) would return
// over the union — one representative per distinct coordinate vector,
// mutually non-dominating — which is all downstream consumers depend on.

#include <cstddef>
#include <vector>

namespace skyup {

/// Folds point `q` into `skyline` (a set of mutually non-dominating,
/// deduplicated coordinate pointers): drops `q` when some member
/// dominates-or-equals it, otherwise evicts every member `q` dominates
/// and appends `q`. Order of survivors is preserved (stable compaction).
/// Returns true iff `q` joined the skyline. O(|skyline| * dims).
bool PatchSkylineInsert(std::vector<const double*>* skyline, const double* q,
                        size_t dims);

}  // namespace skyup

#endif  // SKYUP_SKYLINE_INCREMENTAL_H_
