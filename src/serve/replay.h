#ifndef SKYUP_SERVE_REPLAY_H_
#define SKYUP_SERVE_REPLAY_H_

// Deterministic serve workloads: a tiny line-oriented format for
// interleaved update + query streams, a seeded generator, and a replayer
// that drives a `Server` in deterministic mode (inline rebuilds, inline
// queries) and emits a byte-stable result log — two replays of the same
// workload must `cmp` equal, which CI enforces.
//
// Format (text, one op per line; blank lines and `#` comments ignored):
//
//   # skyup serve workload dims=2      <- required header, fixes dims
//   ip,0.5,0.25                        <- insert competitor (P), coords
//   it,0.9,0.8                         <- insert product (T), coords
//   ep,3                               <- erase competitor by stable id
//   et,1                               <- erase product by stable id
//   q,5                                <- top-k query, k=5
//
// Stable ids are assigned by the server in op order (competitors and
// products each count up from 1), so a workload can name ids it created
// earlier without any out-of-band state.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.h"

namespace skyup {

class Server;

enum class ReplayOpKind : uint8_t {
  kInsertCompetitor,
  kInsertProduct,
  kEraseCompetitor,
  kEraseProduct,
  kQuery,
};

struct ReplayOp {
  ReplayOpKind kind;
  std::vector<double> coords;  ///< inserts only
  uint64_t id = 0;             ///< erases only
  size_t k = 0;                ///< queries only
};

struct ReplayWorkload {
  size_t dims = 0;
  std::vector<ReplayOp> ops;
};

/// Parses workload text (see the format comment above).
Result<ReplayWorkload> ParseWorkload(const std::string& text);
Result<ReplayWorkload> ReadWorkloadFile(const std::string& path);

/// Writes a seeded random workload of `num_ops` ops in the format above.
/// Op mix: ~35% insert P, ~15% insert T, ~15% erase P, ~10% erase T, ~25%
/// query (erases of an empty table degrade to inserts, so small prefixes
/// stay valid); coords uniform in [0, 1); k uniform in [1, 10]. The same
/// (seed, num_ops, dims) always produces byte-identical output.
Status GenerateWorkload(uint64_t seed, size_t num_ops, size_t dims,
                        std::ostream& out);

struct ReplayReport {
  size_t inserts_p = 0;
  size_t inserts_t = 0;
  size_t erases_p = 0;
  size_t erases_t = 0;
  size_t queries = 0;
  uint64_t final_epoch = 0;
  size_t final_backlog = 0;
  double wall_seconds = 0.0;
};

/// Replays `workload` against `server`, writing one result block per query
/// to `out`. The server must be in deterministic mode
/// (`background_rebuild == false`); the result log is then a pure function
/// of the workload. Every run of up to `batch_max` consecutive queries
/// executes as one group (`QueryBatch`; a run of one at `batch_max == 1`)
/// — the log is byte-identical for every `batch_max`, which CI's batch
/// guard enforces. Costs print with `%.12g`. Returns the op counts;
/// fails fast on the first op the server rejects for a structural reason
/// (arity mismatch, unknown id).
Result<ReplayReport> Replay(Server* server, const ReplayWorkload& workload,
                            std::ostream& out);

}  // namespace skyup

#endif  // SKYUP_SERVE_REPLAY_H_
