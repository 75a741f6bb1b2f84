#ifndef SKYUP_SERVE_SHARD_REGISTRY_H_
#define SKYUP_SERVE_SHARD_REGISTRY_H_

// Multi-tenant registry for the network front door: named P/T dataset
// pairs, each backed by its own `Server` (own snapshots, own delta log,
// own admission queue — tenants share nothing but the process).
//
// Tenant model:
//   - A tenant is created explicitly (`create` on the wire) with its
//     own dims, shard count, and admission quota; the registry stamps a
//     numeric tenant id (1-based, creation order) into the tenant's
//     `ServerOptions::tenant_id`, so flight records and slow-query logs
//     attribute work to the tenant that caused it.
//   - The per-tenant admission quota is `ServerOptions::max_pending`:
//     one tenant saturating its queue gets `ResourceExhausted` on its
//     own connections while other tenants' queues stay unaffected.
//   - Base options (rebuild policy, batching, memo budget, flight
//     recorder flags) come from the registry-wide template supplied at
//     construction; per-tenant create parameters override dims/shards/
//     quota only.
//
// The registry mutex sits in the `kFrontDoor` band — the outermost rank
// in the process — because tenant creation constructs a full Server
// (which starts threads and takes serving-stack locks) while the map is
// held against a racing create of the same name.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace skyup {

class TenantRegistry {
 public:
  /// `base` is the options template every tenant inherits; its dims /
  /// shards / tenant_id fields are overridden per create.
  explicit TenantRegistry(ServerOptions base) : base_(std::move(base)) {}

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Creates tenant `name` with its own server over `shards` shards (in
  /// [1, kMaxShards]); `quota == 0` inherits the base `max_pending`.
  /// Fails with kFailedPrecondition if the name exists and
  /// kInvalidArgument on a malformed name, dims outside [1, kMaxDims], or
  /// a shard count outside its range — all checked before the tenant's
  /// server allocates anything.
  Result<std::shared_ptr<Server>> Create(const std::string& name, size_t dims,
                                         size_t shards, size_t quota);

  /// The tenant's server, or kNotFound. The returned shared_ptr keeps
  /// the server alive across concurrent erase/shutdown, so handlers
  /// never hold the registry lock while serving.
  Result<std::shared_ptr<Server>> Find(const std::string& name) const;

  /// Tenant names in lexicographic order.
  std::vector<std::string> Names() const;

  size_t size() const;

 private:
  const ServerOptions base_;
  mutable Mutex mu_ SKYUP_ACQUIRED_AFTER(lock_order::kFrontDoor)
      SKYUP_ACQUIRED_BEFORE(lock_order::kServerQueue);
  std::map<std::string, std::shared_ptr<Server>> tenants_
      SKYUP_GUARDED_BY(mu_);
  uint64_t next_tenant_id_ SKYUP_GUARDED_BY(mu_) = 0;
};

}  // namespace skyup

#endif  // SKYUP_SERVE_SHARD_REGISTRY_H_
