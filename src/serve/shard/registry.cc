#include "serve/shard/registry.h"

#include <string>
#include <utility>

#include "rtree/mbr.h"

namespace skyup {

namespace {

// Tenant names travel inside space-separated wire commands and become
// log/metric labels, so the charset is deliberately narrow.
bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

Result<std::shared_ptr<Server>> TenantRegistry::Create(const std::string& name,
                                                       size_t dims,
                                                       size_t shards,
                                                       size_t quota) {
  if (!ValidTenantName(name)) {
    return Status::InvalidArgument(
        "tenant names are 1-64 chars of [A-Za-z0-9._-]");
  }
  // Before anything is sized by dims: the cost function below allocates
  // per dimension, and the index caps dimensionality at kMaxDims.
  if (dims < 1 || dims > kMaxDims) {
    return Status::InvalidArgument("tenant dims must be in [1, " +
                                   std::to_string(kMaxDims) + "]");
  }
  MutexLock lock(mu_);
  if (tenants_.count(name) != 0) {
    return Status::FailedPrecondition("tenant '" + name + "' already exists");
  }
  ServerOptions options = base_;
  options.dims = dims;
  options.shards = shards;
  if (quota > 0) options.max_pending = quota;
  options.tenant_id = next_tenant_id_ + 1;
  Result<std::unique_ptr<Server>> server = Server::Create(
      ProductCostFunction::ReciprocalSum(dims, 1e-3), std::move(options));
  if (!server.ok()) return server.status();
  ++next_tenant_id_;
  std::shared_ptr<Server> shared = std::move(server).value();
  tenants_.emplace(name, shared);
  return shared;
}

Result<std::shared_ptr<Server>> TenantRegistry::Find(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> TenantRegistry::Names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, server] : tenants_) names.push_back(name);
  return names;
}

size_t TenantRegistry::size() const {
  MutexLock lock(mu_);
  return tenants_.size();
}

}  // namespace skyup
