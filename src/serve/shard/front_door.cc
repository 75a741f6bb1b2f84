#include "serve/shard/front_door.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <utility>

#include "serve/shard/wire.h"

namespace skyup {
namespace {

std::string Num17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status ParseU64(const std::string& field, uint64_t* out) {
  if (field.empty()) return Status::InvalidArgument("empty integer field");
  uint64_t value = 0;
  for (char c : field) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad integer field '" + field + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return Status::OK();
}

Status ParseF64(const std::string& field, double* out) {
  char* end = nullptr;
  *out = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad numeric field '" + field + "'");
  }
  return Status::OK();
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  size_t at = 0;
  while (at < line.size()) {
    while (at < line.size() && line[at] == ' ') ++at;
    size_t end = at;
    while (end < line.size() && line[end] != ' ') ++end;
    if (end > at) tokens.push_back(line.substr(at, end - at));
    at = end;
  }
  return tokens;
}

std::vector<std::string> SplitCommas(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    const size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

// `-err <Code> <message>`; newlines in the message would break the
// response's line structure, so they flatten to spaces.
std::string ErrResponse(const Status& status) {
  std::string message = status.message();
  for (char& c : message) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  std::string out = "-err ";
  out += StatusCodeName(status.code());
  out += ' ';
  out += message;
  return out;
}

// Looks up `key=` among option-style tokens (tokens[from..]); missing
// keys return `fallback`, malformed values an error.
Result<uint64_t> OptionU64(const std::vector<std::string>& tokens, size_t from,
                           const std::string& key, uint64_t fallback) {
  const std::string prefix = key + "=";
  for (size_t i = from; i < tokens.size(); ++i) {
    if (tokens[i].rfind(prefix, 0) == 0) {
      uint64_t value = 0;
      Status st = ParseU64(tokens[i].substr(prefix.size()), &value);
      if (!st.ok()) return st;
      return value;
    }
  }
  return fallback;
}

}  // namespace

Result<std::unique_ptr<FrontDoor>> FrontDoor::Start(FrontDoorOptions options) {
  std::unique_ptr<FrontDoor> door(new FrontDoor(options));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  // Loopback only: the front door is a bench/CI harness, not an
  // internet-facing daemon.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int bind_errno = errno;
    ::close(fd);
    return Status::IOError("bind port " + std::to_string(options.port) +
                           ": " + std::strerror(bind_errno));
  }
  if (::listen(fd, 128) != 0) {
    const int listen_errno = errno;
    ::close(fd);
    return Status::IOError(std::string("listen: ") +
                           std::strerror(listen_errno));
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    const int name_errno = errno;
    ::close(fd);
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(name_errno));
  }
  door->listen_fd_ = fd;
  door->port_ = ntohs(bound.sin_port);
  door->accept_thread_ = std::thread(&FrontDoor::AcceptLoop, door.get());
  return door;
}

FrontDoor::~FrontDoor() { Stop(); }

void FrontDoor::WaitForShutdown() {
  MutexLock lock(mu_);
  while (!shutdown_requested_ && !stopping_) cv_.wait(mu_);
}

void FrontDoor::Stop() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
    cv_.notify_all();
    // Unblock every connection read; the connection thread itself still
    // owns the close (exactly-once), so this is shutdown(), not close().
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) t.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void FrontDoor::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or fatal — either way, done
    }
    MutexLock lock(mu_);
    if (stopping_) {
      ::close(fd);
      continue;
    }
    live_fds_.push_back(fd);
    conn_threads_.emplace_back(&FrontDoor::ServeConnection, this, fd);
  }
}

void FrontDoor::ServeConnection(int fd) {
  for (;;) {
    Result<std::string> request = WireReadFrame(fd, /*eof_ok=*/true);
    if (!request.ok()) break;  // clean peer close, Stop, or a broken frame
    bool shutdown = false;
    const std::string response = HandleRequest(*request, &shutdown);
    if (!WireWriteFrame(fd, response).ok()) break;
    if (shutdown) {
      MutexLock lock(mu_);
      shutdown_requested_ = true;
      cv_.notify_all();
    }
  }
  MutexLock lock(mu_);
  for (size_t i = 0; i < live_fds_.size(); ++i) {
    if (live_fds_[i] == fd) {
      live_fds_[i] = live_fds_.back();
      live_fds_.pop_back();
      break;
    }
  }
  ::close(fd);
}

std::string FrontDoor::HandleRequest(const std::string& request,
                                     bool* shutdown) {
  const size_t nl = request.find('\n');
  const std::string first =
      nl == std::string::npos ? request : request.substr(0, nl);
  const std::vector<std::string> tokens = SplitTokens(first);
  if (tokens.empty()) {
    return ErrResponse(Status::InvalidArgument("empty command"));
  }
  const std::string& cmd = tokens[0];

  if (cmd == "ping") return "+ok pong";

  if (cmd == "shutdown") {
    *shutdown = true;
    return "+ok bye";
  }

  if (cmd == "create") {
    if (tokens.size() < 3) {
      return ErrResponse(Status::InvalidArgument(
          "usage: create <tenant> dims=<D> [shards=<N>] [quota=<Q>]"));
    }
    Result<uint64_t> dims = OptionU64(tokens, 2, "dims", 0);
    // An omitted shards= means one shard; an explicit 0 is refused at
    // tenant creation like any other out-of-range count.
    Result<uint64_t> shards = OptionU64(tokens, 2, "shards", 1);
    Result<uint64_t> quota = OptionU64(tokens, 2, "quota", 0);
    if (!dims.ok()) return ErrResponse(dims.status());
    if (!shards.ok()) return ErrResponse(shards.status());
    if (!quota.ok()) return ErrResponse(quota.status());
    Result<std::shared_ptr<Server>> created =
        registry_.Create(tokens[1], static_cast<size_t>(*dims),
                         static_cast<size_t>(*shards),
                         static_cast<size_t>(*quota));
    if (!created.ok()) return ErrResponse(created.status());
    return "+ok tenant=" + std::to_string((*created)->options().tenant_id);
  }

  // Every remaining command names its tenant as tokens[1].
  if (tokens.size() < 2) {
    return ErrResponse(
        Status::InvalidArgument("command '" + cmd + "' needs a tenant"));
  }
  Result<std::shared_ptr<Server>> found = registry_.Find(tokens[1]);
  if (!found.ok()) return ErrResponse(found.status());
  Server& server = **found;
  const size_t dims = server.options().dims;

  if (cmd == "add") {
    if (tokens.size() != 3 + dims || (tokens[2] != "p" && tokens[2] != "t")) {
      return ErrResponse(Status::InvalidArgument(
          "usage: add <tenant> <p|t> <" + std::to_string(dims) + " coords>"));
    }
    std::vector<double> coords(dims);
    for (size_t d = 0; d < dims; ++d) {
      Status st = ParseF64(tokens[3 + d], &coords[d]);
      if (!st.ok()) return ErrResponse(st);
    }
    Result<uint64_t> id = tokens[2] == "p" ? server.InsertCompetitor(coords)
                                           : server.InsertProduct(coords);
    if (!id.ok()) return ErrResponse(id.status());
    return "+ok id=" + std::to_string(*id);
  }

  if (cmd == "erase") {
    if (tokens.size() != 4 || (tokens[2] != "p" && tokens[2] != "t")) {
      return ErrResponse(
          Status::InvalidArgument("usage: erase <tenant> <p|t> <id>"));
    }
    uint64_t id = 0;
    Status st = ParseU64(tokens[3], &id);
    if (!st.ok()) return ErrResponse(st);
    Status erased = tokens[2] == "p" ? server.EraseCompetitor(id)
                                     : server.EraseProduct(id);
    if (!erased.ok()) return ErrResponse(erased);
    return "+ok";
  }

  if (cmd == "load") {
    // Bulk rows ride in the same frame, one "p,..."/"t,..." line each.
    uint64_t np = 0;
    uint64_t nt = 0;
    size_t line_no = 1;
    size_t at = nl;
    while (at != std::string::npos && at + 1 < request.size()) {
      const size_t start = at + 1;
      const size_t end = request.find('\n', start);
      const std::string line = end == std::string::npos
                                   ? request.substr(start)
                                   : request.substr(start, end - start);
      at = end;
      ++line_no;
      if (line.empty()) continue;
      const std::vector<std::string> fields = SplitCommas(line);
      if (fields.size() != dims + 1 ||
          (fields[0] != "p" && fields[0] != "t")) {
        return ErrResponse(Status::InvalidArgument(
            "load line " + std::to_string(line_no) + ": expected <p|t>," +
            std::to_string(dims) + " coords"));
      }
      std::vector<double> coords(dims);
      for (size_t d = 0; d < dims; ++d) {
        Status st = ParseF64(fields[1 + d], &coords[d]);
        if (!st.ok()) return ErrResponse(st);
      }
      Result<uint64_t> id = fields[0] == "p" ? server.InsertCompetitor(coords)
                                             : server.InsertProduct(coords);
      if (!id.ok()) return ErrResponse(id.status());
      if (fields[0] == "p") {
        ++np;
      } else {
        ++nt;
      }
    }
    return "+ok p=" + std::to_string(np) + " t=" + std::to_string(nt);
  }

  if (cmd == "topk") {
    if (tokens.size() < 3) {
      return ErrResponse(Status::InvalidArgument(
          "usage: topk <tenant> <k> [timeout=<seconds>]"));
    }
    uint64_t k = 0;
    Status st = ParseU64(tokens[2], &k);
    if (!st.ok() || k == 0) {
      return ErrResponse(Status::InvalidArgument("bad k '" + tokens[2] + "'"));
    }
    QueryRequest query;
    query.k = static_cast<size_t>(k);
    for (size_t i = 3; i < tokens.size(); ++i) {
      if (tokens[i].rfind("timeout=", 0) == 0) {
        Status parsed = ParseF64(tokens[i].substr(8), &query.timeout_seconds);
        if (!parsed.ok()) return ErrResponse(parsed);
      }
    }
    // Through the worker pool: admission control (the tenant's quota)
    // and grouped execution behave exactly as for in-process callers.
    QueryResponse response = server.Submit(std::move(query)).get();
    if (!response.status.ok()) return ErrResponse(response.status);
    std::string out = "+ok n=" + std::to_string(response.results.size()) +
                      " epoch=" + std::to_string(response.epoch);
    for (size_t r = 0; r < response.results.size(); ++r) {
      const UpgradeResult& res = response.results[r];
      out += '\n';
      out += std::to_string(r + 1);
      out += " id=" + std::to_string(res.product_id);
      out += " cost=" + Num17(res.cost);
      out += " upgraded=";
      for (size_t d = 0; d < res.upgraded.size(); ++d) {
        if (d > 0) out += ';';
        out += Num17(res.upgraded[d]);
      }
    }
    return out;
  }

  if (cmd == "stats") {
    const ServeStats stats = server.stats();
    std::string out = "+ok";
    auto line = [&out](const char* key, uint64_t value) {
      out += '\n';
      out += key;
      out += '=';
      out += std::to_string(value);
    };
    line("tenant_id", server.options().tenant_id);
    line("dims", dims);
    line("shards", server.options().shards);
    line("quota", server.options().max_pending);
    line("epoch", server.CurrentEpoch());
    line("delta_backlog", server.DeltaBacklog());
    line("rebuild_threshold_ops", server.options().rebuild_threshold_ops);
    line("queries_executed", stats.queries_executed);
    line("queries_rejected", stats.queries_rejected);
    line("queries_timed_out", stats.queries_timed_out);
    line("updates_applied", stats.updates_applied);
    line("updates_rejected", stats.updates_rejected);
    line("rebuilds_published", stats.rebuilds_published);
    line("patches_published", stats.patches_published);
    line("memo_hits", stats.memo_hits);
    line("memo_misses", stats.memo_misses);
    line("batches_executed", stats.batches_executed);
    line("batched_queries", stats.batched_queries);
    line("shard_queries", stats.shard_queries);
    line("shard_fanout", stats.shard_fanout);
    return out;
  }

  return ErrResponse(
      Status::InvalidArgument("unknown command '" + cmd + "'"));
}

}  // namespace skyup
