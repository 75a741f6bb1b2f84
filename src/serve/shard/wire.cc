#include "serve/shard/wire.h"

#include <netdb.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

namespace skyup {
namespace {

// MSG_NOSIGNAL keeps a dead peer an EPIPE errno instead of a process
// signal; connection errors must surface as Status, never as SIGPIPE.
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

StatusCode StatusCodeFromName(const std::string& name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kInvalidArgument,    StatusCode::kNotFound,
      StatusCode::kOutOfRange,         StatusCode::kFailedPrecondition,
      StatusCode::kInternal,           StatusCode::kIOError,
      StatusCode::kNotSupported,       StatusCode::kCancelled,
      StatusCode::kDeadlineExceeded,   StatusCode::kResourceExhausted,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeName(code)) return code;
  }
  // A code this build does not know still fails loudly, just untyped.
  return StatusCode::kInternal;
}

std::string FirstLine(const std::string& payload) {
  const size_t nl = payload.find('\n');
  return nl == std::string::npos ? payload : payload.substr(0, nl);
}

// `+ok a=1 b=2` -> value of `key=`, or nullopt.
Result<uint64_t> OkDetailU64(const std::string& first_line,
                             const std::string& key) {
  const std::string prefix = key + "=";
  for (const std::string& token : SplitTokens(first_line)) {
    if (token.rfind(prefix, 0) == 0) {
      uint64_t value = 0;
      Status st = ParseU64(token.substr(prefix.size()), &value);
      if (!st.ok()) return st;
      return value;
    }
  }
  return Status::Internal("response lacks '" + key + "=': " + first_line);
}

// Decodes a `-err <Code> <message>` line back into the remote Status;
// any other shape is a protocol error.
Status DecodeError(const std::string& first_line) {
  const std::vector<std::string> tokens = SplitTokens(first_line);
  if (tokens.empty() || tokens[0] != "-err" || tokens.size() < 2) {
    return Status::Internal("malformed wire response: " + first_line);
  }
  std::string message;
  for (size_t i = 2; i < tokens.size(); ++i) {
    if (i > 2) message += ' ';
    message += tokens[i];
  }
  return Status(StatusCodeFromName(tokens[1]), std::move(message));
}

// Shared success/error triage: OK iff the payload starts with `+ok`.
Status CheckOk(const std::string& payload) {
  const std::string first = FirstLine(payload);
  if (first.rfind("+ok", 0) == 0) return Status::OK();
  return DecodeError(first);
}

Status SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wire send: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

// The load generator's per-client wire connection: every LoadConnection
// op is one protocol round trip against the target tenant.
class WireConnection : public LoadConnection {
 public:
  WireConnection(WireClient client, std::string tenant)
      : client_(std::move(client)), tenant_(std::move(tenant)) {}

  Result<uint64_t> InsertCompetitor(
      const std::vector<double>& coords) override {
    return client_.Insert(tenant_, /*competitor=*/true, coords);
  }
  Result<uint64_t> InsertProduct(const std::vector<double>& coords) override {
    return client_.Insert(tenant_, /*competitor=*/false, coords);
  }
  Status EraseCompetitor(uint64_t id) override {
    return client_.Erase(tenant_, /*competitor=*/true, id);
  }
  Status EraseProduct(uint64_t id) override {
    return client_.Erase(tenant_, /*competitor=*/false, id);
  }
  Status Query(size_t k, double timeout_seconds) override {
    return client_.TopK(tenant_, k, timeout_seconds);
  }

 private:
  WireClient client_;
  std::string tenant_;
};

}  // namespace

std::string Num17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status ParseU64(const std::string& field, uint64_t* out) {
  if (field.empty()) return Status::InvalidArgument("empty integer field");
  uint64_t value = 0;
  for (char c : field) {
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (c < '0' || c > '9' || value > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument("bad integer field '" + field + "'");
    }
    value = value * 10 + digit;
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

Status WireWriteFrame(int fd, const std::string& payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("wire frames may not be empty");
  }
  if (payload.size() > kWireMaxFrameBytes) {
    return Status::InvalidArgument("wire frame exceeds max size");
  }
  // One send for header+payload: tiny frames (the common case) go out in
  // a single segment instead of tripping delayed-ACK interactions.
  std::string framed = std::to_string(payload.size());
  framed += '\n';
  framed += payload;
  return SendAll(fd, framed.data(), framed.size());
}

Result<std::string> WireReadFrame(int fd, bool eof_ok) {
  // Header: ASCII digits up to '\n'. Read byte-wise — it is at most a
  // handful of bytes and keeps the payload read exactly sized.
  uint64_t len = 0;
  size_t header_bytes = 0;
  for (;;) {
    char c = 0;
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wire recv: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      if (eof_ok && header_bytes == 0) {
        return Status::Cancelled("peer closed the connection");
      }
      return Status::IOError("peer closed mid-frame");
    }
    if (c == '\n') {
      if (header_bytes == 0) {
        return Status::IOError("wire frame with empty length header");
      }
      break;
    }
    if (c < '0' || c > '9' || header_bytes >= 12) {
      return Status::IOError("malformed wire frame length header");
    }
    len = len * 10 + static_cast<uint64_t>(c - '0');
    ++header_bytes;
  }
  if (len == 0 || len > kWireMaxFrameBytes) {
    return Status::IOError("wire frame length out of range: " +
                           std::to_string(len));
  }
  std::string payload(static_cast<size_t>(len), '\0');
  size_t got = 0;
  while (got < payload.size()) {
    const ssize_t n = ::recv(fd, &payload[got], payload.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wire recv: ") +
                             std::strerror(errno));
    }
    if (n == 0) return Status::IOError("peer closed mid-frame");
    got += static_cast<size_t>(n);
  }
  return payload;
}

std::string WireFormatCoords(const std::vector<double>& coords) {
  std::string out;
  for (size_t d = 0; d < coords.size(); ++d) {
    if (d > 0) out += ' ';
    out += Num17(coords[d]);
  }
  return out;
}

Result<WireClient> WireClient::Dial(const std::string& host, uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* addrs = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::IOError("resolve '" + host + "': " + gai_strerror(rc));
  }
  int fd = -1;
  int last_errno = 0;
  for (struct addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) break;
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) {
    return Status::IOError("connect " + host + ":" + port_str + ": " +
                           std::strerror(last_errno));
  }
  return WireClient(fd);
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

WireClient& WireClient::operator=(WireClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<std::string> WireClient::Call(const std::string& request) {
  if (fd_ < 0) return Status::FailedPrecondition("wire client not connected");
  Status sent = WireWriteFrame(fd_, request);
  if (!sent.ok()) return sent;
  return WireReadFrame(fd_);
}

Status WireClient::Ping() {
  Result<std::string> response = Call("ping");
  if (!response.ok()) return response.status();
  return CheckOk(*response);
}

Result<uint64_t> WireClient::CreateTenant(const std::string& tenant,
                                          size_t dims, size_t shards,
                                          size_t quota, bool attach_existing) {
  std::string request = "create " + tenant + " dims=" + std::to_string(dims) +
                        " shards=" + std::to_string(shards);
  if (quota > 0) request += " quota=" + std::to_string(quota);
  Result<std::string> response = Call(request);
  if (!response.ok()) return response.status();
  Status ok = CheckOk(*response);
  if (!ok.ok()) {
    // Attach mode tolerates a tenant another client created first; its
    // id comes back in the error detail's stead via `stats`.
    if (attach_existing && ok.code() == StatusCode::kFailedPrecondition) {
      Result<std::vector<std::pair<std::string, std::string>>> stats =
          Stats(tenant);
      if (!stats.ok()) return stats.status();
      for (const auto& [key, value] : *stats) {
        if (key == "tenant_id") {
          uint64_t id = 0;
          Status st = ParseU64(value, &id);
          if (!st.ok()) return st;
          return id;
        }
      }
      return Status::Internal("stats response lacks tenant_id");
    }
    return ok;
  }
  return OkDetailU64(FirstLine(*response), "tenant");
}

Result<uint64_t> WireClient::Insert(const std::string& tenant, bool competitor,
                                    const std::vector<double>& coords) {
  std::string request = "add " + tenant + (competitor ? " p " : " t ") +
                        WireFormatCoords(coords);
  Result<std::string> response = Call(request);
  if (!response.ok()) return response.status();
  Status ok = CheckOk(*response);
  if (!ok.ok()) return ok;
  return OkDetailU64(FirstLine(*response), "id");
}

Status WireClient::Erase(const std::string& tenant, bool competitor,
                         uint64_t id) {
  Result<std::string> response =
      Call("erase " + tenant + (competitor ? " p " : " t ") +
           std::to_string(id));
  if (!response.ok()) return response.status();
  return CheckOk(*response);
}

Status WireClient::TopK(const std::string& tenant, size_t k,
                        double timeout_seconds) {
  std::string request = "topk " + tenant + ' ' + std::to_string(k);
  if (timeout_seconds > 0.0) request += " timeout=" + Num17(timeout_seconds);
  Result<std::string> response = Call(request);
  if (!response.ok()) return response.status();
  return CheckOk(*response);
}

Result<std::vector<std::pair<std::string, std::string>>> WireClient::Stats(
    const std::string& tenant) {
  Result<std::string> response = Call("stats " + tenant);
  if (!response.ok()) return response.status();
  Status ok = CheckOk(*response);
  if (!ok.ok()) return ok;
  std::vector<std::pair<std::string, std::string>> pairs;
  size_t at = response->find('\n');
  while (at != std::string::npos) {
    const size_t start = at + 1;
    const size_t end = response->find('\n', start);
    const std::string line =
        end == std::string::npos ? response->substr(start)
                                 : response->substr(start, end - start);
    const size_t eq = line.find('=');
    if (eq != std::string::npos) {
      pairs.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
    at = end;
  }
  return pairs;
}

Status WireClient::Shutdown() {
  Result<std::string> response = Call("shutdown");
  if (!response.ok()) return response.status();
  return CheckOk(*response);
}

Result<std::unique_ptr<WireLoadTarget>> WireLoadTarget::Create(
    const std::string& host, uint16_t port, const std::string& tenant) {
  Result<WireClient> control = WireClient::Dial(host, port);
  if (!control.ok()) return control.status();
  Status ping = control->Ping();
  if (!ping.ok()) return ping;
  return std::unique_ptr<WireLoadTarget>(new WireLoadTarget(
      host, port, tenant, std::move(control).value()));
}

Result<std::unique_ptr<LoadConnection>> WireLoadTarget::Connect(size_t) {
  Result<WireClient> client = WireClient::Dial(host_, port_);
  if (!client.ok()) return client.status();
  return std::unique_ptr<LoadConnection>(
      std::make_unique<WireConnection>(std::move(client).value(), tenant_));
}

Result<uint64_t> WireLoadTarget::StatU64(const std::string& key) {
  Result<std::vector<std::pair<std::string, std::string>>> stats =
      control_.Stats(tenant_);
  if (!stats.ok()) return stats.status();
  for (const auto& [stat_key, value] : *stats) {
    if (stat_key == key) {
      uint64_t parsed = 0;
      Status st = ParseU64(value, &parsed);
      if (!st.ok()) return st;
      return parsed;
    }
  }
  return Status::Internal("remote stats lack '" + key + "'");
}

Result<uint64_t> WireLoadTarget::DeltaBacklog() {
  return StatU64("delta_backlog");
}

Result<uint64_t> WireLoadTarget::RebuildThresholdOps() {
  return StatU64("rebuild_threshold_ops");
}

}  // namespace skyup
