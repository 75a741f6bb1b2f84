#ifndef SKYUP_SERVE_SHARD_WIRE_H_
#define SKYUP_SERVE_SHARD_WIRE_H_

// The front-door wire protocol: length-prefixed text frames over TCP.
//
// Framing: every message — request or response — is one frame:
//
//   <decimal payload length>\n<payload bytes>
//
// The length header is plain ASCII digits (no sign, no padding) so the
// protocol can be driven by hand (`printf '4\nping' | nc`), and the
// explicit length means payloads may contain newlines: multi-row
// commands (`load`) and multi-row responses (`topk`, `stats`) are one
// frame each, not a line-oriented dribble.
//
// Requests (first payload line, space-separated tokens):
//
//   ping
//   create <tenant> dims=<D> [shards=<N>] [quota=<Q>]
//                            (D in [1, kMaxDims]; N in [1, kMaxShards],
//                            default 1)
//   load <tenant>            (+ one line per row: "p,<v1>,..." / "t,...")
//   add <tenant> <p|t> <v1> <v2> ...
//   erase <tenant> <p|t> <id>
//   topk <tenant> <k> [timeout=<seconds>]
//   stats <tenant>
//   shutdown
//
// Responses: `+ok` (optionally followed by `key=value` tokens and body
// lines) on success, `-err <StatusCodeName> <message>` on failure. The
// code name round-trips through `StatusCodeName`, so a client recovers
// the same `StatusCode` the remote handler produced (admission
// rejections stay `ResourceExhausted` across the wire).
//
// Coordinates are formatted with enough digits (%.17g) that a double
// survives the text round trip bit-exactly — a workload driven through
// the wire sees the same values an in-process caller would.
//
// This header also provides `WireLoadTarget`, the remote backend for the
// closed-loop load generator (`serve --load-gen --connect HOST:PORT`):
// each client thread dials its own connection and speaks the protocol
// above against one named tenant.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/load_gen.h"
#include "util/status.h"

namespace skyup {

/// Hard cap on a single frame's payload (requests and responses alike);
/// oversized frames fail the read instead of buffering without bound.
inline constexpr size_t kWireMaxFrameBytes = 8u << 20;

/// Writes one `<len>\n<payload>` frame to `fd`. Retries short writes;
/// fails with kIOError on a closed peer.
Status WireWriteFrame(int fd, const std::string& payload);

/// Reads one frame from `fd`. `eof_ok` distinguishes a clean peer close
/// before any header byte (returns kCancelled) from a mid-frame close
/// (always kIOError).
Result<std::string> WireReadFrame(int fd, bool eof_ok = false);

/// Formats a space-separated coordinate token list for `add`, with
/// round-trip-exact doubles (`load` rows are the same values joined with
/// commas behind a `p,`/`t,` tag instead).
std::string WireFormatCoords(const std::vector<double>& coords);

/// Field helpers shared by the client, the front door and the replay
/// workload parser: `%.17g` (round-trip-exact) double formatting, whole-
/// field unsigned decimal and double parsing, and splitting a line on
/// commas or on runs of spaces.
std::string Num17(double v);
Status ParseU64(const std::string& field, uint64_t* out);
Status ParseF64(const std::string& field, double* out);
std::vector<std::string> SplitCommas(const std::string& line);
std::vector<std::string> SplitTokens(const std::string& line);

/// One blocking client connection. Not thread-safe: the protocol is
/// strict request/response, so callers wanting concurrency dial one
/// client per thread (exactly what `WireLoadTarget` does).
class WireClient {
 public:
  /// Dials `host:port` (numeric or resolvable host).
  static Result<WireClient> Dial(const std::string& host, uint16_t port);
  ~WireClient();

  WireClient(WireClient&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  WireClient& operator=(WireClient&& other) noexcept;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// One round trip: sends `request` as a frame, returns the raw
  /// response payload (including the `+ok` / `-err` first line).
  Result<std::string> Call(const std::string& request);

  /// Typed helpers over Call(); `-err` responses come back as the
  /// original Status (code recovered from the wire code name).
  Status Ping();
  /// Creates (or, when `attach_existing`, attaches to an already created)
  /// tenant; returns its numeric tenant id.
  Result<uint64_t> CreateTenant(const std::string& tenant, size_t dims,
                                size_t shards, size_t quota,
                                bool attach_existing = false);
  Result<uint64_t> Insert(const std::string& tenant, bool competitor,
                          const std::vector<double>& coords);
  Status Erase(const std::string& tenant, bool competitor, uint64_t id);
  /// Runs a top-k query, discarding the result rows (the load generator
  /// measures status and latency; correctness is the fuzzer's job).
  Status TopK(const std::string& tenant, size_t k, double timeout_seconds);
  /// The remote tenant's stats as ordered key=value pairs.
  Result<std::vector<std::pair<std::string, std::string>>> Stats(
      const std::string& tenant);
  /// Asks the remote front door to stop accepting and shut down.
  Status Shutdown();

 private:
  explicit WireClient(int fd) : fd_(fd) {}

  int fd_ = -1;
};

/// The load generator's remote backend: one control connection for the
/// backlog probes plus one fresh connection per client thread, all
/// against the named tenant (created on the remote side first — see
/// WireClient::CreateTenant).
class WireLoadTarget : public LoadTarget {
 public:
  static Result<std::unique_ptr<WireLoadTarget>> Create(
      const std::string& host, uint16_t port, const std::string& tenant);

  Result<std::unique_ptr<LoadConnection>> Connect(size_t client) override;
  Result<uint64_t> DeltaBacklog() override;
  Result<uint64_t> RebuildThresholdOps() override;

 private:
  WireLoadTarget(std::string host, uint16_t port, std::string tenant,
                 WireClient control)
      : host_(std::move(host)),
        port_(port),
        tenant_(std::move(tenant)),
        control_(std::move(control)) {}

  Result<uint64_t> StatU64(const std::string& key);

  std::string host_;
  uint16_t port_;
  std::string tenant_;
  WireClient control_;
};

}  // namespace skyup

#endif  // SKYUP_SERVE_SHARD_WIRE_H_
