// Tests for the wire protocol and the multi-tenant front door
// (serve/shard/wire.h, serve/shard/front_door.h, serve/shard/registry.h):
// frame round trips including bit-exact doubles, the full command table
// over a real loopback socket, tenant isolation, error code recovery
// across the wire, the tenant registry's validation rules, and shutdown
// (command-initiated and Stop-initiated, both clean).

#include "serve/shard/wire.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rtree/mbr.h"
#include "serve/serve_stats.h"
#include "serve/shard/front_door.h"
#include "serve/shard/registry.h"

namespace skyup {
namespace {

ServerOptions TenantBase() {
  ServerOptions base;
  base.dims = 1;  // per-tenant `create` overrides
  base.query_threads = 2;
  base.background_rebuild = false;
  base.rebuild_threshold_ops = 8;
  base.flight_recorder = false;
  return base;
}

Result<std::unique_ptr<FrontDoor>> StartDoor() {
  FrontDoorOptions options;
  options.port = 0;  // ephemeral
  options.tenant_base = TenantBase();
  return FrontDoor::Start(options);
}

uint64_t StatValue(
    const std::vector<std::pair<std::string, std::string>>& stats,
    const std::string& key) {
  for (const auto& [k, v] : stats) {
    if (k == key) return std::stoull(v);
  }
  ADD_FAILURE() << "stat key missing: " << key;
  return 0;
}

TEST(WireFrameTest, RoundTripsThroughASocketPair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "hello\nwith\nnewlines";
  ASSERT_TRUE(WireWriteFrame(fds[0], payload).ok());
  auto got = WireReadFrame(fds[1]);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  // Empty frames are rejected on both sides of the protocol.
  EXPECT_FALSE(WireWriteFrame(fds[0], "").ok());
  close(fds[0]);
  close(fds[1]);
}

TEST(WireFrameTest, DistinguishesCleanCloseFromMidFrameClose) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  close(fds[0]);  // peer gone before any byte
  EXPECT_EQ(WireReadFrame(fds[1], /*eof_ok=*/true).status().code(),
            StatusCode::kCancelled);
  close(fds[1]);

  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string partial = "100\ntoo short";  // promises 100 bytes
  ASSERT_EQ(send(fds[0], partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  close(fds[0]);
  EXPECT_EQ(WireReadFrame(fds[1], /*eof_ok=*/true).status().code(),
            StatusCode::kIOError);
  close(fds[1]);
}

TEST(WireFrameTest, RejectsOversizedAndMalformedHeaders) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string huge = std::to_string(kWireMaxFrameBytes + 1) + "\n";
  ASSERT_EQ(send(fds[0], huge.data(), huge.size(), 0),
            static_cast<ssize_t>(huge.size()));
  EXPECT_FALSE(WireReadFrame(fds[1]).ok());
  close(fds[0]);
  close(fds[1]);

  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string junk = "abc\n";
  ASSERT_EQ(send(fds[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  EXPECT_FALSE(WireReadFrame(fds[1]).ok());
  close(fds[0]);
  close(fds[1]);
}

TEST(WireFormatTest, DoublesSurviveTheTextRoundTripBitExactly) {
  const std::vector<double> coords = {1.0 / 3.0, 1e-300, 0.1 + 0.2,
                                      123456.789012345678};
  const std::string row = WireFormatCoords(coords);
  // Parse the space-separated tokens back and demand bit equality.
  std::vector<double> parsed;
  size_t start = 0;
  while (start < row.size()) {
    size_t space = row.find(' ', start);
    if (space == std::string::npos) space = row.size();
    parsed.push_back(std::stod(row.substr(start, space - start)));
    start = space + 1;
  }
  ASSERT_EQ(parsed.size(), coords.size());
  for (size_t i = 0; i < coords.size(); ++i) {
    // lint: float-eq-ok (%.17g round trip must be bit-exact)
    EXPECT_EQ(parsed[i], coords[i]) << "coord " << i;
  }
}

// Integer fields are whole unsigned decimals that fit in 64 bits; an
// overflowing id must not wrap around to a small live one.
TEST(WireFormatTest, ParseU64RejectsOverflowAndJunk) {
  uint64_t v = 0;
  ASSERT_TRUE(ParseU64("18446744073709551615", &v).ok());
  EXPECT_EQ(v, UINT64_MAX);
  ASSERT_TRUE(ParseU64("007", &v).ok());
  EXPECT_EQ(v, 7u);
  for (const char* bad : {"18446744073709551616", "18446744073709551617",
                          "99999999999999999999", "", "-1", "1x", " 1"}) {
    EXPECT_EQ(ParseU64(bad, &v).code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(TenantRegistryTest, ValidatesNamesAndRejectsDuplicates) {
  TenantRegistry registry(TenantBase());
  EXPECT_EQ(registry.Create("", 2, 1, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create("bad name", 2, 1, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create(std::string(65, 'a'), 2, 1, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create("wide", kMaxDims + 1, 1, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create("zero", 2, 0, 0).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(registry.Create("good.name-1_2", 2, 1, 0).ok());
  EXPECT_EQ(registry.Create("good.name-1_2", 2, 1, 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Find("missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(FrontDoorTest, CommandTableEndToEnd) {
  auto door = StartDoor();
  ASSERT_TRUE(door.ok());
  ASSERT_NE((*door)->port(), 0);

  auto client = WireClient::Dial("127.0.0.1", (*door)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());

  auto tenant_id = client->CreateTenant("acme", /*dims=*/2, /*shards=*/3,
                                        /*quota=*/16);
  ASSERT_TRUE(tenant_id.ok());
  EXPECT_EQ(*tenant_id, 1u);

  // add: stable ids count from 1 per kind.
  auto p1 = client->Insert("acme", /*competitor=*/true, {0.2, 0.8});
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, 1u);
  auto t1 = client->Insert("acme", /*competitor=*/false, {0.9, 0.9});
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(*t1, 1u);

  // load: bulk rows in one frame.
  auto loaded = client->Call("load acme\np,0.7,0.1\nt,0.5,0.5");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->substr(0, 3), "+ok") << *loaded;

  ASSERT_TRUE(client->TopK("acme", 2, /*timeout_seconds=*/5.0).ok());
  ASSERT_TRUE(client->Erase("acme", /*competitor=*/true, *p1).ok());
  EXPECT_EQ(client->Erase("acme", true, *p1).code(), StatusCode::kNotFound);

  auto stats = client->Stats("acme");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(StatValue(*stats, "tenant_id"), 1u);
  EXPECT_EQ(StatValue(*stats, "dims"), 2u);
  EXPECT_EQ(StatValue(*stats, "shards"), 3u);
  EXPECT_EQ(StatValue(*stats, "quota"), 16u);
  EXPECT_EQ(StatValue(*stats, "queries_executed"), 1u);
  EXPECT_EQ(StatValue(*stats, "updates_applied"), 5u);
  EXPECT_EQ(StatValue(*stats, "shard_queries"), 1u);
  EXPECT_EQ(StatValue(*stats, "shard_fanout"), 3u);
  // Every ServeStats counter is on the wire, and no key appears twice.
  for (const auto& field : kServeStatsFields) StatValue(*stats, field.name);
  for (size_t i = 0; i < stats->size(); ++i) {
    for (size_t j = i + 1; j < stats->size(); ++j) {
      EXPECT_NE((*stats)[i].first, (*stats)[j].first);
    }
  }

  (*door)->Stop();
}

TEST(FrontDoorTest, TenantsAreIsolatedAndErrorsCarryCodes) {
  auto door = StartDoor();
  ASSERT_TRUE(door.ok());
  auto client = WireClient::Dial("127.0.0.1", (*door)->port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->CreateTenant("a", 2, 1, 0).ok());
  ASSERT_TRUE(client->CreateTenant("b", 3, 2, 0).ok());
  ASSERT_TRUE(client->Insert("a", true, {0.1, 0.2}).ok());
  ASSERT_TRUE(client->Insert("b", true, {0.1, 0.2, 0.3}).ok());

  // Wrong arity for tenant b: the error code crosses the wire intact.
  EXPECT_EQ(client->Insert("b", true, {0.1, 0.2}).status().code(),
            StatusCode::kInvalidArgument);
  // Unknown tenant.
  EXPECT_EQ(client->Insert("ghost", true, {0.5, 0.5}).status().code(),
            StatusCode::kNotFound);
  // Duplicate create without attach.
  EXPECT_EQ(client->CreateTenant("a", 2, 1, 0).status().code(),
            StatusCode::kFailedPrecondition);
  // attach_existing recovers the id instead.
  auto attached = client->CreateTenant("a", 2, 1, 0,
                                       /*attach_existing=*/true);
  ASSERT_TRUE(attached.ok());
  EXPECT_EQ(*attached, 1u);

  // Tenant a still has exactly one row; tenant b's updates stayed in b.
  auto stats_a = client->Stats("a");
  ASSERT_TRUE(stats_a.ok());
  EXPECT_EQ(StatValue(*stats_a, "updates_applied"), 1u);
  EXPECT_EQ(StatValue(*stats_a, "tenant_id"), 1u);
  auto stats_b = client->Stats("b");
  ASSERT_TRUE(stats_b.ok());
  EXPECT_EQ(StatValue(*stats_b, "tenant_id"), 2u);

  // Unknown commands and malformed requests answer -err, not a hangup.
  auto bad = client->Call("frobnicate");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->substr(0, 4), "-err") << *bad;
  bad = client->Call("topk a notanumber");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->substr(0, 4), "-err") << *bad;

  (*door)->Stop();
}

// Non-finite coordinates (in `add` and in `load` rows) and timeouts the
// steady clock cannot hold get -err InvalidArgument; the tenant applies
// none of them and keeps serving.
TEST(FrontDoorTest, RefusesNonFiniteInputAndBadTimeouts) {
  auto door = StartDoor();
  ASSERT_TRUE(door.ok());
  auto client = WireClient::Dial("127.0.0.1", (*door)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->CreateTenant("ci", 3, 2, 0).ok());
  ASSERT_TRUE(client->Insert("ci", true, {0.2, 0.3, 0.4}).ok());
  ASSERT_TRUE(client->Insert("ci", false, {0.9, 0.9, 0.9}).ok());

  for (const char* bad :
       {"add ci p nan 0.5 0.5", "add ci t inf 0.5 0.5", "add ci p 0.5 -inf 1",
        "load ci\np,0.1,0.1,0.1\nt,nan,nan,0.5", "topk ci 5 timeout=1e300",
        "topk ci 5 timeout=nan", "topk ci 5 timeout=-1"}) {
    auto reply = client->Call(bad);
    ASSERT_TRUE(reply.ok()) << bad;
    EXPECT_EQ(reply->rfind("-err InvalidArgument", 0), 0u)
        << bad << " -> " << *reply;
  }
  // The `load` frame's valid first row was applied before the bad one.
  auto stats = client->Stats("ci");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(StatValue(*stats, "updates_applied"), 3u);
  EXPECT_EQ(StatValue(*stats, "queries_executed"), 0u);
  ASSERT_TRUE(client->TopK("ci", 5, /*timeout_seconds=*/5.0).ok());

  (*door)->Stop();
}

// `create` is bounded before anything is allocated: dims past the index's
// cap (or large enough to exhaust memory in the cost function), shard
// counts of zero or past kMaxShards. Each frame gets an -err reply, and
// the door keeps serving the tenant created before them.
TEST(FrontDoorTest, CreateRejectsOutOfRangeDimsAndShards) {
  auto door = StartDoor();
  ASSERT_TRUE(door.ok());
  auto client = WireClient::Dial("127.0.0.1", (*door)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->CreateTenant("live", 2, 1, 0).ok());
  ASSERT_TRUE(client->Insert("live", true, {0.1, 0.2}).ok());
  ASSERT_TRUE(client->Insert("live", false, {0.9, 0.9}).ok());

  const std::vector<std::string> frames = {
      "create huge dims=4000000000",
      "create wide dims=" + std::to_string(kMaxDims + 1),
      "create nodims dims=0",
      "create many dims=2 shards=3000000",
      "create capped dims=2 shards=" + std::to_string(kMaxShards + 1),
      "create none dims=2 shards=0",
  };
  for (const std::string& frame : frames) {
    auto reply = client->Call(frame);
    ASSERT_TRUE(reply.ok()) << frame;
    EXPECT_EQ(reply->rfind("-err InvalidArgument", 0), 0u)
        << frame << " -> " << *reply;
    ASSERT_TRUE(client->TopK("live", 1, /*timeout_seconds=*/5.0).ok())
        << "door stopped serving after " << frame;
  }
  auto listed = client->Stats("live");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(StatValue(*listed, "queries_executed"), 6u);
  EXPECT_EQ((*door)->registry().size(), 1u);

  // The bounds are inclusive, and an omitted shards= means one shard.
  auto at_cap = client->Call("create edge dims=" + std::to_string(kMaxDims));
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(at_cap->rfind("+ok", 0), 0u) << *at_cap;
  auto edge = client->Stats("edge");
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(StatValue(*edge, "shards"), 1u);

  (*door)->Stop();
}

TEST(FrontDoorTest, ShutdownCommandUnblocksWaitForShutdown) {
  auto door = StartDoor();
  ASSERT_TRUE(door.ok());
  auto client = WireClient::Dial("127.0.0.1", (*door)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Shutdown().ok());
  (*door)->WaitForShutdown();  // must return promptly
  (*door)->Stop();
  (*door)->Stop();  // idempotent
}

TEST(FrontDoorTest, StopWithLiveConnectionsIsClean) {
  auto door = StartDoor();
  ASSERT_TRUE(door.ok());
  std::vector<WireClient> clients;
  for (int i = 0; i < 3; ++i) {
    auto client = WireClient::Dial("127.0.0.1", (*door)->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Ping().ok());
    clients.push_back(std::move(*client));
  }
  (*door)->Stop();  // must unblock all connection reads and join
  // Subsequent calls on the dead connection fail, not hang.
  EXPECT_FALSE(clients[0].Ping().ok());
}

TEST(WireLoadTargetTest, DrivesARemoteTenant) {
  auto door = StartDoor();
  ASSERT_TRUE(door.ok());
  auto admin = WireClient::Dial("127.0.0.1", (*door)->port());
  ASSERT_TRUE(admin.ok());
  ASSERT_TRUE(admin->CreateTenant("bench", 2, 2, 0).ok());

  auto target = WireLoadTarget::Create("127.0.0.1", (*door)->port(),
                                       "bench");
  ASSERT_TRUE(target.ok());
  auto conn = (*target)->Connect(1);
  ASSERT_TRUE(conn.ok());
  auto id = (*conn)->InsertCompetitor({0.3, 0.7});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*conn)->InsertProduct({0.8, 0.8}).ok());
  ASSERT_TRUE((*conn)->Query(3, /*timeout_seconds=*/5.0).ok());
  ASSERT_TRUE((*conn)->EraseCompetitor(*id).ok());

  auto backlog = (*target)->DeltaBacklog();
  ASSERT_TRUE(backlog.ok());
  EXPECT_EQ(*backlog, 3u);
  auto threshold = (*target)->RebuildThresholdOps();
  ASSERT_TRUE(threshold.ok());
  EXPECT_EQ(*threshold, 8u);  // TenantBase's rebuild_threshold_ops

  (*door)->Stop();
}

}  // namespace
}  // namespace skyup
