// wire: the read-heavy use of the serve layers, over TCP. An in-process
// `FrontDoor` on loopback holds one tenant with shards=2 under the
// `serve --listen` defaults (2 workers, batch-max 16, batch-wait 200 us,
// memo 16 MB, background rebuilder). After a preload, an open loop sends
// ~90% top-k (k=10) and ~10% inserts/erases at a fixed rate over at most
// `nproc` connections; every request is timed from when it was due. A
// ladder of higher rates then finds the highest rate whose query p99
// meets the latency limit. The only workload that exercises the wire,
// admission queue, batch wait, scatter-gather and background publishes.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/planner.h"
#include "data/generator.h"
#include "serve/shard/front_door.h"
#include "serve/shard/wire.h"

namespace perfbench {
namespace {

using skyup::FrontDoor;
using skyup::QueryFlightRecord;
using skyup::Server;
using skyup::ServeStats;
using skyup::WireClient;

constexpr size_t kDims = 3;
constexpr size_t kShards = 2;
constexpr size_t kTopK = 10;
/// Set-ups per run: each races the shard coordinator's publishes against
/// the preload, and a run's median settles only over a couple of dozen.
constexpr int kSetups = 21;
/// Every tenth op is an update, so a window's update count (and with it
/// the number of background publishes it sees) is fixed by its length.
constexpr size_t kUpdateEvery = 10;
constexpr double kQueryTimeoutSeconds = 2.0;
const char kTenant[] = "bench";

// The rate ladder (ops/s): the first rung is the rate the end-to-end
// metrics are measured at; slo_qps is the highest rung that meets the
// limit with every lower rung meeting it too.
constexpr double kLadder[] = {1000, 2000, 3000, 4000, 6000};
constexpr double kSloP99Ms = 10.0;

/// The bench's own record of the tenant's live rows, by stable id.
class LiveRows {
 public:
  /// `erasable` rows may later be picked by `TakeRandom`.
  void Add(bool competitor, uint64_t id, std::vector<double> coords,
           bool erasable) {
    std::lock_guard<std::mutex> lock(mu_);
    Table& t = competitor ? p_ : t_;
    if (erasable) t.ids.push_back(id);
    t.rows.emplace(id, std::move(coords));
  }
  /// Removes and returns a random erasable live id (0 when none).
  uint64_t TakeRandom(bool competitor, std::mt19937_64* rng) {
    std::lock_guard<std::mutex> lock(mu_);
    Table& t = competitor ? p_ : t_;
    if (t.ids.empty()) return 0;
    const size_t at = static_cast<size_t>((*rng)() % t.ids.size());
    const uint64_t id = t.ids[at];
    t.ids[at] = t.ids.back();
    t.ids.pop_back();
    t.rows.erase(id);
    return id;
  }
  /// Rows in stable-id order, so row order breaks cost ties like ids do.
  std::vector<std::vector<double>> Rows(bool competitor) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<double>> out;
    for (const auto& [id, coords] : (competitor ? p_ : t_).rows) {
      out.push_back(coords);
    }
    return out;
  }

 private:
  struct Table {
    std::vector<uint64_t> ids;  // erasable
    std::map<uint64_t, std::vector<double>> rows;
  };
  std::mutex mu_;
  Table p_;
  Table t_;
};

/// Rows the open loop inserts: competitors in [0.5,1)^3, which the
/// preload's [0,0.5)^3 rows dominate, so competitor churn never moves the
/// dominator skyline (frontier churn and its invalidation storms are the
/// churn workload's subject); products in [1,2)^3, like the preload.
std::vector<double> UpdateRow(bool competitor, std::mt19937_64* rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> coords(kDims);
  for (double& v : coords) {
    v = competitor ? 0.5 + 0.5 * unit(*rng) : 1.0 + unit(*rng);
  }
  return coords;
}

struct Tenant {
  std::unique_ptr<FrontDoor> door;
  std::shared_ptr<Server> server;
  LiveRows rows;
};

std::vector<std::vector<double>> UniformRows(size_t count, double lo,
                                             double hi, uint64_t seed) {
  skyup::GeneratorConfig config;
  config.count = count;
  config.dims = kDims;
  config.distribution = skyup::Distribution::kIndependent;
  config.lo = lo;
  config.hi = hi;
  config.seed = seed;
  std::vector<std::vector<double>> rows;
  skyup::Result<skyup::Dataset> data = skyup::GenerateDataset(config);
  if (!data.ok()) return rows;
  for (skyup::PointId i = 0; i < static_cast<skyup::PointId>(data->size());
       ++i) {
    rows.emplace_back(data->data(i), data->data(i) + kDims);
  }
  return rows;
}

// The preload as `load` frames of 2000 rows, competitors first, so the
// stable ids count up from 1 per table in row order.
std::vector<std::string> LoadFrames(
    const std::vector<std::vector<double>>& preload_p,
    const std::vector<std::vector<double>>& preload_t) {
  constexpr size_t kChunk = 2000;
  std::vector<std::string> frames;
  for (int competitor = 1; competitor >= 0; --competitor) {
    const auto& rows = competitor ? preload_p : preload_t;
    for (size_t at = 0; at < rows.size(); at += kChunk) {
      std::string frame = std::string("load ") + kTenant;
      for (size_t i = at; i < std::min(rows.size(), at + kChunk); ++i) {
        frame += competitor ? "\np" : "\nt";
        for (double v : rows[i]) frame += "," + Num17(v);
      }
      frames.push_back(std::move(frame));
    }
  }
  return frames;
}

// Polls `done` every millisecond; false if it is still not true after a
// minute.
bool WaitFor(const std::function<bool()>& done) {
  const Clock::time_point start = Clock::now();
  while (!done()) {
    if (SecondsSince(start) > 60.0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Front door start, tenant create, preload over the wire, and the wait
// for the background rebuilder's first publish. The first frame alone
// fills the backlog past the rebuild threshold, so that publish runs
// while later frames load. The backlog the last frames leave is folded
// by a later publish that setup does not wait for: the shard coordinator
// polls every 50 ms and misses a nudge that arrives mid-cycle, so when
// it notices that backlog is a matter of timing, and waiting for it
// made setup_s vary by half between runs.
std::unique_ptr<Tenant> StartTenant(const std::vector<std::string>& frames,
                                    Report* report) {
  auto tenant = std::make_unique<Tenant>();
  skyup::FrontDoorOptions options;
  options.tenant_base.dims = 1;  // `create` overrides
  options.tenant_base.query_threads = 2;
  options.tenant_base.max_pending = 64;
  options.tenant_base.rebuild_threshold_ops = 1024;
  options.tenant_base.batch_max = 16;
  options.tenant_base.batch_wait_us = 200;
  options.tenant_base.memo_cache_mb = 16;
  skyup::Result<std::unique_ptr<FrontDoor>> door = FrontDoor::Start(options);
  if (!door.ok()) {
    report->Fail("front door: " + door.status().ToString());
    return nullptr;
  }
  tenant->door = std::move(door).value();
  skyup::Result<WireClient> client =
      WireClient::Dial("127.0.0.1", tenant->door->port());
  if (!client.ok()) {
    report->Fail("dial: " + client.status().ToString());
    return nullptr;
  }
  skyup::Result<uint64_t> created =
      client->CreateTenant(kTenant, kDims, kShards, /*quota=*/0);
  if (!created.ok()) {
    report->Fail("create tenant: " + created.status().ToString());
    return nullptr;
  }
  skyup::Result<std::shared_ptr<Server>> server =
      tenant->door->registry().Find(kTenant);
  if (!server.ok()) {
    report->Fail("tenant lookup: " + server.status().ToString());
    return nullptr;
  }
  tenant->server = *server;
  const uint64_t empty_epoch = tenant->server->CurrentEpoch();
  for (const std::string& frame : frames) {
    skyup::Result<std::string> loaded = client->Call(frame);
    if (!loaded.ok() || loaded->rfind("+ok", 0) != 0) {
      report->Fail("preload failed");
      return nullptr;
    }
  }
  const Server& live = *tenant->server;
  if (!WaitFor([&] { return live.CurrentEpoch() != empty_epoch; })) {
    report->Fail("preload never published");
    return nullptr;
  }
  return tenant;
}

/// One op's timing in an open-loop phase.
struct OpTiming {
  double due_s;      ///< due time, from the phase start
  double late_ms;    ///< send time minus due time
  double latency_ms; ///< completion minus due time
  double rtt_ms;     ///< completion minus send time
  bool query;
  bool ok;
};

struct Phase {
  double rate = 0.0;
  double seconds = 0.0;
  double wall_seconds = 0.0;
  std::vector<OpTiming> ops;
  uint64_t failed = 0;

  Samples Latency(bool query, bool ok_only) const {
    Samples s;
    for (const OpTiming& op : ops) {
      if (op.query == query && (op.ok || !ok_only)) s.Add(op.latency_ms);
    }
    return s;
  }
  /// Query p99 with every failed request counted as over the limit.
  double QueryP99ForSlo() const {
    Samples s;
    for (const OpTiming& op : ops) {
      if (op.query) s.Add(op.ok ? op.latency_ms : 1e9);
    }
    return s.Quantile(0.99);
  }
  Samples Lateness() const {
    Samples s;
    for (const OpTiming& op : ops) s.Add(op.late_ms);
    return s;
  }
  /// Lateness grows when the last quarter's p90 lateness exceeds 1 ms
  /// plus twice the first quarter's.
  bool LatenessGrows() const {
    Samples first, last;
    for (const OpTiming& op : ops) {
      if (op.due_s < seconds / 4) first.Add(op.late_ms);
      if (op.due_s >= seconds * 3 / 4) last.Add(op.late_ms);
    }
    return last.Quantile(0.9) > 1.0 + 2.0 * first.Quantile(0.9);
  }
  bool MeetsSlo() const {
    return failed == 0 && !LatenessGrows() && QueryP99ForSlo() <= kSloP99Ms;
  }
};

// Tops the delta backlog up to the rebuild threshold with competitor
// inserts and waits for the resulting publish, so every phase starts
// right after a publish with an empty backlog.
void PrimeBacklog(Tenant* tenant, uint64_t seed, Report* report) {
  Server& server = *tenant->server;
  const size_t threshold = server.options().rebuild_threshold_ops;
  const uint64_t epoch = server.CurrentEpoch();
  skyup::Result<WireClient> client =
      WireClient::Dial("127.0.0.1", tenant->door->port());
  if (!client.ok()) {
    report->Fail("dial: " + client.status().ToString());
    return;
  }
  std::mt19937_64 rng(seed);
  for (size_t n = server.DeltaBacklog(); n < threshold; ++n) {
    std::vector<double> coords = UpdateRow(true, &rng);
    skyup::Result<uint64_t> id = client->Insert(kTenant, true, coords);
    if (!id.ok()) {
      report->Fail("priming insert: " + id.status().ToString());
      return;
    }
    tenant->rows.Add(true, *id, std::move(coords), /*erasable=*/true);
  }
  if (!WaitFor([&] {
        return server.CurrentEpoch() != epoch && server.DeltaBacklog() == 0;
      })) {
    report->Fail("priming publish never landed");
  }
}

// Drives the open loop at `rate` ops/s for `seconds` over `conns`
// connections; op i is due at i / rate and goes out on connection
// i % conns, which sends its ops in order.
Phase RunPhase(Tenant* tenant, double rate, double seconds, size_t conns,
               uint64_t seed, Report* report) {
  Phase phase;
  phase.rate = rate;
  phase.seconds = seconds;
  PrimeBacklog(tenant, seed * 31 + 17, report);
  std::vector<WireClient> clients;
  for (size_t c = 0; c < conns; ++c) {
    skyup::Result<WireClient> client =
        WireClient::Dial("127.0.0.1", tenant->door->port());
    if (!client.ok()) {
      report->Fail("dial: " + client.status().ToString());
      return phase;
    }
    clients.push_back(std::move(client).value());
  }
  std::vector<std::vector<OpTiming>> per_conn(conns);
  std::vector<uint64_t> failed(conns, 0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const std::string query_cmd = std::string("topk ") + kTenant + " " +
                                std::to_string(kTopK) +
                                " timeout=" + Num17(kQueryTimeoutSeconds);
  auto sender = [&](size_t c) {
    std::mt19937_64 rng(seed * 7919 + c);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    WireClient& client = clients[c];
    Span root("bench.wire_sender");
    for (size_t i = c;; i += conns) {
      const double due_s = static_cast<double>(i) / rate;
      if (due_s >= seconds) break;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due_s));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      bool ok = true;
      const bool query = i % kUpdateEvery != kUpdateEvery - 1;
      if (query) {
        Span span("wire.Call(topk)");
        skyup::Result<std::string> reply = client.Call(query_cmd);
        ok = reply.ok() && reply->rfind("+ok", 0) == 0;
      } else {
        // Update mix mirrors GenerateWorkload: 35/15/15/10 of P-insert,
        // T-insert, P-erase, T-erase.
        const double u = unit(rng);
        const bool competitor = u < 0.35 || (u >= 0.5 && u < 0.65);
        uint64_t erase_id = 0;
        if (u >= 0.5) erase_id = tenant->rows.TakeRandom(competitor, &rng);
        if (erase_id != 0) {
          Span span("wire.Call(erase)");
          ok = client.Erase(kTenant, competitor, erase_id).ok();
        } else {
          std::vector<double> coords = UpdateRow(competitor, &rng);
          Span span("wire.Call(add)");
          skyup::Result<uint64_t> id = client.Insert(kTenant, competitor,
                                                     coords);
          ok = id.ok();
          if (ok) {
            tenant->rows.Add(competitor, *id, std::move(coords),
                             /*erasable=*/true);
          }
        }
      }
      const Clock::time_point done = Clock::now();
      using Ms = std::chrono::duration<double, std::milli>;
      per_conn[c].push_back(OpTiming{due_s, Ms(sent - due).count(),
                                     Ms(done - due).count(),
                                     Ms(done - sent).count(), query, ok});
      if (!ok) failed[c] += 1;
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) threads.emplace_back(sender, c);
  for (std::thread& t : threads) t.join();
  phase.wall_seconds = SecondsSince(start);
  for (size_t c = 0; c < conns; ++c) {
    phase.ops.insert(phase.ops.end(), per_conn[c].begin(), per_conn[c].end());
    phase.failed += failed[c];
  }
  report->attempted += phase.ops.size();
  report->failed += phase.failed;
  if (phase.failed > 0) {
    report->Fail(std::to_string(phase.failed) + " wire requests failed at " +
                 Num17(rate) + " ops/s");
  }
  return phase;
}

// Parses the costs of a `topk` response ("<rank> id=.. cost=.. ...").
bool ParseTopK(const std::string& reply,
               std::vector<skyup::UpgradeResult>* out) {
  if (reply.rfind("+ok", 0) != 0) return false;
  std::istringstream in(reply);
  std::string line;
  std::getline(in, line);
  while (std::getline(in, line)) {
    const size_t at = line.find(" cost=");
    if (at == std::string::npos) return false;
    skyup::UpgradeResult r;
    r.cost = std::strtod(line.c_str() + at + 6, nullptr);
    out->push_back(r);
  }
  return true;
}

// After the load stops: one top-k over the wire must equal the
// brute-force oracle over the bench's own record of live rows.
void CheckFinalAnswer(Tenant* tenant, Report* report) {
  report->attempted += 1;
  skyup::Result<WireClient> client =
      WireClient::Dial("127.0.0.1", tenant->door->port());
  skyup::Result<std::string> reply =
      client.ok() ? client->Call(std::string("topk ") + kTenant + " " +
                                 std::to_string(kTopK))
                  : skyup::Result<std::string>(client.status());
  std::vector<skyup::UpgradeResult> got;
  skyup::Result<skyup::Dataset> p =
      skyup::Dataset::FromRows(tenant->rows.Rows(true));
  skyup::Result<skyup::Dataset> t =
      skyup::Dataset::FromRows(tenant->rows.Rows(false));
  if (!reply.ok() || !ParseTopK(*reply, &got) || !p.ok() || !t.ok()) {
    report->failed += 1;
    report->Fail("final wire top-k failed");
    return;
  }
  skyup::PlannerOptions options;
  options.threads = 0;
  skyup::Result<skyup::UpgradePlanner> oracle = skyup::UpgradePlanner::Create(
      *p, *t, skyup::ProductCostFunction::ReciprocalSum(kDims), options);
  skyup::Result<std::vector<skyup::UpgradeResult>> want =
      oracle.ok() ? oracle->TopK(kTopK, skyup::Algorithm::kBruteForce)
                  : skyup::Result<std::vector<skyup::UpgradeResult>>(
                        oracle.status());
  if (!want.ok() || !SameRanking(got, *want, kTopK)) {
    report->failed += 1;
    report->Fail("final wire top-k differs from the brute-force oracle");
  }
}

ServeStats Delta(const ServeStats& after, const ServeStats& before) {
  ServeStats d;
  d.queries_executed = after.queries_executed - before.queries_executed;
  d.rebuilds_published = after.rebuilds_published - before.rebuilds_published;
  d.patches_published = after.patches_published - before.patches_published;
  d.delta_ops_scanned = after.delta_ops_scanned - before.delta_ops_scanned;
  d.candidates_evaluated =
      after.candidates_evaluated - before.candidates_evaluated;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.memo_hits = after.memo_hits - before.memo_hits;
  d.memo_misses = after.memo_misses - before.memo_misses;
  d.batches_executed = after.batches_executed - before.batches_executed;
  return d;
}

}  // namespace

Report RunWire(const Options& options) {
  Report report;
  report.workload = "wire";
  report.seed = options.seed;
  report.trace = options.trace;
  const size_t np = options.smoke ? 2000 : 20000;
  const size_t nt = options.smoke ? 150 : 1500;
  const size_t conns = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  report.Spec("generator",
              "GenerateDataset(independent): P U[0,1)^3, T U[1,2)^3");
  report.Spec("preload_competitors", static_cast<double>(np));
  report.Spec("preload_products", static_cast<double>(nt));
  report.Spec("dims", static_cast<double>(kDims));
  report.Spec("op_mix",
              "every 10th op an update (35/15/15/10 P-insert/T-insert/"
              "P-erase/T-erase; P inserts U[0.5,1)^3, P erases only of "
              "those, T inserts U[1,2)^3), the rest topk k=10 "
              "(timeout 2 s)");
  report.Spec("phase_start",
              "backlog topped up to the rebuild threshold with P inserts, "
              "then the publish awaited");
  report.Spec("setup",
              "front door start + tenant create + preload over the wire "
              "through the first publish; median of " +
                  std::to_string(kSetups));
  report.Spec("loop", "open, fixed rate, timed from due time");
  report.Spec("connections", static_cast<double>(conns));
  report.Spec("rate_ops_per_s", kLadder[0]);
  std::string ladder;
  for (double r : kLadder) ladder += (ladder.empty() ? "" : ",") + Num17(r);
  report.Spec("slo_ladder_ops_per_s", ladder);
  report.Spec("slo_limit", "query p99 <= " + Num17(kSloP99Ms) +
                               " ms, no failures, no growing lateness");
  report.Spec("tenant",
              "shards=2, query_threads=2, quota=64, batch_max=16, "
              "batch_wait_us=200, memo_cache_mb=16, rebuild_threshold=1024, "
              "background rebuilder");

  const auto preload_p = UniformRows(np, 0.0, 1.0, options.seed * 3 + 1);
  const auto preload_t = UniformRows(nt, 1.0, 2.0, options.seed * 3 + 2);
  const std::vector<std::string> frames = LoadFrames(preload_p, preload_t);
  Samples setup_s;
  std::unique_ptr<Tenant> tenant;
  for (int i = 0; i < kSetups; ++i) {
    tenant.reset();  // stops the previous front door first
    const Clock::time_point t0 = Clock::now();
    tenant = StartTenant(frames, &report);
    if (tenant == nullptr) return report;
    setup_s.Add(SecondsSince(t0));
  }
  // Untimed: the rest of the preload folded in, as every phase assumes.
  const Server& server = *tenant->server;
  if (!WaitFor([&] {
        return server.DeltaBacklog() < server.options().rebuild_threshold_ops;
      })) {
    report.Fail("preload backlog never published");
    return report;
  }
  for (size_t i = 0; i < preload_p.size(); ++i) {
    tenant->rows.Add(true, i + 1, preload_p[i], /*erasable=*/false);
  }
  for (size_t i = 0; i < preload_t.size(); ++i) {
    tenant->rows.Add(false, i + 1, preload_t[i], /*erasable=*/true);
  }

  // The first query after the preload computes every product's upgrade
  // (the upgrade cache starts empty); run it before the clock starts.
  {
    const Clock::time_point t0 = Clock::now();
    skyup::Result<WireClient> client =
        WireClient::Dial("127.0.0.1", tenant->door->port());
    if (!client.ok() || !client->TopK(kTenant, kTopK, 0.0).ok()) {
      report.Fail("warm-up query failed");
      return report;
    }
    report.extra.push_back(
        {"warmup_query_ms", SecondsSince(t0) * 1e3, "ms"});
  }

  const double rate = kLadder[0];
  // Untraced: two thirds of the run at the measured rate, one third for
  // the ladder. Traced: half untraced, half traced (tracing overhead).
  const double main_seconds =
      options.trace ? options.seconds / 2 : options.seconds * 2 / 3;
  const Phase main =
      RunPhase(tenant.get(), rate, main_seconds, conns, options.seed, &report);
  const double peak_rss = PeakRssMb();
  const Samples query_ms = main.Latency(/*query=*/true, /*ok_only=*/true);
  const Samples update_ms = main.Latency(/*query=*/false, /*ok_only=*/true);
  const Samples late_ms = main.Lateness();
  report.end_to_end = {
      {"setup_s", setup_s.Median(), "s"},
      {"query_p50_ms", query_ms.Median(), "ms"},
      {"ops_per_s",
       static_cast<double>(main.ops.size() - main.failed) / main.wall_seconds,
       "1/s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
  report.extra.insert(report.extra.end(), {
      {"update_p50_ms", update_ms.Median(), "ms"},
      {"update_p99_ms", update_ms.Quantile(0.99), "ms"},
      {"generator_late_p50_ms", late_ms.Median(), "ms"},
      {"generator_late_p99_ms", late_ms.Quantile(0.99), "ms"},
      {"generator_late_max_ms", late_ms.Max(), "ms"},
      {"query_p90_ms", query_ms.Quantile(0.9), "ms"},
      {"query_p99_ms", query_ms.Quantile(0.99), "ms"},
      {"query_max_ms", query_ms.Max(), "ms"},
      {"queries", static_cast<double>(query_ms.size()), "count"},
      {"updates", static_cast<double>(update_ms.size()), "count"},
  });

  if (!options.trace) {
    // The ladder: each higher rung gets an equal share of the other half.
    double slo_qps = main.MeetsSlo() ? rate : 0.0;
    const size_t rungs = sizeof(kLadder) / sizeof(kLadder[0]);
    std::string table = "slo ladder (limit query p99 <= " +
                        Num17(kSloP99Ms) + " ms):\n";
    auto row = [&table](const Phase& p) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "  %6.0f ops/s  query p99 %8.3f ms  late p90 %8.3f ms  "
                    "failed %llu  lateness grows %s  -> %s\n",
                    p.rate, p.QueryP99ForSlo(), p.Lateness().Quantile(0.9),
                    static_cast<unsigned long long>(p.failed),
                    p.LatenessGrows() ? "yes" : "no",
                    p.MeetsSlo() ? "meets" : "misses");
      table += line;
    };
    row(main);
    for (size_t r = 1; r < rungs && slo_qps == kLadder[r - 1]; ++r) {
      const Phase rung =
          RunPhase(tenant.get(), kLadder[r], options.seconds / 3 / (rungs - 1),
                   conns,
                   options.seed + r, &report);
      row(rung);
      if (rung.MeetsSlo()) slo_qps = kLadder[r];
    }
    report.notes.push_back(table);
    report.extra.push_back({"slo_qps", slo_qps, "1/s"});
  } else {
    Tracer::Get().Enable();
    const ServeStats before = tenant->server->stats();
    // Poll the tenant's flight ring while the traced phase runs, keeping
    // only records newer than what the ring already holds.
    uint64_t first_id = 0;
    for (const QueryFlightRecord& r :
         tenant->server->flight_recorder().QueryRecords()) {
      first_id = std::max(first_id, r.query_id);
    }
    std::vector<QueryFlightRecord> records;
    std::mutex records_mu;
    bool stop = false;
    std::thread collector([&] {
      uint64_t last_id = first_id;
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(records_mu);
          if (stop) break;
        }
        {
          Span span("obs.FlightRecorder.QueryRecords");
          for (const QueryFlightRecord& r :
               tenant->server->flight_recorder().QueryRecords()) {
            if (r.query_id > last_id) {
              std::lock_guard<std::mutex> lock(records_mu);
              records.push_back(r);
              last_id = r.query_id;
            }
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
    const Phase traced = RunPhase(tenant.get(), rate, main_seconds, conns,
                                  options.seed + 100, &report);
    {
      std::lock_guard<std::mutex> lock(records_mu);
      stop = true;
    }
    collector.join();
    const ServeStats d = Delta(tenant->server->stats(), before);

    Samples rtt_ms, update_rtt_ms, wall_ms, queue_ms, execute_ms, slowest_ms,
        probe_ms, upgrade_ms;
    for (const OpTiming& op : traced.ops) {
      if (!op.ok) continue;
      (op.query ? rtt_ms : update_rtt_ms).Add(op.rtt_ms);
    }
    for (const QueryFlightRecord& r : records) {
      wall_ms.Add(r.wall_seconds * 1e3);
      queue_ms.Add(r.queue_seconds * 1e3);
      execute_ms.Add((r.wall_seconds - r.queue_seconds) * 1e3);
      slowest_ms.Add(r.slowest_shard_seconds * 1e3);
      probe_ms.Add(r.phases.probe_seconds * 1e3);
      upgrade_ms.Add(r.phases.upgrade_seconds * 1e3);
    }
    report.layer["wire.rtt_ms"] = rtt_ms.Median();
    report.layer["wire.overhead_ms"] = rtt_ms.Median() - wall_ms.Median();
    report.layer["server.update_ms"] = update_rtt_ms.Median();
    report.layer["server.queue_ms"] = queue_ms.Median();
    report.layer["server.execute_ms"] = execute_ms.Median();
    report.layer["server.batch_size"] =
        Ratio(d.queries_executed, d.batches_executed);
    report.layer["shard_query.slowest_shard_ms"] = slowest_ms.Median();
    report.layer["query.probe_ms"] = probe_ms.Mean();
    report.layer["query.upgrade_ms"] = upgrade_ms.Mean();
    report.layer["query.delta_ops_per_query"] =
        Ratio(d.delta_ops_scanned, d.queries_executed);
    report.layer["query.candidates_per_query"] =
        Ratio(d.candidates_evaluated, d.queries_executed);
    report.layer["upgrade_cache.hit_ratio"] =
        Ratio(d.cache_hits, d.cache_hits + d.cache_misses);
    report.layer["skyline_memo.hit_ratio"] =
        Ratio(d.memo_hits, d.memo_hits + d.memo_misses);
    report.layer["rebuilder.patches"] =
        static_cast<double>(d.patches_published);
    report.layer["rebuilder.majors"] =
        static_cast<double>(d.rebuilds_published);
    report.layer["trace.overhead_ms"] =
        traced.Latency(true, true).Median() - query_ms.Median();
    report.notes.push_back("traced: " + std::to_string(records.size()) +
                           " flight records of " +
                           std::to_string(d.queries_executed) +
                           " executed queries");
    AddSelfTimeTable(options, &report);
  }
  CheckFinalAnswer(tenant.get(), &report);
  report.extra.push_back(
      {"failed_frac", Ratio(report.failed, report.attempted), "ratio"});
  return report;
}

}  // namespace perfbench
