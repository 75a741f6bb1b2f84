// churn: the write-heavy use of the serve layer. One closed-loop client
// drives a `Server` in deterministic inline mode (background_rebuild =
// false, library defaults otherwise) through `GenerateWorkload` op
// streams: ~75% inserts/erases, ~25% top-k with k in 1..10. Publishes
// land on the update path. Each pass replays one whole stream on a fresh
// server, so work counts repeat exactly; query answers are checked
// against `Replay()` of the same stream. Passes cycle through a fixed
// corpus of streams, starting at a seed-chosen one: the cost of one
// stream depends on how many of its competitor inserts land on the
// frontier and invalidate cached upgrades, and that varies more than 2x
// between streams (p99 1.8-8.4 ms), while repeated runs of one stream
// agree within a few percent. Streams drawn from the seed made the tail a
// draw of the corpus rather than a measurement of the server. Bypasses
// wire, the admission queue, batching and shards.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/cost_function.h"
#include "serve/replay.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using skyup::QueryFlightRecord;
using skyup::ReplayOp;
using skyup::ReplayOpKind;
using skyup::Server;
using skyup::ServerOptions;
using skyup::ServeStats;

constexpr size_t kDims = 3;
constexpr size_t kStreams = 8;

ServerOptions ChurnServerOptions() {
  ServerOptions options;
  options.dims = kDims;
  options.background_rebuild = false;
  return options;
}

std::unique_ptr<Server> NewServer(Report* report) {
  skyup::Result<std::unique_ptr<Server>> server = Server::Create(
      skyup::ProductCostFunction::ReciprocalSum(kDims), ChurnServerOptions());
  if (!server.ok()) {
    report->Fail("server create: " + server.status().ToString());
    return nullptr;
  }
  return std::move(server).value();
}

// The block `Replay()` writes for one query (see serve/replay.cc).
std::string QueryBlock(size_t number, size_t k,
                       const skyup::QueryResponse& response) {
  std::string out = "query " + std::to_string(number) + " k=" +
                    std::to_string(k) + " results=" +
                    std::to_string(response.results.size()) + "\n";
  char buf[64];
  for (size_t r = 0; r < response.results.size(); ++r) {
    const skyup::UpgradeResult& res = response.results[r];
    std::snprintf(buf, sizeof(buf), "%.12g", res.cost);
    out += "  " + std::to_string(r + 1) +
           " id=" + std::to_string(res.product_id) + " cost=" + buf +
           " upgraded=";
    for (size_t d = 0; d < res.upgraded.size(); ++d) {
      std::snprintf(buf, sizeof(buf), "%.12g", res.upgraded[d]);
      if (d > 0) out += ';';
      out += buf;
    }
    out += "\n";
  }
  return out;
}

// Splits a replay log into its per-query blocks.
std::vector<std::string> SplitBlocks(const std::string& log) {
  std::vector<std::string> blocks;
  size_t at = 0;
  while (at < log.size()) {
    size_t next = log.find("\nquery ", at);
    next = next == std::string::npos ? log.size() : next + 1;
    blocks.push_back(log.substr(at, next - at));
    at = next;
  }
  return blocks;
}

/// One op stream and its `Replay()` log, split per query.
struct Stream {
  std::vector<ReplayOp> ops;
  std::vector<std::string> expected;
};

struct Tally {
  Samples setup_s;
  Samples query_ms;
  Samples update_ms;
  double loop_seconds = 0.0;
  uint64_t ops = 0;
  // Traced only.
  Samples quiet_update_ms;  // updates that published nothing
  Samples patch_ms;         // updates that published a patch
  Samples major_ms;         // updates that published a full rebuild
  std::vector<QueryFlightRecord> records;
  ServeStats stats;  // summed over passes
  uint64_t passes = 0;
  // Per stream, per pass: the latency of every timed op, in stream order.
  std::vector<std::vector<std::vector<double>>> op_ms;
};

// Appends the flight records newer than `*last_id`.
void CollectRecords(Server& server, uint64_t* last_id, Tally* tally) {
  Span span("obs.FlightRecorder.QueryRecords");
  for (const QueryFlightRecord& r : server.flight_recorder().QueryRecords()) {
    if (r.query_id > *last_id) {
      tally->records.push_back(r);
      *last_id = r.query_id;
    }
  }
}

// One pass: a fresh server, then the whole op stream in order. Set-up is
// the server start plus the stream's prefix through the first publish;
// ops after it are timed one by one, and their latencies are kept in
// stream order under `index`, the stream's number. Traced passes carry a
// control on every query (so the server laps its phases into the flight
// record) and diff ServeStats around every update to see which ones
// published.
void RunPass(const Stream& stream, size_t index, bool traced, Tally* tally,
             Report* report) {
  std::vector<double> latencies;
  latencies.reserve(stream.ops.size());
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Server> server;
  {
    Span span("server.Create");
    server = NewServer(report);
  }
  if (server == nullptr) return;
  const uint64_t first_epoch = server->CurrentEpoch();
  bool in_setup = true;
  uint64_t last_record = 0;
  size_t queries = 0;
  Clock::time_point start = Clock::now();
  for (const ReplayOp& op : stream.ops) {
    report->attempted += 1;
    if (!in_setup) tally->ops += 1;
    if (op.kind == ReplayOpKind::kQuery) {
      skyup::QueryRequest request;
      request.k = op.k;
      if (traced) request.control = std::make_shared<skyup::QueryControl>();
      const Clock::time_point t0 = Clock::now();
      skyup::QueryResponse response;
      {
        Span span("server.Query");
        response = server->Query(request);
      }
      if (!in_setup) {
        const double ms = SecondsSince(t0) * 1e3;
        tally->query_ms.Add(ms);
        latencies.push_back(ms);
      }
      ++queries;
      if (!response.status.ok() || queries > stream.expected.size() ||
          QueryBlock(queries, op.k, response) !=
              stream.expected[queries - 1]) {
        report->failed += 1;
        report->Fail("churn query " + std::to_string(queries) +
                     " differs from Replay()");
      }
      if (traced && (queries & 511) == 0) {
        CollectRecords(*server, &last_record, tally);
      }
      continue;
    }
    ServeStats before;
    if (traced) before = server->stats();
    skyup::Status status;
    const Clock::time_point t0 = Clock::now();
    switch (op.kind) {
      case ReplayOpKind::kInsertCompetitor: {
        Span span("server.InsertCompetitor");
        status = server->InsertCompetitor(op.coords).status();
        break;
      }
      case ReplayOpKind::kInsertProduct: {
        Span span("server.InsertProduct");
        status = server->InsertProduct(op.coords).status();
        break;
      }
      case ReplayOpKind::kEraseCompetitor: {
        Span span("server.EraseCompetitor");
        status = server->EraseCompetitor(op.id);
        break;
      }
      case ReplayOpKind::kEraseProduct: {
        Span span("server.EraseProduct");
        status = server->EraseProduct(op.id);
        break;
      }
      case ReplayOpKind::kQuery:
        break;
    }
    const double ms = SecondsSince(t0) * 1e3;
    if (in_setup) {
      if (server->CurrentEpoch() > first_epoch) {
        in_setup = false;
        tally->setup_s.Add(SecondsSince(setup_start));
        start = Clock::now();
      }
      if (!status.ok()) report->Fail("churn update rejected");
      continue;
    }
    tally->update_ms.Add(ms);
    latencies.push_back(ms);
    if (!status.ok()) {
      report->failed += 1;
      report->Fail("churn update rejected: " + status.ToString());
    }
    if (traced) {
      const ServeStats after = server->stats();
      if (after.rebuilds_published > before.rebuilds_published) {
        tally->major_ms.Add(ms);
      } else if (after.patches_published > before.patches_published) {
        tally->patch_ms.Add(ms);
      } else {
        tally->quiet_update_ms.Add(ms);
      }
    }
  }
  if (in_setup) report->Fail("churn stream never published");
  tally->loop_seconds += SecondsSince(start);
  tally->passes += 1;
  tally->op_ms[index].push_back(std::move(latencies));
  if (traced) {
    CollectRecords(*server, &last_record, tally);
    tally->stats.MergeFrom(server->stats());
  }
}

// Whole passes, cycling through the streams, until `seconds` have gone
// by (the last pass may run past it).
void RunPasses(const std::vector<Stream>& streams, size_t first,
               bool traced, double seconds, Tally* tally, Report* report) {
  tally->op_ms.resize(streams.size());
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (size_t i = 0; Clock::now() < deadline || i == 0; ++i) {
    const size_t j = (first + i) % streams.size();
    RunPass(streams[j], j, traced, tally, report);
    if (!report->correct) break;
  }
}

// Timed ops per second of the streams that ran, from each op's median
// latency over the passes that replayed it. A pass repeats its stream's
// work exactly, so the passes differ only by what the host did meanwhile:
// a wall-clock sum charges every burst of interference (another tenant,
// stolen CPU) to whichever ops it landed on, and moved this figure by a
// quarter between runs of the same code, while the per-op median drops a
// burst unless it hit the same op in most passes.
double MedianOpsPerSecond(const Tally& tally) {
  double ops = 0.0;
  double ms = 0.0;
  for (const std::vector<std::vector<double>>& passes : tally.op_ms) {
    if (passes.empty()) continue;
    const size_t n = passes.front().size();
    for (size_t i = 0; i < n; ++i) {
      Samples op;
      for (const std::vector<double>& pass : passes) {
        if (i < pass.size()) op.Add(pass[i]);
      }
      ms += op.Median();
    }
    ops += static_cast<double>(n);
  }
  return ms > 0.0 ? ops / (ms / 1e3) : 0.0;
}

}  // namespace

Report RunChurn(const Options& options) {
  Report report;
  report.workload = "churn";
  report.seed = options.seed;
  report.trace = options.trace;
  const size_t num_ops = options.smoke ? 2000 : 10000;
  const size_t num_streams = options.smoke ? 2 : kStreams;
  report.Spec("generator",
              "GenerateWorkload (serve/replay.h), stream j seeded j+1; "
              "passes start at stream seed mod streams");
  report.Spec("streams", static_cast<double>(num_streams));
  report.Spec("ops_per_stream", static_cast<double>(num_ops));
  report.Spec("dims", static_cast<double>(kDims));
  report.Spec("op_mix",
              "35% insert P, 15% insert T, 15% erase P, 10% erase T, "
              "25% top-k k~U[1,10]; coords U[0,1)");
  report.Spec("server",
              "background_rebuild=false, shards=0, batch_max=1, "
              "library defaults otherwise");
  report.Spec("loop", "closed, 1 client, inline Server calls");
  report.Spec("pass",
              "fresh server, one whole stream in order, streams in turn");
  report.Spec("setup", "server start + stream prefix through first publish");
  report.Spec("ops_per_s",
              "timed ops / sum over ops of each op's median latency across "
              "the passes of its stream");

  // The streams and their correctness references: Replay() of each.
  std::vector<Stream> streams(num_streams);
  for (size_t j = 0; j < num_streams; ++j) {
    std::ostringstream text;
    skyup::Status generated = skyup::GenerateWorkload(
        j + 1, num_ops, kDims, text);
    skyup::Result<skyup::ReplayWorkload> workload =
        generated.ok() ? skyup::ParseWorkload(text.str())
                       : skyup::Result<skyup::ReplayWorkload>(generated);
    std::unique_ptr<Server> server = NewServer(&report);
    if (!workload.ok() || server == nullptr) {
      report.Fail("workload generation failed");
      return report;
    }
    std::ostringstream log;
    skyup::Result<skyup::ReplayReport> replayed =
        skyup::Replay(server.get(), *workload, log);
    if (!replayed.ok()) {
      report.Fail("replay: " + replayed.status().ToString());
      return report;
    }
    streams[j].ops = std::move(workload->ops);
    streams[j].expected = SplitBlocks(log.str());
  }

  Tally plain;
  const size_t first = options.seed % num_streams;
  RunPasses(streams, first, /*traced=*/false,
            options.trace ? options.seconds / 2 : options.seconds, &plain,
            &report);
  const double peak_rss = PeakRssMb();

  report.end_to_end = {
      {"setup_s", plain.setup_s.Median(), "s"},
      {"query_p50_ms", plain.query_ms.Median(), "ms"},
      {"ops_per_s", MedianOpsPerSecond(plain), "1/s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
  report.extra = {
      {"wall_ops_per_s", static_cast<double>(plain.ops) / plain.loop_seconds,
       "1/s"},
      {"query_p90_ms", plain.query_ms.Quantile(0.9), "ms"},
      {"query_p99_ms", plain.query_ms.Quantile(0.99), "ms"},
      {"update_p50_ms", plain.update_ms.Median(), "ms"},
      {"update_p99_ms", plain.update_ms.Quantile(0.99), "ms"},
      {"queries", static_cast<double>(plain.query_ms.size()), "count"},
      {"updates", static_cast<double>(plain.update_ms.size()), "count"},
      {"passes", static_cast<double>(plain.passes), "count"},
      {"failed_frac", Ratio(report.failed, report.attempted), "ratio"},
  };

  if (options.trace) {
    Tracer::Get().Enable();
    Tally traced;
    {
      Span root("bench.churn");
      RunPasses(streams, first, /*traced=*/true, options.seconds / 2, &traced,
                &report);
    }
    const ServeStats& s = traced.stats;
    Samples probe_ms, upgrade_ms, execute_ms, queue_ms;
    for (const QueryFlightRecord& r : traced.records) {
      probe_ms.Add(r.phases.probe_seconds * 1e3);
      upgrade_ms.Add(r.phases.upgrade_seconds * 1e3);
      execute_ms.Add((r.wall_seconds - r.queue_seconds) * 1e3);
      queue_ms.Add(r.queue_seconds * 1e3);
    }
    const double passes = static_cast<double>(traced.passes);
    report.layer["server.update_ms"] = traced.quiet_update_ms.Median();
    report.layer["rebuilder.patch_ms"] = traced.patch_ms.Median();
    report.layer["rebuilder.major_ms"] = traced.major_ms.Median();
    report.layer["rebuilder.patches"] =
        static_cast<double>(s.patches_published) / passes;
    report.layer["rebuilder.majors"] =
        static_cast<double>(s.rebuilds_published) / passes;
    report.layer["query.probe_ms"] = probe_ms.Mean();
    report.layer["query.upgrade_ms"] = upgrade_ms.Mean();
    report.layer["query.delta_ops_per_query"] =
        Ratio(s.delta_ops_scanned, s.queries_executed);
    report.layer["query.candidates_per_query"] =
        Ratio(s.candidates_evaluated, s.queries_executed);
    report.layer["upgrade_cache.hit_ratio"] =
        Ratio(s.cache_hits, s.cache_hits + s.cache_misses);
    report.layer["skyline_memo.hit_ratio"] =
        Ratio(s.memo_hits, s.memo_hits + s.memo_misses);
    report.layer["server.queue_ms"] = queue_ms.Median();
    report.layer["server.execute_ms"] = execute_ms.Median();
    report.layer["server.batch_size"] =
        Ratio(s.queries_executed, s.batches_executed);
    report.layer["trace.overhead_ms"] =
        traced.query_ms.Median() - plain.query_ms.Median();
    report.notes.push_back(
        "traced: " + std::to_string(traced.records.size()) +
        " flight records over " + std::to_string(traced.passes) +
        " passes; publishes seen on the update path: " +
        std::to_string(traced.patch_ms.size()) + " patches, " +
        std::to_string(traced.major_ms.size()) + " majors");
    AddSelfTimeTable(options, &report);
  }
  return report;
}

}  // namespace perfbench
