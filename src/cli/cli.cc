#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include <fstream>

#include "core/dominance_batch.h"
#include "core/planner.h"
#include "core/report.h"
#include "core/topk_common.h"
#include "data/generator.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "data/wine.h"
#include "serve/load_gen.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "serve/shard/front_door.h"
#include "serve/shard/wire.h"
#include "skyline/skyline.h"
#include "util/csv.h"
#include "util/timer.h"

namespace skyup {
namespace cli {

namespace {

constexpr const char* kUsage = R"(usage: skyup <command> [--flag=value ...]

commands:
  generate   synthesize a workload CSV
             --out=FILE --count=N --dims=D [--dist=indep|anti|corr]
             [--lo=0] [--hi=1] [--seed=1]
  wine       synthesize the UCI-wine stand-in table (4,898 x 3)
             --out=FILE [--count=4898] [--seed=2012]
  skyline    print the skyline row indices of a CSV
             --in=FILE (sort-filter skyline)
  topk       top-k product upgrading
             --competitors=FILE --products=FILE [--k=1]
             [--algorithm=join|improved|basic|brute] [--lb=nlb|clb|alb]
             [--epsilon=1e-6] [--fanout=64] [--threads=1] [--paper-bounds]
             [--format=text|csv|json] [--stats]
             [--profile] [--trace-out=FILE] [--metrics-out=FILE]
             (--threads: workers for brute, basic and improved; 1 runs
              inline, 0 = all hardware threads; same answers at any count;
              --stats: print work counters — heap pops, nodes visited,
              block-kernel calls, ... — as trailing '#' lines;
              --profile: per-phase wall-time breakdown + latency
              percentiles on stderr;
              --trace-out: Chrome trace-event JSON of the run — open in
              chrome://tracing or https://ui.perfetto.dev;
              --metrics-out: counters/gauges/histograms dump — JSON when
              FILE ends in .json, Prometheus text otherwise)
  serve      replay or generate a live update+query workload, run a
             closed-loop load generator (in-process or over TCP), or
             listen as a multi-tenant network front door
             --replay=OPS.csv [--out=FILE] [--metrics-out=FILE]
             [--shards=1] [--epsilon=1e-6] [--fanout=64]
             [--rebuild-threshold=64] [--batch-max=1]
             [--batch-wait-us=200] [--memo-cache-mb=16]
             | --gen-ops=FILE --ops=N --dims=D [--seed=1]
             | --load-gen --dims=D [--duration=5] [--clients=8] [--qps=0]
             [--query-fraction=0.9] [--k=10] [--timeout=0]
             [--preload-p=20000] [--preload-t=2000] [--threads=2]
             [--shards=1] [--rebuild-threshold=1024] [--batch-max=16]
             [--batch-wait-us=200] [--memo-cache-mb=16] [--seed=42]
             [--connect=HOST:PORT] [--tenant=bench]
             [--out=FILE.json] [--metrics-out=FILE]
             | --listen=PORT [--threads=2] [--quota=64]
             [--rebuild-threshold=1024] [--batch-max=16]
             [--batch-wait-us=200] [--memo-cache-mb=16]
             (--shards=N partitions P/T into N spatial shards behind one
              cross-shard epoch, N >= 1; results are byte-identical
              for every N — CI replays several against one golden
              log. --listen serves the
              length-prefixed text wire protocol on 127.0.0.1:PORT
              (PORT=0 picks an ephemeral port, printed on stdout);
              tenants are created over the wire with their own dims,
              shard count, and admission quota. --load-gen --connect
              drives a remote front door instead of an in-process
              server, creating --tenant first if needed.)
             replay and load-gen also take the flight-recorder flags:
             [--flight-recorder=on|off] [--flight-out=FILE]
             [--slow-log=FILE] [--slow-query-us=N] [--stats-interval-ms=N]
             (replay mode drives the serving layer deterministically:
              queries run inline and snapshot publishes trigger inline on
              the op-count threshold, so two replays of the same workload
              produce byte-identical output — including under
              --batch-max>1, which groups runs of consecutive queries
              into one shared traversal; every publish re-packs the
              live rows with an STR bulk load; --gen-ops writes a
              seeded random workload of inserts/erases/queries instead;
              --load-gen preloads the table, then drives the worker pool
              from --clients closed-loop threads for --duration seconds
              (--qps=0 saturates; >0 paces the fleet) and reports
              offered/achieved QPS and latency percentiles, as JSON when
              --out is given; --memo-cache-mb=0 disables the epoch memo;
              --flight-out dumps the flight recorder as JSONL at the end
              of the run — and whenever the process receives SIGUSR1,
              without pausing admission; --slow-log appends structured
              JSONL log records (slow queries past --slow-query-us,
              publishes, heartbeats every --stats-interval-ms);
              --flight-recorder=off disables the recorder rings)
  help       show this message
)";

// Parsed "--key=value" flags; bare "--key" maps to "true".
class Flags {
 public:
  static std::optional<Flags> Parse(const std::vector<std::string>& args,
                                    size_t begin, std::ostream& err) {
    Flags flags;
    for (size_t i = begin; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a.rfind("--", 0) != 0) {
        err << "unexpected argument '" << a << "'\n";
        return std::nullopt;
      }
      const size_t eq = a.find('=');
      if (eq == std::string::npos) {
        flags.values_[a.substr(2)] = "true";
      } else {
        flags.values_[a.substr(2, eq - 2)] = a.substr(eq + 1);
      }
    }
    return flags;
  }

  std::optional<std::string> Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    used_.insert(key);
    return it->second;
  }

  std::string GetOr(const std::string& key, const std::string& def) const {
    return Get(key).value_or(def);
  }

  // Flags nobody consumed are usage errors (typo protection).
  bool ReportUnused(std::ostream& err) const {
    bool any = false;
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) {
        err << "unknown flag --" << key << "\n";
        any = true;
      }
    }
    return any;
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

// NaN and ±inf are refused: every double flag is a finite quantity, and
// a NaN slips through any `< lo` / `> hi` range check.
std::optional<double> ToDouble(const std::string& s) {
  try {
    size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<long long> ToInt(const std::string& s) {
  try {
    size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

Result<Dataset> LoadCsvDataset(const std::string& path) {
  Result<CsvTable> table = ReadCsvFile(path, /*has_header=*/false);
  if (!table.ok()) return table.status();
  if (table->rows.empty()) {
    return Status::InvalidArgument("'" + path + "' holds no rows");
  }
  for (size_t i = 0; i < table->rows.size(); ++i) {
    if (!AllFinite(table->rows[i].data(), table->rows[i].size())) {
      return Status::InvalidArgument("'" + path + "' row " +
                                     std::to_string(i) +
                                     " has a non-finite value");
    }
  }
  return Dataset::FromRows(table->rows);
}

Status WriteDatasetCsv(const std::string& path, const Dataset& ds) {
  CsvTable table;
  table.rows.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    const double* p = ds.data(static_cast<PointId>(i));
    table.rows.emplace_back(p, p + ds.dims());
  }
  return WriteCsvFile(path, table);
}

// --metrics-out: JSON when `path` ends in ".json", Prometheus text
// otherwise.
Status WriteMetricsFile(const MetricsRegistry& registry,
                        const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json) {
    registry.WriteJson(file);
  } else {
    registry.WritePrometheus(file);
  }
  return Status::OK();
}

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return 1;
}

int Usage(std::ostream& err, const std::string& message) {
  err << message << "\n" << kUsage;
  return 2;
}

// ---- Flight recorder / structured log plumbing (serve modes) ----------

// The server a SIGUSR1 should dump. Plain (seq_cst) atomic: installs are
// rare, and the handler body below is the async-signal-safe part.
std::atomic<Server*> g_dump_server{nullptr};

extern "C" void HandleDumpSignal(int) {
  // Async-signal-safe: a lock-free atomic load plus RequestDump's
  // lock-free atomic store. No locks, no allocation, no IO.
  Server* server = g_dump_server.load();
  if (server != nullptr) server->RequestDump();
}

// Routes SIGUSR1 to `server->RequestDump()` for this scope.
class SignalDumpScope {
 public:
  explicit SignalDumpScope(Server* server) {
    g_dump_server.store(server);
#ifdef SIGUSR1
    std::signal(SIGUSR1, HandleDumpSignal);
#endif
  }
  ~SignalDumpScope() {
#ifdef SIGUSR1
    std::signal(SIGUSR1, SIG_DFL);
#endif
    g_dump_server.store(nullptr);
  }
  SignalDumpScope(const SignalDumpScope&) = delete;
  SignalDumpScope& operator=(const SignalDumpScope&) = delete;
};

// Each serve mode's defaults for the serving knobs it takes; a null
// default means the mode has no such flag (it stays an unknown flag).
struct ServeKnobDefaults {
  const char* threads;
  const char* shards;
  const char* rebuild_threshold;
  const char* batch_max;
};

// Parses the serving knobs shared by replay, --load-gen and --listen
// (--threads, --shards, --rebuild-threshold, --batch-max, --batch-wait-us,
// --memo-cache-mb) into `options`. False on a malformed or out-of-range
// value.
bool ApplyServeKnobFlags(const Flags& flags, const ServeKnobDefaults& defaults,
                         ServerOptions* options) {
  struct Knob {
    const char* name;
    const char* def;
    long long min;
    size_t* field;
  };
  const Knob knobs[] = {
      {"threads", defaults.threads, 1, &options->query_threads},
      {"shards", defaults.shards, 1, &options->shards},
      {"rebuild-threshold", defaults.rebuild_threshold, 1,
       &options->rebuild_threshold_ops},
      {"batch-max", defaults.batch_max, 1, &options->batch_max},
      {"batch-wait-us", "200", 0, &options->batch_wait_us},
      {"memo-cache-mb", "16", 0, &options->memo_cache_mb},
  };
  for (const Knob& knob : knobs) {
    if (knob.def == nullptr) continue;
    const auto value = ToInt(flags.GetOr(knob.name, knob.def));
    if (!value || *value < knob.min) return false;
    *knob.field = static_cast<size_t>(*value);
  }
  return true;
}

// Parses the observability flags shared by the serve modes
// (--flight-recorder, --flight-out, --slow-log, --slow-query-us,
// --stats-interval-ms) into `options`, installing the structured-log
// file sink when --slow-log is given. Returns an exit code on a bad
// flag, nullopt to proceed.
std::optional<int> ApplyServeObsFlags(const Flags& flags,
                                      ServerOptions* options,
                                      std::ostream& err) {
  const std::string recorder = flags.GetOr("flight-recorder", "on");
  if (recorder == "on") {
    options->flight_recorder = true;
  } else if (recorder == "off") {
    options->flight_recorder = false;
  } else {
    return Usage(err, "serve: --flight-recorder must be on or off");
  }
  const auto slow_us = ToInt(flags.GetOr("slow-query-us", "0"));
  const auto interval = ToInt(flags.GetOr("stats-interval-ms", "0"));
  if (!slow_us || !interval || *slow_us < 0 || *interval < 0) {
    return Usage(err, "serve: malformed observability flag");
  }
  options->slow_query_us = static_cast<uint64_t>(*slow_us);
  options->stats_interval_ms = static_cast<size_t>(*interval);
  const auto flight_out = flags.Get("flight-out");
  if (flight_out.has_value()) options->flight_dump_path = *flight_out;
  const auto slow_log = flags.Get("slow-log");
  if (slow_log.has_value()) {
    Status installed = SetLogFile(*slow_log, LogLevel::kInfo);
    if (!installed.ok()) return Fail(err, installed);
  }
  return std::nullopt;
}

// End-of-run dump: writes the final flight-recorder state to
// --flight-out (overwriting any earlier SIGUSR1 dump with the strictly
// more complete final one) and closes the structured-log sink so a
// --slow-log file is flushed to disk.
int FinishServeObs(Server* server, const ServerOptions& options,
                   std::ostream& err) {
  int rc = 0;
  if (!options.flight_dump_path.empty()) {
    std::ofstream file(options.flight_dump_path,
                       std::ios::out | std::ios::trunc);
    if (!file) {
      err << "error: cannot open '" << options.flight_dump_path
          << "' for writing\n";
      rc = 1;
    } else {
      server->DumpDiagnostics(file);
    }
  }
  return rc;
}

// Uninstalls the structured-log sink at scope exit (flushing/closing a
// --slow-log file), including on error returns.
struct LogSinkCloser {
  ~LogSinkCloser() { CloseLogSink(); }
};

int CmdGenerate(const Flags& flags, std::ostream& out, std::ostream& err) {
  const auto path = flags.Get("out");
  const auto count = flags.Get("count");
  const auto dims = flags.Get("dims");
  if (!path || !count || !dims) {
    return Usage(err, "generate requires --out, --count, and --dims");
  }
  const auto n = ToInt(*count);
  const auto d = ToInt(*dims);
  const auto lo = ToDouble(flags.GetOr("lo", "0"));
  const auto hi = ToDouble(flags.GetOr("hi", "1"));
  const auto seed = ToInt(flags.GetOr("seed", "1"));
  const std::string dist = flags.GetOr("dist", "indep");
  if (!n || !d || !lo || !hi || !seed || *n <= 0 || *d <= 0) {
    return Usage(err, "generate: malformed numeric flag");
  }
  GeneratorConfig config;
  config.count = static_cast<size_t>(*n);
  config.dims = static_cast<size_t>(*d);
  config.lo = *lo;
  config.hi = *hi;
  config.seed = static_cast<uint64_t>(*seed);
  if (dist == "indep") {
    config.distribution = Distribution::kIndependent;
  } else if (dist == "anti") {
    config.distribution = Distribution::kAntiCorrelated;
  } else if (dist == "corr") {
    config.distribution = Distribution::kCorrelated;
  } else {
    return Usage(err, "generate: --dist must be indep, anti, or corr");
  }
  if (flags.ReportUnused(err)) return 2;

  Result<Dataset> ds = GenerateDataset(config);
  if (!ds.ok()) return Fail(err, ds.status());
  Status written = WriteDatasetCsv(*path, *ds);
  if (!written.ok()) return Fail(err, written);
  out << "wrote " << ds->size() << " x " << ds->dims() << " "
      << DistributionName(config.distribution) << " points to " << *path
      << "\n";
  return 0;
}

int CmdWine(const Flags& flags, std::ostream& out, std::ostream& err) {
  const auto path = flags.Get("out");
  if (!path) return Usage(err, "wine requires --out");
  const auto count = ToInt(flags.GetOr("count", "4898"));
  const auto seed = ToInt(flags.GetOr("seed", "2012"));
  if (!count || !seed || *count <= 0) {
    return Usage(err, "wine: malformed numeric flag");
  }
  if (flags.ReportUnused(err)) return 2;

  Result<Dataset> wine = SynthesizeWine(static_cast<size_t>(*count),
                                        static_cast<uint64_t>(*seed));
  if (!wine.ok()) return Fail(err, wine.status());
  Status written = WriteDatasetCsv(*path, *wine);
  if (!written.ok()) return Fail(err, written);
  out << "wrote " << wine->size()
      << " wine tuples (chlorides, sulphates, total SO2) to " << *path
      << "\n";
  return 0;
}

int CmdSkyline(const Flags& flags, std::ostream& out, std::ostream& err) {
  const auto path = flags.Get("in");
  if (!path) return Usage(err, "skyline requires --in");
  if (flags.ReportUnused(err)) return 2;

  Result<Dataset> ds = LoadCsvDataset(*path);
  if (!ds.ok()) return Fail(err, ds.status());
  Timer timer;
  std::vector<PointId> sky = SkylineSfs(*ds);
  std::sort(sky.begin(), sky.end());
  out << "# skyline of " << ds->size() << " points: " << sky.size()
      << " members (sfs, "
      << static_cast<long long>(timer.ElapsedMicros()) << " us)\n";
  for (PointId id : sky) out << id << "\n";
  return 0;
}

int CmdTopK(const Flags& flags, std::ostream& out, std::ostream& err) {
  const auto competitors_path = flags.Get("competitors");
  const auto products_path = flags.Get("products");
  if (!competitors_path || !products_path) {
    return Usage(err, "topk requires --competitors and --products");
  }
  const auto k = ToInt(flags.GetOr("k", "1"));
  const auto epsilon = ToDouble(flags.GetOr("epsilon", "1e-6"));
  const auto fanout = ToInt(flags.GetOr("fanout", "64"));
  const auto threads = ToInt(flags.GetOr("threads", "1"));
  if (!k || !epsilon || !fanout || !threads || *k <= 0 ||
      !IsValidEpsilon(*epsilon) || *fanout < 2 || *threads < 0) {
    return Usage(err, "topk: malformed numeric flag");
  }

  const std::string algo_name = flags.GetOr("algorithm", "join");
  Algorithm algo;
  if (algo_name == "join") {
    algo = Algorithm::kJoin;
  } else if (algo_name == "improved") {
    algo = Algorithm::kImprovedProbing;
  } else if (algo_name == "basic") {
    algo = Algorithm::kBasicProbing;
  } else if (algo_name == "brute") {
    algo = Algorithm::kBruteForce;
  } else {
    return Usage(err,
                 "topk: --algorithm must be join, improved, basic, or brute");
  }

  const std::string lb_name = flags.GetOr("lb", "clb");
  PlannerOptions options;
  if (lb_name == "nlb") {
    options.lower_bound = LowerBoundKind::kNaive;
  } else if (lb_name == "clb") {
    options.lower_bound = LowerBoundKind::kConservative;
  } else if (lb_name == "alb") {
    options.lower_bound = LowerBoundKind::kAggressive;
  } else {
    return Usage(err, "topk: --lb must be nlb, clb, or alb");
  }
  options.epsilon = *epsilon;
  options.rtree_fanout = static_cast<size_t>(*fanout);
  options.threads = static_cast<size_t>(*threads);
  if (flags.GetOr("paper-bounds", "false") == "true") {
    options.bound_mode = BoundMode::kPaper;
  }
  const bool show_stats = flags.GetOr("stats", "false") == "true";
  const bool profile = flags.GetOr("profile", "false") == "true";
  const auto trace_path = flags.Get("trace-out");
  const auto metrics_path = flags.Get("metrics-out");
  Result<ReportFormat> format =
      ParseReportFormat(flags.GetOr("format", "csv"));
  if (!format.ok()) return Usage(err, format.status().message());
  if (flags.ReportUnused(err)) return 2;

  // The query body lives in a lambda so the root span closes before the
  // trace export below reads the buffers.
  auto run_query = [&]() -> int {
    SKYUP_TRACE_SPAN("cli/topk");
    Result<Dataset> competitors = LoadCsvDataset(*competitors_path);
    if (!competitors.ok()) return Fail(err, competitors.status());
    Result<Dataset> products = LoadCsvDataset(*products_path);
    if (!products.ok()) return Fail(err, products.status());

    const size_t dims = competitors->dims();
    Result<UpgradePlanner> planner = UpgradePlanner::Create(
        std::move(competitors).value(), std::move(products).value(),
        ProductCostFunction::ReciprocalSum(dims, 1e-3), options);
    if (!planner.ok()) return Fail(err, planner.status());

    const bool want_telemetry = profile || metrics_path.has_value();
    Timer timer;
    ExecStats stats;
    QueryTelemetry telemetry;
    Result<std::vector<UpgradeResult>> top = planner->TopK(
        static_cast<size_t>(*k), algo,
        (show_stats || metrics_path.has_value()) ? &stats : nullptr,
        want_telemetry ? &telemetry : nullptr);
    if (!top.ok()) return Fail(err, top.status());
    const double wall_seconds = timer.ElapsedSeconds();
    if (*format != ReportFormat::kJson) {
      out << "# top-" << *k << " upgrades via " << AlgorithmName(algo) << " ("
          << static_cast<long long>(wall_seconds * 1e6) << " us)\n";
    }
    if (*format == ReportFormat::kCsv) {
      out << "# rank,product_row,cost,competitive,upgraded...\n";
    }
    WriteReport(*top, *format, out);
    if (show_stats) {
      // Comment lines keep text/csv output parseable; JSON cannot carry
      // comments, so there the counters go to the diagnostic stream.
      std::ostream& s = (*format == ReportFormat::kJson) ? err : out;
      s << "# stats: kernel=" << BatchKernelName() << "\n";
      for (const auto& field : kExecStatsFields) {
        s << "# stats: " << field.name << '=' << stats.*field.member << "\n";
      }
    }
    if (profile) WriteProfile(telemetry, wall_seconds, err);
    if (metrics_path.has_value()) {
      MetricsRegistry registry;
      AddExecStatsMetrics(stats, &registry);
      AddTelemetryMetrics(telemetry, &registry);
      registry
          .AddGauge("skyup_query_wall_seconds",
                    "end-to-end wall time of the top-k query")
          ->Set(wall_seconds);
      const Status written = WriteMetricsFile(registry, *metrics_path);
      if (!written.ok()) return Fail(err, written);
    }
    return 0;
  };

  if (trace_path.has_value()) {
    if (kTraceLevel == 0) {
      err << "# trace: instrumentation compiled out "
             "(SKYUP_TRACE_LEVEL=off); the trace will hold no spans\n";
    }
    EnableTracing();
  }
  const int rc = run_query();
  if (trace_path.has_value()) {
    DisableTracing();
    const Status written = WriteChromeTraceFile(*trace_path);
    if (!written.ok()) return Fail(err, written);
    const TraceStats trace_stats = GetTraceStats();
    err << "# trace: " << trace_stats.events_buffered << " spans from "
        << trace_stats.threads << " threads -> " << *trace_path;
    if (trace_stats.events_dropped > 0) {
      err << " (" << trace_stats.events_dropped
          << " dropped by full ring buffers)";
    }
    err << "\n";
  }
  return rc;
}

int CmdServeLoadGen(const Flags& flags, std::ostream& out, std::ostream& err) {
  const auto dims = ToInt(flags.GetOr("dims", "3"));
  const auto duration = ToDouble(flags.GetOr("duration", "5"));
  const auto clients = ToInt(flags.GetOr("clients", "8"));
  const auto qps = ToDouble(flags.GetOr("qps", "0"));
  const auto query_fraction = ToDouble(flags.GetOr("query-fraction", "0.9"));
  const auto k = ToInt(flags.GetOr("k", "10"));
  const auto timeout = ToDouble(flags.GetOr("timeout", "0"));
  const auto preload_p = ToInt(flags.GetOr("preload-p", "20000"));
  const auto preload_t = ToInt(flags.GetOr("preload-t", "2000"));
  const auto seed = ToInt(flags.GetOr("seed", "42"));
  const auto connect = flags.Get("connect");
  const std::string tenant = flags.GetOr("tenant", "bench");
  const auto out_path = flags.Get("out");
  const auto metrics_path = flags.Get("metrics-out");
  ServerOptions options;
  if (!dims || !duration || !clients || !qps || !query_fraction || !k ||
      !timeout || !preload_p || !preload_t || !seed || *dims < 1 ||
      *duration <= 0 || *clients < 1 || *qps < 0 || *query_fraction < 0 ||
      *query_fraction > 1 || *k < 1 || *timeout < 0 || *preload_p < 0 ||
      *preload_t < 0 || *seed < 0 ||
      !ApplyServeKnobFlags(flags, {"2", "1", "1024", "16"}, &options)) {
    return Usage(err, "serve --load-gen: malformed numeric flag");
  }

  LoadGenOptions load;
  load.dims = static_cast<size_t>(*dims);
  load.clients = static_cast<size_t>(*clients);
  load.duration_seconds = *duration;
  load.target_qps = *qps;
  load.query_fraction = *query_fraction;
  load.k = static_cast<size_t>(*k);
  load.timeout_seconds = *timeout;
  load.preload_competitors = static_cast<size_t>(*preload_p);
  load.preload_products = static_cast<size_t>(*preload_t);
  load.seed = static_cast<uint64_t>(*seed);

  // Counters for the report footer/JSON; filled from the in-process
  // server's stats, or from the remote tenant's `stats` over the wire.
  ServeStats stats;
  Result<LoadGenReport> report = Status::Internal("load-gen never ran");

  options.dims = load.dims;

  std::unique_ptr<Server> server;  // in-process mode only
  if (connect.has_value()) {
    // Remote mode: drive a `serve --listen` front door over the wire
    // protocol. Server-side knobs come from the listener, not here.
    if (metrics_path.has_value()) {
      return Usage(err, "serve --load-gen: --metrics-out needs an "
                        "in-process server (drop --connect)");
    }
    const size_t colon = connect->rfind(':');
    std::optional<long long> port;
    if (colon != std::string::npos) port = ToInt(connect->substr(colon + 1));
    if (!port || *port < 1 || *port > 65535) {
      return Usage(err, "serve --load-gen: --connect must be HOST:PORT");
    }
    const std::string host = connect->substr(0, colon);
    if (flags.ReportUnused(err)) return 2;
    Result<WireClient> admin =
        WireClient::Dial(host, static_cast<uint16_t>(*port));
    if (!admin.ok()) return Fail(err, admin.status());
    Result<uint64_t> tenant_id = admin->CreateTenant(
        tenant, load.dims, options.shards, /*quota=*/0,
        /*attach_existing=*/true);
    if (!tenant_id.ok()) return Fail(err, tenant_id.status());
    err << "# load-gen: tenant '" << tenant << "' (id " << *tenant_id
        << ") on " << host << ":" << *port << "\n";
    Result<std::unique_ptr<WireLoadTarget>> target =
        WireLoadTarget::Create(host, static_cast<uint16_t>(*port), tenant);
    if (!target.ok()) return Fail(err, target.status());
    report = RunLoadGenOn(target->get(), load);
    if (!report.ok()) return Fail(err, report.status());
    Result<std::vector<std::pair<std::string, std::string>>> remote =
        admin->Stats(tenant);
    if (remote.ok()) {
      for (const auto& [key, value] : *remote) {
        const auto parsed = ToInt(value);
        if (!parsed) continue;
        for (const auto& field : kServeStatsFields) {
          if (key == field.name) {
            stats.*field.member = static_cast<uint64_t>(*parsed);
          }
        }
      }
    }
  } else {
    if (auto rc = ApplyServeObsFlags(flags, &options, err)) return *rc;
    if (flags.ReportUnused(err)) return 2;
    Result<std::unique_ptr<Server>> created = Server::Create(
        ProductCostFunction::ReciprocalSum(options.dims, 1e-3), options);
    if (!created.ok()) return Fail(err, created.status());
    server = std::move(created).value();
  }
  LogSinkCloser log_closer;
  if (server != nullptr) {
    // SIGUSR1 during the run dumps the flight recorder to --flight-out
    // without pausing admission — the CI live-dump demo drives this.
    SignalDumpScope dump_scope(server.get());
    report = RunLoadGen(server.get(), load);
    if (!report.ok()) return Fail(err, report.status());
    stats = server->stats();
  }

  const uint64_t probes = stats.memo_hits + stats.memo_misses;
  err.precision(4);
  err << "# load-gen: " << report->queries_ok << " queries ok ("
      << report->queries_rejected << " rejected, "
      << report->queries_timed_out << " timed out, "
      << report->queries_failed << " failed), " << report->updates_applied
      << " updates in " << report->wall_seconds << " s\n"
      << "# load-gen: offered=" << report->offered_qps
      << " qps achieved=" << report->achieved_qps << " qps ("
      << report->achieved_qps / static_cast<double>(options.query_threads)
      << " qps/core), p50=" << report->latency_p50_seconds * 1e3
      << " ms p99=" << report->latency_p99_seconds * 1e3 << " ms\n"
      << "# load-gen: memo hits=" << stats.memo_hits << "/" << probes
      << " batches=" << stats.batches_executed
      << " batched_queries=" << stats.batched_queries << "\n";

  std::ostringstream json;
  json.precision(12);
  json << "{\n"
       << "  \"config\": {\"dims\": " << options.dims
       << ", \"clients\": " << load.clients
       << ", \"query_threads\": " << options.query_threads
       << ", \"shards\": " << options.shards
       << ", \"duration_seconds\": " << load.duration_seconds
       << ", \"target_qps\": " << load.target_qps
       << ", \"query_fraction\": " << load.query_fraction
       << ", \"k\": " << load.k
       << ", \"preload_competitors\": " << load.preload_competitors
       << ", \"preload_products\": " << load.preload_products
       << ", \"batch_max\": " << options.batch_max
       << ", \"batch_wait_us\": " << options.batch_wait_us
       << ", \"memo_cache_mb\": " << options.memo_cache_mb
       << ", \"connect\": " << (connect.has_value() ? "true" : "false")
       << ", \"seed\": " << load.seed << "},\n"
       << "  \"wall_seconds\": " << report->wall_seconds << ",\n"
       << "  \"offered_qps\": " << report->offered_qps << ",\n"
       << "  \"achieved_qps\": " << report->achieved_qps << ",\n"
       << "  \"achieved_qps_per_core\": "
       << report->achieved_qps / static_cast<double>(options.query_threads)
       << ",\n"
       << "  \"queries_ok\": " << report->queries_ok << ",\n"
       << "  \"queries_rejected\": " << report->queries_rejected << ",\n"
       << "  \"queries_timed_out\": " << report->queries_timed_out << ",\n"
       << "  \"queries_failed\": " << report->queries_failed << ",\n"
       << "  \"updates_applied\": " << report->updates_applied << ",\n"
       << "  \"updates_rejected\": " << report->updates_rejected << ",\n"
       << "  \"latency_p50_seconds\": " << report->latency_p50_seconds
       << ",\n"
       << "  \"latency_p95_seconds\": " << report->latency_p95_seconds
       << ",\n"
       << "  \"latency_p99_seconds\": " << report->latency_p99_seconds
       << ",\n"
       << "  \"latency_max_seconds\": " << report->latency_max_seconds
       << ",\n"
       << "  \"memo_hits\": " << stats.memo_hits << ",\n"
       << "  \"memo_misses\": " << stats.memo_misses << ",\n"
       << "  \"batches_executed\": " << stats.batches_executed << ",\n"
       << "  \"batched_queries\": " << stats.batched_queries << "\n"
       << "}\n";
  if (out_path.has_value()) {
    std::ofstream file(*out_path);
    if (!file) {
      return Fail(err, Status::IOError("cannot open '" + *out_path + "'"));
    }
    file << json.str();
  } else {
    out << json.str();
  }

  if (metrics_path.has_value() && server != nullptr) {
    MetricsRegistry registry;
    server->FillMetrics(&registry);
    const Status written = WriteMetricsFile(registry, *metrics_path);
    if (!written.ok()) return Fail(err, written);
  }
  if (server != nullptr) return FinishServeObs(server.get(), options, err);
  return 0;
}

// serve --listen=PORT: the multi-tenant network front door. Blocks until
// a `shutdown` command arrives over the wire.
int CmdServeListen(const Flags& flags, std::ostream& out, std::ostream& err) {
  const auto listen = ToInt(flags.GetOr("listen", "0"));
  const auto quota = ToInt(flags.GetOr("quota", "64"));
  FrontDoorOptions options;
  // Tenants take their shard count from the wire `create`, not a flag.
  if (!listen || !quota || *listen < 0 || *listen > 65535 || *quota < 1 ||
      !ApplyServeKnobFlags(flags, {"2", nullptr, "1024", "16"},
                           &options.tenant_base)) {
    return Usage(err, "serve --listen: malformed numeric flag");
  }
  options.port = static_cast<uint16_t>(*listen);
  options.tenant_base.dims = 1;  // per-tenant `create` overrides
  options.tenant_base.max_pending = static_cast<size_t>(*quota);
  if (auto rc = ApplyServeObsFlags(flags, &options.tenant_base, err)) {
    return *rc;
  }
  LogSinkCloser log_closer;
  if (flags.ReportUnused(err)) return 2;

  Result<std::unique_ptr<FrontDoor>> door = FrontDoor::Start(options);
  if (!door.ok()) return Fail(err, door.status());
  // The port line is the startup handshake: harnesses parse it to learn
  // an ephemeral port, so it must flush before the blocking wait.
  out << "# serve: listening on 127.0.0.1:" << (*door)->port() << std::endl;
  (*door)->WaitForShutdown();
  const std::vector<std::string> tenants = (*door)->registry().Names();
  (*door)->Stop();
  err << "# serve: shutdown after serving " << tenants.size()
      << " tenant(s)";
  for (const std::string& name : tenants) err << " " << name;
  err << "\n";
  return 0;
}

int CmdServe(const Flags& flags, std::ostream& out, std::ostream& err) {
  const auto gen_path = flags.Get("gen-ops");
  const auto replay_path = flags.Get("replay");
  const bool load_gen = flags.Get("load-gen").has_value();
  const bool listen = flags.Get("listen").has_value();
  const int modes = (gen_path.has_value() ? 1 : 0) +
                    (replay_path.has_value() ? 1 : 0) + (load_gen ? 1 : 0) +
                    (listen ? 1 : 0);
  if (modes != 1) {
    return Usage(err,
                 "serve requires exactly one of --replay, --gen-ops, "
                 "--load-gen, --listen");
  }
  if (load_gen) return CmdServeLoadGen(flags, out, err);
  if (listen) return CmdServeListen(flags, out, err);

  if (gen_path.has_value()) {
    const auto ops = ToInt(flags.GetOr("ops", "1000"));
    const auto dims = ToInt(flags.GetOr("dims", "3"));
    const auto seed = ToInt(flags.GetOr("seed", "1"));
    if (!ops || !dims || !seed || *ops <= 0 || *dims <= 0) {
      return Usage(err, "serve: malformed numeric flag");
    }
    if (flags.ReportUnused(err)) return 2;
    std::ofstream file(*gen_path);
    if (!file) {
      return Fail(err,
                  Status::IOError("cannot open '" + *gen_path + "'"));
    }
    Status generated =
        GenerateWorkload(static_cast<uint64_t>(*seed),
                         static_cast<size_t>(*ops),
                         static_cast<size_t>(*dims), file);
    if (!generated.ok()) return Fail(err, generated);
    out << "wrote " << *ops << " ops (dims=" << *dims << ", seed=" << *seed
        << ") to " << *gen_path << "\n";
    return 0;
  }

  const auto epsilon = ToDouble(flags.GetOr("epsilon", "1e-6"));
  const auto fanout = ToInt(flags.GetOr("fanout", "64"));
  const auto out_path = flags.Get("out");
  const auto metrics_path = flags.Get("metrics-out");
  ServerOptions options;
  // Queries run inline, so replay takes no --threads.
  if (!epsilon || !fanout || !IsValidEpsilon(*epsilon) || *fanout < 2 ||
      !ApplyServeKnobFlags(flags, {nullptr, "1", "64", "1"}, &options)) {
    return Usage(err, "serve: malformed numeric flag");
  }

  Result<ReplayWorkload> workload = ReadWorkloadFile(*replay_path);
  if (!workload.ok()) return Fail(err, workload.status());

  options.dims = workload->dims;
  options.default_epsilon = *epsilon;
  options.rtree_fanout = static_cast<size_t>(*fanout);
  options.background_rebuild = false;  // replay must be deterministic
  options.query_threads = 1;
  if (auto rc = ApplyServeObsFlags(flags, &options, err)) return *rc;
  LogSinkCloser log_closer;
  if (flags.ReportUnused(err)) return 2;
  Result<std::unique_ptr<Server>> server = Server::Create(
      ProductCostFunction::ReciprocalSum(workload->dims, 1e-3), options);
  if (!server.ok()) return Fail(err, server.status());
  SignalDumpScope dump_scope(server->get());

  std::ofstream result_file;
  if (out_path.has_value()) {
    result_file.open(*out_path);
    if (!result_file) {
      return Fail(err, Status::IOError("cannot open '" + *out_path + "'"));
    }
  }
  std::ostream& results = out_path.has_value() ? result_file : out;
  Result<ReplayReport> report = Replay(server->get(), *workload, results);
  if (!report.ok()) return Fail(err, report.status());

  err << "# replay: " << workload->ops.size() << " ops ("
      << report->inserts_p << " +P, " << report->inserts_t << " +T, "
      << report->erases_p << " -P, " << report->erases_t << " -T, "
      << report->queries << " queries) in "
      << static_cast<long long>(report->wall_seconds * 1e6) << " us\n"
      << "# replay: final epoch=" << report->final_epoch
      << " backlog=" << report->final_backlog << " rebuilds="
      << (*server)->stats().rebuilds_published << "\n"
      << "# replay: memo hits=" << (*server)->stats().memo_hits << "/"
      << ((*server)->stats().memo_hits + (*server)->stats().memo_misses)
      << " batches=" << (*server)->stats().batches_executed
      << " batched_queries=" << (*server)->stats().batched_queries << "\n";

  if (metrics_path.has_value()) {
    MetricsRegistry registry;
    (*server)->FillMetrics(&registry);
    const Status written = WriteMetricsFile(registry, *metrics_path);
    if (!written.ok()) return Fail(err, written);
  }
  return FinishServeObs(server->get(), options, err);
}

}  // namespace

int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  std::optional<Flags> flags = Flags::Parse(args, 1, err);
  if (!flags.has_value()) return 2;

  if (command == "generate") return CmdGenerate(*flags, out, err);
  if (command == "wine") return CmdWine(*flags, out, err);
  if (command == "skyline") return CmdSkyline(*flags, out, err);
  if (command == "topk") return CmdTopK(*flags, out, err);
  if (command == "serve") return CmdServe(*flags, out, err);
  return Usage(err, "unknown command '" + command + "'");
}

}  // namespace cli
}  // namespace skyup
