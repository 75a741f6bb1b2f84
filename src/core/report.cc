#include "core/report.h"

#include <cstdio>

namespace skyup {

Result<ReportFormat> ParseReportFormat(const std::string& name) {
  if (name == "text") return ReportFormat::kText;
  if (name == "csv") return ReportFormat::kCsv;
  if (name == "json") return ReportFormat::kJson;
  return Status::InvalidArgument("unknown report format '" + name +
                                 "' (expected text, csv, or json)");
}

const char* ReportFormatName(ReportFormat format) {
  switch (format) {
    case ReportFormat::kText:
      return "text";
    case ReportFormat::kCsv:
      return "csv";
    case ReportFormat::kJson:
      return "json";
  }
  return "?";
}

namespace {

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void WriteText(const std::vector<UpgradeResult>& results, std::ostream& out) {
  out << "rank  product  cost          status       upgraded\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const UpgradeResult& r = results[i];
    char head[96];
    std::snprintf(head, sizeof(head), "%-5zu %-8lld %-13.6g %-12s ", i + 1,
                  static_cast<long long>(r.product_id), r.cost,
                  r.already_competitive ? "competitive" : "dominated");
    out << head << "(";
    for (size_t d = 0; d < r.upgraded.size(); ++d) {
      if (d > 0) out << ", ";
      out << Num(r.upgraded[d]);
    }
    out << ")\n";
  }
}

void WriteCsv(const std::vector<UpgradeResult>& results, std::ostream& out) {
  for (size_t i = 0; i < results.size(); ++i) {
    const UpgradeResult& r = results[i];
    out << i + 1 << ',' << r.product_id << ',' << Num(r.cost) << ','
        << (r.already_competitive ? 1 : 0);
    for (double v : r.upgraded) out << ',' << Num(v);
    out << '\n';
  }
}

void WriteJson(const std::vector<UpgradeResult>& results, std::ostream& out) {
  out << "[\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const UpgradeResult& r = results[i];
    out << "  {\"rank\": " << i + 1 << ", \"product\": " << r.product_id
        << ", \"cost\": " << Num(r.cost) << ", \"competitive\": "
        << (r.already_competitive ? "true" : "false") << ", \"upgraded\": [";
    for (size_t d = 0; d < r.upgraded.size(); ++d) {
      if (d > 0) out << ", ";
      out << Num(r.upgraded[d]);
    }
    out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

void WriteReport(const std::vector<UpgradeResult>& results,
                 ReportFormat format, std::ostream& out) {
  switch (format) {
    case ReportFormat::kText:
      WriteText(results, out);
      return;
    case ReportFormat::kCsv:
      WriteCsv(results, out);
      return;
    case ReportFormat::kJson:
      WriteJson(results, out);
      return;
  }
}

void AddExecStatsMetrics(const ExecStats& stats, MetricsRegistry* registry) {
  for (const auto& field : kExecStatsFields) {
    registry->AddCounter(field.metric, field.help)
        ->Increment(stats.*field.member);
  }
}

void AddTelemetryMetrics(const QueryTelemetry& telemetry,
                         MetricsRegistry* registry) {
  const PhaseTimings& total = telemetry.phases.total;
  auto gauge = [registry](const char* name, const char* help, double value) {
    registry->AddGauge(name, help)->Set(value);
  };
  for (const auto& phase : kPhaseTimingsFields) {
    gauge(phase.metric, phase.help, total.*phase.member);
  }
  gauge("skyup_phase_total_seconds", "sum of all attributed phase time",
        total.TotalSeconds());
  gauge("skyup_query_shards", "worker shards the query actually used",
        static_cast<double>(telemetry.phases.per_shard.size()));
  registry
      ->AddHistogram("skyup_probe_latency_seconds",
                     "per-candidate dominator-skyline probe latency")
      ->MergeFrom(telemetry.probe_latency);
  registry
      ->AddHistogram("skyup_upgrade_latency_seconds",
                     "per-candidate Algorithm 1 latency")
      ->MergeFrom(telemetry.upgrade_latency);
}

void WriteProfile(const QueryTelemetry& telemetry, double wall_seconds,
                  std::ostream& out) {
  const PhaseTimings& total = telemetry.phases.total;
  const double attributed = total.TotalSeconds();
  const auto share = [attributed](double seconds) {
    return attributed > 0.0 ? 100.0 * seconds / attributed : 0.0;
  };
  out << "phase profile (" << telemetry.phases.per_shard.size()
      << " shard" << (telemetry.phases.per_shard.size() == 1 ? "" : "s")
      << ")\n";
  char line[160];
  for (const auto& phase : kPhaseTimingsFields) {
    std::snprintf(line, sizeof(line), "  %-8s %12.6f s  %5.1f%%\n",
                  phase.name, total.*phase.member,
                  share(total.*phase.member));
    out << line;
  }
  std::snprintf(line, sizeof(line), "  %-8s %12.6f s\n", "total", attributed);
  out << line;
  if (wall_seconds > 0.0) {
    std::snprintf(line, sizeof(line),
                  "  wall     %12.6f s  (%.1f%% attributed)\n", wall_seconds,
                  100.0 * attributed / wall_seconds);
    out << line;
  }

  if (telemetry.phases.per_shard.size() > 1) {
    out << "per-shard seconds (";
    for (const auto& phase : kPhaseTimingsFields) {
      out << (&phase == kPhaseTimingsFields ? "" : "/") << phase.name;
    }
    out << ")\n";
    for (size_t i = 0; i < telemetry.phases.per_shard.size(); ++i) {
      const PhaseTimings& shard = telemetry.phases.per_shard[i];
      std::snprintf(line, sizeof(line), "  shard %-3zu ", i);
      out << line;
      for (const auto& phase : kPhaseTimingsFields) {
        std::snprintf(line, sizeof(line), "%s%.6f",
                      &phase == kPhaseTimingsFields ? "" : "/",
                      shard.*phase.member);
        out << line;
      }
      out << '\n';
    }
  }

  const auto histogram_line = [&](const char* name, const Histogram& h) {
    std::snprintf(line, sizeof(line),
                  "  %-8s n=%llu  p50=%.3gs  p95=%.3gs  p99=%.3gs\n", name,
                  static_cast<unsigned long long>(h.count()),
                  h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99));
    out << line;
  };
  out << "latency histograms\n";
  histogram_line("probe", telemetry.probe_latency);
  histogram_line("upgrade", telemetry.upgrade_latency);
}

}  // namespace skyup
