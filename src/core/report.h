#ifndef SKYUP_CORE_REPORT_H_
#define SKYUP_CORE_REPORT_H_

// Rendering of top-k upgrade rankings for the CLI and downstream tooling:
// human-readable text, headerless CSV, or a JSON array — plus the metrics
// bridge that turns a query's `ExecStats` work counters and
// `QueryTelemetry` phase breakdown into registered metrics
// (obs/metrics.h), and the `--profile` text renderer.

#include <ostream>
#include <string>
#include <vector>

#include "core/upgrade_result.h"
#include "obs/metrics.h"
#include "obs/phase_timings.h"
#include "util/status.h"

namespace skyup {

enum class ReportFormat {
  kText,  ///< aligned human-readable table
  kCsv,   ///< rank,product_row,cost,competitive,upgraded...
  kJson,  ///< array of objects with the same fields
};

/// Parses "text" / "csv" / "json".
Result<ReportFormat> ParseReportFormat(const std::string& name);

const char* ReportFormatName(ReportFormat format);

/// Writes `results` (assumed already ranked) to `out` in the chosen
/// format. Coordinates print with up to 12 significant digits so CSV and
/// JSON round-trip through doubles losslessly enough for tooling.
void WriteReport(const std::vector<UpgradeResult>& results,
                 ReportFormat format, std::ostream& out);

/// Registers every `ExecStats` work counter on `registry` as a counter,
/// under the metric name and help text of its `SKYUP_EXEC_STATS_FIELDS`
/// entry (idempotent names: re-registering returns the same metric, so
/// repeated queries accumulate). Walks `kExecStatsFields`, so a counter
/// added to the list is exported with no edit here.
void AddExecStatsMetrics(const ExecStats& stats, MetricsRegistry* registry);

/// Registers one query's phase breakdown (per-phase seconds and shard
/// count as gauges, total attributed seconds) and merges its probe /
/// upgrade latency histograms into `skyup_probe_latency_seconds` /
/// `skyup_upgrade_latency_seconds`.
void AddTelemetryMetrics(const QueryTelemetry& telemetry,
                         MetricsRegistry* registry);

/// Human-readable per-phase profile for CLI `--profile`: each phase's
/// seconds and share of the attributed time, per-shard rows when more
/// than one shard ran, and the p50/p95/p99 of the latency histograms.
/// `wall_seconds` (<= 0 to omit) adds an attribution-coverage line.
void WriteProfile(const QueryTelemetry& telemetry, double wall_seconds,
                  std::ostream& out);

}  // namespace skyup

#endif  // SKYUP_CORE_REPORT_H_
