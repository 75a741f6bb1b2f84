#include "core/report.h"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace skyup {
namespace {

std::vector<UpgradeResult> SampleResults() {
  UpgradeResult a;
  a.product_id = 7;
  a.cost = 0.0;
  a.upgraded = {0.5, 0.25};
  a.already_competitive = true;
  UpgradeResult b;
  b.product_id = 3;
  b.cost = 1.5;
  b.upgraded = {0.125, 0.75};
  b.already_competitive = false;
  return {a, b};
}

std::string Render(ReportFormat format) {
  std::ostringstream out;
  WriteReport(SampleResults(), format, out);
  return out.str();
}

TEST(ReportFormatTest, ParseRoundTrips) {
  for (auto format : {ReportFormat::kText, ReportFormat::kCsv,
                      ReportFormat::kJson}) {
    Result<ReportFormat> parsed = ParseReportFormat(ReportFormatName(format));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, format);
  }
  EXPECT_FALSE(ParseReportFormat("xml").ok());
}

TEST(ReportTest, TextListsRanksAndStatus) {
  const std::string text = Render(ReportFormat::kText);
  EXPECT_NE(text.find("rank"), std::string::npos);
  EXPECT_NE(text.find("competitive"), std::string::npos);
  EXPECT_NE(text.find("dominated"), std::string::npos);
  EXPECT_NE(text.find("(0.5, 0.25)"), std::string::npos);
}

TEST(ReportTest, CsvRowsAreMachineReadable) {
  const std::string csv = Render(ReportFormat::kCsv);
  EXPECT_EQ(csv, "1,7,0,1,0.5,0.25\n2,3,1.5,0,0.125,0.75\n");
}

TEST(ReportTest, JsonIsWellFormedEnough) {
  const std::string json = Render(ReportFormat::kJson);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"rank\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"product\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"competitive\": true"), std::string::npos);
  EXPECT_NE(json.find("\"upgraded\": [0.125, 0.75]"), std::string::npos);
  // Exactly one separating comma between the two objects.
  EXPECT_NE(json.find("},\n"), std::string::npos);
  EXPECT_EQ(json.find("}]"), std::string::npos);  // objects on own lines
}

TEST(ReportTest, EmptyResults) {
  std::ostringstream out;
  WriteReport({}, ReportFormat::kJson, out);
  EXPECT_EQ(out.str(), "[\n]\n");
  std::ostringstream csv;
  WriteReport({}, ReportFormat::kCsv, csv);
  EXPECT_EQ(csv.str(), "");
}

TEST(ReportMetricsTest, ExecStatsRegisterAsCounters) {
  ExecStats stats;
  stats.products_processed = 11;
  stats.heap_pops = 7;
  stats.block_kernel_calls = 3;
  MetricsRegistry registry;
  AddExecStatsMetrics(stats, &registry);
  // One counter per SKYUP_EXEC_STATS_FIELDS entry.
  EXPECT_EQ(registry.size(), std::size(kExecStatsFields));

  std::ostringstream out;
  registry.WritePrometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("skyup_products_processed_total 11"),
            std::string::npos);
  EXPECT_NE(text.find("skyup_heap_pops_total 7"), std::string::npos);
  EXPECT_NE(text.find("skyup_block_kernel_calls_total 3"),
            std::string::npos);
}

TEST(ReportMetricsTest, TelemetryRegistersGaugesAndHistograms) {
  QueryTelemetry telemetry;
  telemetry.phases.total.probe_seconds = 0.5;
  telemetry.phases.per_shard.resize(2);
  telemetry.probe_latency.Observe(1e-4);
  MetricsRegistry registry;
  AddTelemetryMetrics(telemetry, &registry);

  std::ostringstream out;
  registry.WritePrometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("skyup_phase_probe_seconds 0.5"), std::string::npos);
  EXPECT_NE(text.find("skyup_query_shards 2"), std::string::npos);
  EXPECT_NE(text.find("skyup_probe_latency_seconds_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("skyup_upgrade_latency_seconds_count 0"),
            std::string::npos);
}

TEST(ReportProfileTest, WriteProfileCoversPhasesShardsAndHistograms) {
  QueryTelemetry telemetry;
  PhaseTimings shard;
  shard.probe_seconds = 0.75;
  shard.upgrade_seconds = 0.25;
  telemetry.phases.AddShard(shard);
  shard.probe_seconds = 0.25;
  telemetry.phases.AddShard(shard);
  telemetry.probe_latency.Observe(1e-3);

  std::ostringstream out;
  WriteProfile(telemetry, 2.0, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("phase profile (2 shards)"), std::string::npos);
  EXPECT_NE(text.find("probe"), std::string::npos);
  EXPECT_NE(text.find("% attributed"), std::string::npos);
  EXPECT_NE(text.find("per-shard seconds"), std::string::npos);
  EXPECT_NE(text.find("shard 1"), std::string::npos);
  EXPECT_NE(text.find("latency histograms"), std::string::npos);
  EXPECT_NE(text.find("n=1"), std::string::npos);

  // wall_seconds <= 0 omits the coverage line; one shard drops the
  // per-shard table.
  QueryTelemetry single;
  single.phases.AddShard(shard);
  std::ostringstream brief;
  WriteProfile(single, 0.0, brief);
  EXPECT_EQ(brief.str().find("attributed)"), std::string::npos);
  EXPECT_EQ(brief.str().find("per-shard"), std::string::npos);
}

}  // namespace
}  // namespace skyup
