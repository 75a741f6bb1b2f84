#include "obs/phase_timings.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

namespace skyup {
namespace {

// Every PhaseTimings field must survive MergeFrom and count in the total.
// Walks the field table, so a phase added to SKYUP_PHASE_TIMINGS_FIELDS
// is covered with no edit here.
TEST(PhaseTimingsTest, MergeFromCoversEveryField) {
  PhaseTimings a;
  PhaseTimings b;
  double i = 0;
  double expected_total = 0;
  for (const auto& phase : kPhaseTimingsFields) {
    ++i;
    a.*phase.member = i;
    b.*phase.member = 10 * i;
    expected_total += 11 * i;
  }
  a.MergeFrom(b);
  i = 0;
  for (const auto& phase : kPhaseTimingsFields) {
    ++i;
    EXPECT_DOUBLE_EQ(a.*phase.member, 11 * i) << phase.name;
  }
  EXPECT_DOUBLE_EQ(a.TotalSeconds(), expected_total);
}

TEST(PhaseTimingsTest, TotalIsTheFieldSum) {
  PhaseTimings t;
  EXPECT_DOUBLE_EQ(t.TotalSeconds(), 0.0);
  t.probe_seconds = 0.5;
  t.other_seconds = 0.25;
  EXPECT_DOUBLE_EQ(t.TotalSeconds(), 0.75);
}

TEST(PhaseBreakdownTest, AddShardAppendsAndRollsUp) {
  PhaseBreakdown breakdown;
  PhaseTimings shard;
  shard.probe_seconds = 1.0;
  breakdown.AddShard(shard);
  shard.probe_seconds = 2.0;
  breakdown.AddShard(shard);
  ASSERT_EQ(breakdown.per_shard.size(), 2u);
  EXPECT_DOUBLE_EQ(breakdown.per_shard[0].probe_seconds, 1.0);
  EXPECT_DOUBLE_EQ(breakdown.per_shard[1].probe_seconds, 2.0);
  EXPECT_DOUBLE_EQ(breakdown.total.probe_seconds, 3.0);
}

TEST(PhaseClockTest, LapsTileElapsedTime) {
  PhaseTimings timings;
  PhaseClock clock(&timings);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double probe = clock.Lap(&PhaseTimings::probe_seconds);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double upgrade = clock.Lap(&PhaseTimings::upgrade_seconds);
  EXPECT_GE(probe, 0.002);
  EXPECT_GE(upgrade, 0.002);
  EXPECT_DOUBLE_EQ(timings.probe_seconds, probe);
  EXPECT_DOUBLE_EQ(timings.upgrade_seconds, upgrade);
  // Laps are chained: the second lap starts where the first ended, so the
  // total is the sum without overlap.
  EXPECT_DOUBLE_EQ(timings.TotalSeconds(), probe + upgrade);
}

TEST(PhaseClockTest, NullSinkDisablesEverything) {
  PhaseClock clock(nullptr);
  EXPECT_FALSE(clock.enabled());
  EXPECT_DOUBLE_EQ(clock.Lap(&PhaseTimings::probe_seconds), 0.0);
}

TEST(PhaseClockTest, RepeatedLapsIntoOneFieldAccumulate) {
  PhaseTimings timings;
  PhaseClock clock(&timings);
  const double first = clock.Lap(&PhaseTimings::probe_seconds);
  const double second = clock.Lap(&PhaseTimings::probe_seconds);
  EXPECT_DOUBLE_EQ(timings.probe_seconds, first + second);
}

TEST(ShardTelemetryTest, FlushAppendsShardAndMergesHistograms) {
  ShardTelemetry shard;
  shard.LapProbe();
  shard.LapUpgrade();
  shard.LapOther();

  QueryTelemetry query;
  shard.FlushInto(&query);
  ASSERT_EQ(query.phases.per_shard.size(), 1u);
  EXPECT_EQ(query.probe_latency.count(), 1u);
  EXPECT_EQ(query.upgrade_latency.count(), 1u);
  EXPECT_GE(query.phases.total.TotalSeconds(), 0.0);
  // lint: float-eq-ok (flushing copies the shard's exact values)
  EXPECT_EQ(query.phases.total.probe_seconds, shard.timings().probe_seconds);

  // A second shard stacks: two entries, histograms merge.
  ShardTelemetry other;
  other.LapProbe();
  other.FlushInto(&query);
  EXPECT_EQ(query.phases.per_shard.size(), 2u);
  EXPECT_EQ(query.probe_latency.count(), 2u);
}

TEST(ShardTelemetryTest, NullSafeWrappersAcceptNull) {
  // Each must be a plain branch on null — no crash, no effect.
  LapProbe(nullptr);
  LapSkyline(nullptr);
  LapUpgrade(nullptr);
  LapPrune(nullptr);
  LapMerge(nullptr);
  LapOther(nullptr);

  ShardTelemetry shard;
  LapProbe(&shard);
  LapSkyline(&shard);
  LapUpgrade(&shard);
  LapPrune(&shard);
  LapMerge(&shard);
  LapOther(&shard);
  EXPECT_GE(shard.timings().TotalSeconds(), 0.0);
}

}  // namespace
}  // namespace skyup
