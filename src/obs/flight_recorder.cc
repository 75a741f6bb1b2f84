#include "obs/flight_recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace skyup {

namespace {

void AppendNum(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";  // JSON has no inf/nan
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

void AppendField(std::string* out, const char* key, uint64_t v) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  *out += std::to_string(v);
}

void AppendField(std::string* out, const char* key, double v) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  AppendNum(out, v);
}

}  // namespace

FlightRecorder::FlightRecorder(const FlightRecorderOptions& options)
    : options_{std::max<size_t>(1, options.query_ring),
               std::max<size_t>(1, options.sample_ring)} {}

void FlightRecorder::RecordQuery(const QueryFlightRecord& record) {
  MutexLock lock(mu_);
  if (queries_.size() < options_.query_ring) {
    queries_.push_back(record);
  } else {
    queries_[queries_recorded_ % options_.query_ring] = record;
  }
  ++queries_recorded_;
}

void FlightRecorder::RecordSample(const SystemSample& sample) {
  MutexLock lock(mu_);
  if (samples_.size() < options_.sample_ring) {
    samples_.push_back(sample);
  } else {
    samples_[samples_recorded_ % options_.sample_ring] = sample;
  }
  ++samples_recorded_;
}

std::vector<QueryFlightRecord> FlightRecorder::QueryRecords() const {
  MutexLock lock(mu_);
  std::vector<QueryFlightRecord> out;
  out.reserve(queries_.size());
  // Oldest-first: once the ring wrapped, the slot at `recorded % size`
  // holds the oldest surviving record.
  const uint64_t held = queries_.size();
  const uint64_t begin = queries_recorded_ - held;
  for (uint64_t i = begin; i < queries_recorded_; ++i) {
    out.push_back(queries_[i % options_.query_ring]);
  }
  return out;
}

std::vector<SystemSample> FlightRecorder::Samples() const {
  MutexLock lock(mu_);
  std::vector<SystemSample> out;
  out.reserve(samples_.size());
  const uint64_t held = samples_.size();
  const uint64_t begin = samples_recorded_ - held;
  for (uint64_t i = begin; i < samples_recorded_; ++i) {
    out.push_back(samples_[i % options_.sample_ring]);
  }
  return out;
}

FlightRecorderStats FlightRecorder::stats() const {
  MutexLock lock(mu_);
  FlightRecorderStats stats;
  stats.queries_recorded = queries_recorded_;
  stats.queries_dropped = queries_recorded_ - queries_.size();
  stats.samples_recorded = samples_recorded_;
  stats.samples_dropped = samples_recorded_ - samples_.size();
  return stats;
}

void FlightRecorder::Clear() {
  MutexLock lock(mu_);
  queries_.clear();
  samples_.clear();
  queries_recorded_ = 0;
  samples_recorded_ = 0;
}

std::string QueryRecordJson(const QueryFlightRecord& record) {
  std::string line = "{\"type\":\"query\"";
  AppendField(&line, "query_id", record.query_id);
  AppendField(&line, "batch_id", record.batch_id);
  AppendField(&line, "tenant_id", record.tenant_id);
  AppendField(&line, "epoch", record.epoch);
  AppendField(&line, "end_ts_us", record.end_ts_us);
  line += ",\"status\":\"";
  line += StatusCodeName(record.status);  // enum names, JSON-safe
  line += '"';
  AppendField(&line, "k", static_cast<uint64_t>(record.k));
  AppendField(&line, "results", static_cast<uint64_t>(record.results));
  AppendField(&line, "queue_s", record.queue_seconds);
  AppendField(&line, "wall_s", record.wall_seconds);
  line += ",\"phases\":{";
  for (const auto& phase : kPhaseTimingsFields) {
    if (&phase != kPhaseTimingsFields) line += ',';
    line += '"';
    line += phase.name;
    line += "_s\":";
    AppendNum(&line, record.phases.*phase.member);
  }
  line += '}';
#define SKYUP_FLIGHT_RECORD_JSON(field) \
  AppendField(&line, #field, record.field);
  SKYUP_FLIGHT_RECORD_COUNTERS(SKYUP_FLIGHT_RECORD_JSON)
#undef SKYUP_FLIGHT_RECORD_JSON
  AppendField(&line, "shard_count", static_cast<uint64_t>(record.shard_count));
  AppendField(&line, "slowest_shard",
              static_cast<uint64_t>(record.slowest_shard));
  AppendField(&line, "slowest_shard_s", record.slowest_shard_seconds);
  line += ",\"slow\":";
  line += record.slow ? "true" : "false";
  line += '}';
  return line;
}

std::string SystemSampleJson(const SystemSample& sample) {
  std::string line = "{\"type\":\"sample\"";
  AppendField(&line, "ts_us", sample.ts_us);
  AppendField(&line, "epoch", sample.epoch);
  AppendField(&line, "snapshot_age_s", sample.snapshot_age_seconds);
  AppendField(&line, "queue_depth", sample.queue_depth);
  AppendField(&line, "delta_backlog", sample.delta_backlog);
  AppendField(&line, "tombstone_pct", sample.tombstone_pct);
  AppendField(&line, "memo_bytes", sample.memo_bytes);
  AppendField(&line, "rebuilds_published", sample.rebuilds_published);
  AppendField(&line, "patches_published", sample.patches_published);
  AppendField(&line, "live_competitors", sample.live_competitors);
  AppendField(&line, "live_products", sample.live_products);
  line += '}';
  return line;
}

void FlightRecorder::WriteJsonl(std::ostream& out) const {
  // Copy out under the lock, then format/write without it: the stream
  // write may block (disk, pipe), and nothing orders after kObsFlight
  // except the log sink.
  std::vector<QueryFlightRecord> queries = QueryRecords();
  std::vector<SystemSample> samples = Samples();
  const FlightRecorderStats s = stats();
  std::string meta = "{\"type\":\"flight_meta\"";
  AppendField(&meta, "query_ring", static_cast<uint64_t>(options_.query_ring));
  AppendField(&meta, "sample_ring",
              static_cast<uint64_t>(options_.sample_ring));
  AppendField(&meta, "queries_recorded", s.queries_recorded);
  AppendField(&meta, "queries_dropped", s.queries_dropped);
  AppendField(&meta, "samples_recorded", s.samples_recorded);
  AppendField(&meta, "samples_dropped", s.samples_dropped);
  meta += '}';
  out << meta << '\n';
  for (const QueryFlightRecord& record : queries) {
    out << QueryRecordJson(record) << '\n';
  }
  for (const SystemSample& sample : samples) {
    out << SystemSampleJson(sample) << '\n';
  }
}

}  // namespace skyup
