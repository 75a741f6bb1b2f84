#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Mean() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return values_.empty() ? 0.0 : sum / static_cast<double>(values_.size());
}

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

// ---------------------------------------------------------------- tracing

namespace {

std::mutex g_trace_mu;
std::vector<Tracer::Event> g_events;  // guarded by g_trace_mu
thread_local std::vector<int64_t> t_open;  // this thread's open spans

uint32_t ThreadTag() {
  static std::mutex mu;
  static std::map<std::thread::id, uint32_t> tags;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = tags.emplace(std::this_thread::get_id(),
                                     static_cast<uint32_t>(tags.size() + 1));
  return it->second;
}

thread_local uint32_t t_tid = 0;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string LayerOf(const char* name) {
  const std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const char* name) {
  if (t_tid == 0) t_tid = ThreadTag();
  const int64_t start = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - origin_)
                            .count();
  const int64_t parent = t_open.empty() ? -1 : t_open.back();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(g_trace_mu);
    index = static_cast<int64_t>(g_events.size());
    g_events.push_back(Event{name, t_tid, parent, start, 0, 0});
  }
  t_open.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  const int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_trace_mu);
  Event& e = g_events[static_cast<size_t>(index)];
  e.dur_ns = end - e.start_ns;
  if (e.parent >= 0) g_events[static_cast<size_t>(e.parent)].child_ns += e.dur_ns;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(g_trace_mu);
  return g_events.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(g_trace_mu);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < g_events.size(); ++i) {
    const Event& e = g_events[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << JsonEscape(e.name)
        << "\",\"cat\":\"" << JsonEscape(LayerOf(e.name))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
        << ",\"ts\":" << Num17(static_cast<double>(e.start_ns) / 1e3)
        << ",\"dur\":" << Num17(static_cast<double>(e.dur_ns) / 1e3)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << e.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::map<std::string, double> by_layer;
  std::lock_guard<std::mutex> lock(g_trace_mu);
  for (const Event& e : g_events) {
    by_layer[LayerOf(e.name)] +=
        static_cast<double>(e.dur_ns - e.child_ns) / 1e9;
  }
  return by_layer;
}

std::string Num17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------ correctness

bool SameRanking(const std::vector<skyup::UpgradeResult>& got,
                 const std::vector<skyup::UpgradeResult>& want, size_t k) {
  const size_t n = std::min(k, want.size());
  if (got.size() != n) return false;
  for (size_t i = 0; i < n; ++i) {
    const double tol = 1e-9 * std::max(1.0, std::fabs(want[i].cost));
    if (std::fabs(got[i].cost - want[i].cost) > tol) return false;
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

void Report::Spec(const std::string& key, double value) {
  spec.emplace_back(key, Num17(value));
}

// ----------------------------------------------------------------- output

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t at = colon + 1;
        while (at < line.size() && line[at] == ' ') ++at;
        return line.substr(at);
      }
    }
  }
  return "unknown";
}

std::string Env(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::vector<std::pair<std::string, std::string>> Provenance(
    const Report& report) {
  return {
      {"source", Env("PERFBENCH_SOURCE", "unknown")},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cxx_flags", PERFBENCH_CXX_FLAGS},
      {"lib_definitions", PERFBENCH_LIB_DEFS},
      {"compiler", PERFBENCH_COMPILER},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", CpuModel()},
      {"seed", std::to_string(report.seed)},
  };
}

std::string PairsJson(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out = "{";
  for (size_t i = 0; i < pairs.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + JsonEscape(pairs[i].first) + "\":\"" +
           JsonEscape(pairs[i].second) + "\"";
  }
  return out + "}";
}

std::string MetricsJson(const std::vector<Report::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + JsonEscape(metrics[i].name) +
           "\":{\"value\":" + Num17(metrics[i].value) + ",\"unit\":\"" +
           JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

void PrintMetrics(const char* kind, const std::vector<Report::Metric>& ms) {
  for (const Report::Metric& m : ms) {
    std::printf("%-10s %-34s %16.6f %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string ReportPath(const Options& options, const char* kind,
                       const char* ext) {
  return options.out_dir + "/" + kind + "-" + options.workload + "-seed" +
         std::to_string(options.seed) + "-trace" +
         (options.trace ? "1" : "0") + ext;
}

}  // namespace

void AddSelfTimeTable(const Options& options, Report* report) {
  Tracer& tracer = Tracer::Get();
  const std::map<std::string, double> self = tracer.SelfSecondsByLayer();
  double total = 0.0;
  for (const auto& [layer, seconds] : self) total += seconds;
  std::ostringstream table;
  table << "per-layer self time (" << tracer.size()
        << " spans; 'bench' = unattributed remainder of the window)\n";
  for (const auto& [layer, seconds] : self) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-16s %12.3f ms %6.1f%%\n",
                  layer.c_str(), seconds * 1e3,
                  total > 0 ? 100.0 * seconds / total : 0.0);
    table << line;
  }
  report->notes.push_back(table.str());
  mkdir(options.out_dir.c_str(), 0755);
  const std::string path = ReportPath(options, "trace", ".json");
  if (!tracer.WriteChromeTrace(path)) {
    report->notes.push_back("could not write " + path);
  } else {
    report->notes.push_back("chrome trace: " + path);
  }
}

int Emit(const Options& options, const Report& report) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 3;
  }
  std::vector<Report::Metric> per_layer;
  if (report.trace) {
    for (const LayerMetricDef& def : kLayerMetrics) {
      const auto it = report.layer.find(def.name);
      per_layer.push_back(
          {def.name, it == report.layer.end() ? 0.0 : it->second, def.unit});
    }
    for (const auto& [name, value] : report.layer) {
      bool known = false;
      for (const LayerMetricDef& def : kLayerMetrics) known |= name == def.name;
      if (!known) {
        std::fprintf(stderr, "perfbench: unlisted layer metric %s\n",
                     name.c_str());
        return 4;
      }
    }
  }
  const auto provenance = Provenance(report);
  std::printf("# perfbench workload=%s seed=%llu trace=%d\n",
              report.workload.c_str(),
              static_cast<unsigned long long>(report.seed),
              report.trace ? 1 : 0);
  std::printf("# provenance %s\n", PairsJson(provenance).c_str());
  std::printf("# spec %s\n", PairsJson(report.spec).c_str());
  PrintMetrics("metric", report.end_to_end);
  PrintMetrics("extra", report.extra);
  PrintMetrics("layer", per_layer);
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (!report.correct) {
    std::printf("# CORRECTNESS FAILURE: %s\n", report.failure.c_str());
  }

  // The full report, for later comparison.
  mkdir(options.out_dir.c_str(), 0755);
  const std::string path = ReportPath(options, "report", ".json");
  std::ofstream out(path);
  if (out) {
    out << "{\"workload\":\"" << JsonEscape(report.workload) << "\""
        << ",\"provenance\":" << PairsJson(provenance)
        << ",\"spec\":" << PairsJson(report.spec)
        << ",\"end_to_end\":" << MetricsJson(report.end_to_end)
        << ",\"extra\":" << MetricsJson(report.extra)
        << ",\"per_layer\":" << MetricsJson(per_layer)
        << ",\"notes\":[";
    for (size_t i = 0; i < report.notes.size(); ++i) {
      out << (i == 0 ? "\"" : ",\"") << JsonEscape(report.notes[i]) << "\"";
    }
    out << "],\"attempted\":" << report.attempted
        << ",\"failed\":" << report.failed
        << ",\"correct\":" << (report.correct ? "true" : "false") << "}\n";
  }
  std::printf("# report: %s\n", path.c_str());

  const std::vector<Report::Metric>& result =
      report.trace ? per_layer : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(result).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
