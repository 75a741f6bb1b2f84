#include "serve/serve_stats.h"

namespace skyup {

void AddServeStatsMetrics(const ServeStats& stats,
                          MetricsRegistry* registry) {
  for (const auto& field : kServeStatsFields) {
    registry->AddCounter(field.metric, field.help)
        ->Increment(stats.*field.member);
  }
}

}  // namespace skyup
