#ifndef SWIFT_SERVICE_TRACE_REPLAY_H_
#define SWIFT_SERVICE_TRACE_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "service/job_service.h"
#include "trace/production_trace.h"

namespace swift {

/// \brief Replays the Fig. 8 production trace through a JobService:
/// arrival times and job names come from the trace generator; each
/// trace job is deterministically mapped onto a runnable SQL text, a
/// tenant, and a priority class drawn from a seeded Rng.
struct TraceReplayConfig {
  /// Arrival process and job-shape distributions (Fig. 8). Only
  /// `num_jobs`, `seed` and `mean_interarrival` matter for replay
  /// pacing; the DAG shapes stay with the simulator.
  TraceConfig trace;
  /// Queries the trace jobs execute (e.g. TpchQuerySql over
  /// RunnableTpchQueries). Must be non-empty.
  std::vector<std::string> sql_pool;
  PlannerConfig planner;
  std::vector<std::string> tenants = {"analytics", "reporting", "etl",
                                      "adhoc"};
  /// Priorities drawn uniformly from [0, priority_classes).
  int priority_classes = 3;
  /// Wall seconds per trace second. 0 (default) replays open-loop as
  /// fast as the service admits — the overload regime where admission
  /// backpressure and fair-share matter; > 0 paces arrivals.
  double time_scale = 0.0;
  uint64_t seed = 20210419;
};

/// \brief Replay outcome. submitted == completed + failed + rejected
/// always holds (the soak suite asserts it against service.* counters).
struct TraceReplayReport {
  int submitted = 0;
  int rejected = 0;   ///< admission backpressure (queue full)
  int completed = 0;
  int failed = 0;
  std::vector<double> latencies_s;  ///< completed jobs, submit -> done
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;
  std::map<std::string, int> submitted_by_tenant;
  std::map<std::string, int> completed_by_tenant;
  /// Each completed job's own shuffle counters (its report's
  /// stats.shuffle), summed.
  int64_t shuffle_bytes = 0;
  int64_t shuffle_reads = 0;
};

/// \brief Runs the replay to completion (drains every admitted job).
Result<TraceReplayReport> ReplayTrace(JobService* service,
                                      const TraceReplayConfig& config);

}  // namespace swift

#endif  // SWIFT_SERVICE_TRACE_REPLAY_H_
