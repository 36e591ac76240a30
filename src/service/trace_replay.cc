#include "service/trace_replay.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"
#include "service/quantiles.h"

namespace swift {

Result<TraceReplayReport> ReplayTrace(JobService* service,
                                      const TraceReplayConfig& config) {
  if (service == nullptr) {
    return Status::InvalidArgument("ReplayTrace: null service");
  }
  if (config.sql_pool.empty()) {
    return Status::InvalidArgument("ReplayTrace: empty sql_pool");
  }
  if (config.tenants.empty()) {
    return Status::InvalidArgument("ReplayTrace: empty tenant list");
  }
  std::vector<SimJobSpec> jobs = GenerateProductionTrace(config.trace);
  std::sort(jobs.begin(), jobs.end(),
            [](const SimJobSpec& a, const SimJobSpec& b) {
              return a.submit_time < b.submit_time;
            });

  Rng rng(config.seed);
  TraceReplayReport report;
  struct Issued {
    std::shared_ptr<JobTicket> ticket;
    std::string tenant;
  };
  std::vector<Issued> issued;
  issued.reserve(jobs.size());
  const auto t0 = std::chrono::steady_clock::now();
  const int classes = std::max(1, config.priority_classes);
  for (const SimJobSpec& job : jobs) {
    // The mapping consumes rng draws in a fixed order per trace job, so
    // a given (trace seed, replay seed) pair always produces the same
    // submission sequence regardless of service timing.
    JobRequest req;
    req.sql = config.sql_pool[static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<int64_t>(config.sql_pool.size()) - 1))];
    req.tenant = config.tenants[static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<int64_t>(config.tenants.size()) - 1))];
    req.priority = static_cast<int>(rng.UniformInt(0, classes - 1));
    req.planner = config.planner;
    req.label = job.name;
    if (config.time_scale > 0.0) {
      const auto due =
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(job.submit_time *
                                                 config.time_scale));
      std::this_thread::sleep_until(due);
    }
    report.submitted += 1;
    report.submitted_by_tenant[req.tenant] += 1;
    const std::string tenant = req.tenant;
    Result<std::shared_ptr<JobTicket>> ticket =
        service->Submit(std::move(req));
    if (!ticket.ok()) {
      if (ticket.status().IsBackpressure()) {
        // Open-loop: an overloaded service sheds this arrival.
        report.rejected += 1;
        continue;
      }
      return ticket.status().WithContext(
          StrFormat("submitting trace job %s", job.name.c_str()));
    }
    issued.push_back({std::move(*ticket), tenant});
  }
  for (const Issued& i : issued) {
    const JobOutcome& out = i.ticket->Wait();
    if (out.status.ok()) {
      report.completed += 1;
      report.completed_by_tenant[i.tenant] += 1;
      report.latencies_s.push_back(out.latency_s);
      report.shuffle_bytes += out.report.stats.shuffle.bytes_transferred;
      report.shuffle_reads += out.report.stats.shuffle.reads;
    } else {
      report.failed += 1;
    }
  }
  report.latency_p50 = Percentile(report.latencies_s, 0.50);
  report.latency_p99 = Percentile(report.latencies_s, 0.99);
  report.latency_p999 = Percentile(report.latencies_s, 0.999);
  return report;
}

}  // namespace swift
