#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/serde.h"
#include "exec/tpch.h"
#include "obs/metrics.h"
#include "runtime/local_runtime.h"
#include "service/job_service.h"
#include "sql/planner.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace {

// Concurrent execution correctness: N submitter threads over the shared
// runtime must produce results byte-identical to serial execution, must
// not deadlock under shuffle backpressure, and must not corrupt the
// runtime's previously single-job mutable state (fault injections,
// heartbeat clock).

void GenerateTinyTpch(Catalog* catalog) {
  TpchConfig tpch;
  tpch.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(tpch, catalog).ok());
}

// Shuffle-wire bytes of a result, the strictest equality serde offers.
std::string WireBytes(const Batch& b) {
  Result<ColumnBatch> columns = ToColumnBatch(b);
  EXPECT_TRUE(columns.ok()) << columns.status().ToString();
  return columns.ok() ? SerializeColumnBatch(*columns) : std::string();
}

std::map<int, std::string> SerialOracle() {
  LocalRuntimeConfig cfg;
  cfg.machines = 2;
  cfg.executors_per_machine = 16;
  cfg.worker_threads = 4;
  LocalRuntime rt(cfg);
  GenerateTinyTpch(rt.catalog());
  std::map<int, std::string> oracle;
  for (int q : RunnableTpchQueries()) {
    auto sql = TpchQuerySql(q);
    EXPECT_TRUE(sql.ok());
    auto result = rt.ExecuteSql(*sql);
    EXPECT_TRUE(result.ok()) << "Q" << q << ": " << result.status().ToString();
    if (result.ok()) oracle[q] = WireBytes(*result);
  }
  return oracle;
}

// Eight submitter threads race mixed TPC-H plans through one service;
// every result must match the bytes the same query produces on an
// otherwise idle runtime.
TEST(JobServiceConcurrency, ResultsByteIdenticalToSerialExecution) {
  const std::map<int, std::string> oracle = SerialOracle();
  ASSERT_FALSE(oracle.empty());

  JobServiceConfig cfg;
  cfg.max_concurrent_jobs = 8;
  cfg.admission_queue_capacity = 512;
  cfg.runtime.machines = 2;
  cfg.runtime.executors_per_machine = 16;
  cfg.runtime.worker_threads = 4;
  JobService service(cfg);
  GenerateTinyTpch(service.catalog());

  constexpr int kThreads = 8;
  const std::vector<int> queries = RunnableTpchQueries();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      // Each thread walks the query list from a different offset so the
      // in-flight mix stays heterogeneous.
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const int q = queries[(i + static_cast<std::size_t>(t) * 3) %
                              queries.size()];
        auto sql = TpchQuerySql(q);
        ASSERT_TRUE(sql.ok());
        JobRequest req;
        req.sql = *sql;
        req.tenant = "thread-" + std::to_string(t % 4);
        req.priority = t % 3;
        auto outcome = service.RunSync(std::move(req));
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        ASSERT_TRUE(outcome->status.ok())
            << "Q" << q << ": " << outcome->status.ToString();
        if (WireBytes(outcome->report.result) != oracle.at(q)) {
          mismatches.fetch_add(1);
          ADD_FAILURE() << "Q" << q << " bytes diverged under concurrency";
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  service.Drain();
  const JobService::Stats stats = service.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0);
}

// Jobs running at once each report only their own shuffle counters, so
// the per-job figures sum to the service-wide totals.
TEST(JobServiceConcurrency, PerJobShuffleBytesSumToServiceTotals) {
  JobServiceConfig cfg;
  cfg.max_concurrent_jobs = 4;
  cfg.runtime.machines = 2;
  cfg.runtime.executors_per_machine = 16;
  cfg.runtime.worker_threads = 4;
  cfg.runtime.force_shuffle_kind = ShuffleKind::kRemote;
  JobService service(cfg);
  GenerateTinyTpch(service.catalog());

  constexpr int kThreads = 4;
  const std::vector<int> queries = {3, 5, 9, 10};
  std::mutex mu;
  ShuffleServiceStats sum;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        auto sql = TpchQuerySql(queries[(i + static_cast<std::size_t>(t)) %
                                        queries.size()]);
        ASSERT_TRUE(sql.ok());
        JobRequest req;
        req.sql = *sql;
        req.tenant = "thread-" + std::to_string(t);
        auto outcome = service.RunSync(std::move(req));
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        ASSERT_TRUE(outcome->status.ok()) << outcome->status.ToString();
        const ShuffleServiceStats& job = outcome->report.stats.shuffle;
        EXPECT_GT(job.bytes_transferred, 0);
        std::lock_guard<std::mutex> lock(mu);
        sum.bytes_transferred += job.bytes_transferred;
        sum.remote_writes += job.remote_writes;
        sum.reads += job.reads;
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  service.Drain();
  const ShuffleServiceStats total =
      service.runtime()->shuffle_service()->stats();
  EXPECT_EQ(sum.bytes_transferred, total.bytes_transferred);
  EXPECT_EQ(sum.remote_writes, total.remote_writes);
  EXPECT_EQ(sum.reads, total.reads);
}

// The full concurrent mix under severe shuffle memory pressure: every
// writer fights the Cache Worker watermarks while eight jobs share the
// executor pool. Completion (not a hang) is the assertion — the PR 8
// forced-admission guard must keep draining even when every in-flight
// job is backpressured at once.
TEST(JobServiceConcurrency, NoDeadlockUnderShuffleBackpressure) {
  obs::MetricsRegistry reg;
  JobServiceConfig cfg;
  cfg.max_concurrent_jobs = 8;
  cfg.admission_queue_capacity = 512;
  cfg.runtime.machines = 2;
  cfg.runtime.executors_per_machine = 16;
  cfg.runtime.worker_threads = 4;
  cfg.runtime.metrics = &reg;
  cfg.runtime.force_shuffle_kind = ShuffleKind::kRemote;
  cfg.runtime.cache_memory_per_worker = 4 << 10;  // far below demand
  cfg.runtime.shuffle_put_retry_budget = 2;
  cfg.runtime.shuffle_put_wait_ms = 0.1;
  JobService service(cfg);
  GenerateTinyTpch(service.catalog());

  const std::vector<int> queries = RunnableTpchQueries();
  std::vector<std::shared_ptr<JobTicket>> tickets;
  for (int round = 0; round < 3; ++round) {
    for (int q : queries) {
      auto sql = TpchQuerySql(q);
      ASSERT_TRUE(sql.ok());
      JobRequest req;
      req.sql = *sql;
      req.tenant = "t" + std::to_string(q % 4);
      auto ticket = service.Submit(std::move(req));
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      tickets.push_back(std::move(*ticket));
    }
  }
  for (const auto& t : tickets) {
    const JobOutcome& out = t->Wait();
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  }
  EXPECT_GT(reg.CounterValue("shuffle.backpressure.rejections"), 0)
      << "budget was never under pressure: the test lost its teeth";
}

// A full admission queue rejects with kBackpressure instead of blocking
// the submitter or dropping the job silently.
TEST(JobServiceConcurrency, FullAdmissionQueueRejectsWithBackpressure) {
  JobServiceConfig cfg;
  cfg.max_concurrent_jobs = 1;
  cfg.admission_queue_capacity = 2;
  cfg.runtime.machines = 1;
  cfg.runtime.executors_per_machine = 16;
  cfg.runtime.worker_threads = 2;
  JobService service(cfg);
  GenerateTinyTpch(service.catalog());
  auto sql = TpchQuerySql(1);
  ASSERT_TRUE(sql.ok());

  int rejected = 0;
  std::vector<std::shared_ptr<JobTicket>> tickets;
  for (int i = 0; i < 32; ++i) {
    JobRequest req;
    req.sql = *sql;
    auto ticket = service.Submit(std::move(req));
    if (ticket.ok()) {
      tickets.push_back(std::move(*ticket));
    } else {
      ASSERT_TRUE(ticket.status().IsBackpressure())
          << ticket.status().ToString();
      rejected += 1;
    }
  }
  EXPECT_GT(rejected, 0) << "queue of 2 absorbed 32 instant submissions";
  for (const auto& t : tickets) {
    EXPECT_TRUE(t->Wait().status.ok());
  }
  const JobService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 32);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed + stats.rejected, 32);
}

// Regression: InjectFailureOnce entries are claimed per job. Before the
// multi-tenant service, RunPlan cleared the whole injection map when any
// job ended, so a concurrent job's pending injection could be wiped
// (never firing) or consumed by the wrong job (firing twice for one
// inject call). With claim semantics every injection fires exactly once.
TEST(JobServiceConcurrency, ConcurrentInjectionsFireExactlyOnce) {
  obs::MetricsRegistry reg;
  LocalRuntimeConfig cfg;
  cfg.machines = 2;
  cfg.executors_per_machine = 16;
  cfg.worker_threads = 4;
  cfg.metrics = &reg;
  LocalRuntime rt(cfg);
  GenerateTinyTpch(rt.catalog());
  auto sql = TpchQuerySql(1);
  ASSERT_TRUE(sql.ok());
  auto plan = PlanSql(*sql, *rt.catalog(), {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Pick distinct injectable task refs that every run of this plan
  // executes.
  std::vector<TaskRef> targets;
  for (StageId s : plan->dag.topological_order()) {
    if (targets.size() >= 4) break;
    targets.push_back(TaskRef{s, 0});
  }
  ASSERT_GE(targets.size(), 2u);

  std::vector<std::thread> runners;
  for (const TaskRef& target : targets) {
    runners.emplace_back([&, target] {
      rt.InjectFailureOnce(target, FailureKind::kProcessCrash);
      auto report = rt.RunPlan(*plan);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    });
  }
  for (std::thread& t : runners) t.join();

  // Each injection was claimed by exactly one job and fired exactly
  // once: one task failure (and one recovery re-run) per injection,
  // never lost to another job's end-of-run sweep.
  EXPECT_EQ(reg.CounterValue("runtime.tasks.failed"),
            static_cast<int64_t>(targets.size()));
  EXPECT_EQ(reg.CounterValue("runtime.tasks.started"),
            reg.CounterValue("runtime.tasks.completed") +
                reg.CounterValue("runtime.tasks.failed"));
}

}  // namespace
}  // namespace swift
