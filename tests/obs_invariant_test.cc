#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "exec/tpch.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/local_runtime.h"
#include "service/job_service.h"
#include "service/trace_replay.h"
#include "shuffle/shuffle_service.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace {

// Invariant tests over the observability layer (DESIGN.md Sec. 11):
// the metric catalog is only trustworthy if its counters obey the
// conservation laws of the system they measure. These tests run the
// real TPC-H suite on the real runtime and check the books balance.

std::unique_ptr<LocalRuntime> MakeRuntime(LocalRuntimeConfig cfg = {}) {
  auto rt = std::make_unique<LocalRuntime>(cfg);
  TpchConfig tpch;
  tpch.scale_factor = 0.001;
  EXPECT_TRUE(GenerateTpch(tpch, rt->catalog()).ok());
  return rt;
}

void RunSuite(LocalRuntime* rt) {
  for (int q : RunnableTpchQueries()) {
    SCOPED_TRACE("Q" + std::to_string(q));
    auto sql = TpchQuerySql(q);
    ASSERT_TRUE(sql.ok()) << sql.status().ToString();
    auto report = rt->RunSql(*sql);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
}

// Every shuffle byte written is eventually consumed by a first read or
// evicted unread — nothing leaks and nothing is double-counted. Exact
// once RunPlan's end-of-job RemoveJob has swept the retained slots.
TEST(ObsInvariant, ShuffleByteConservationOverTpchSuite) {
  obs::MetricsRegistry reg;
  LocalRuntimeConfig cfg;
  cfg.metrics = &reg;
  auto rt = MakeRuntime(cfg);
  RunSuite(rt.get());

  const int64_t written = reg.CounterValue("shuffle.bytes_written");
  const int64_t consumed = reg.CounterValue("shuffle.bytes_consumed");
  const int64_t evicted = reg.CounterValue("shuffle.bytes_evicted_unconsumed");
  EXPECT_GT(written, 0) << "suite ran without shuffling anything";
  EXPECT_EQ(written, consumed + evicted)
      << "written=" << written << " consumed=" << consumed
      << " evicted=" << evicted;
}

// The conservation law must also survive memory pressure: with the
// budget squeezed and spilling disabled, puts are refused and later
// forced through, and eviction runs quota-first — yet a rejected put
// never enters bytes_written (it is counted separately), so the books
// still balance exactly once the retained slots are swept.
TEST(ObsInvariant, ByteConservationHoldsUnderBackpressure) {
  obs::MetricsRegistry reg;
  LocalRuntimeConfig cfg;
  cfg.metrics = &reg;
  cfg.force_shuffle_kind = ShuffleKind::kRemote;
  cfg.cache_memory_per_worker = 4 << 10;  // tight: suite shuffles far more
  cfg.shuffle_put_retry_budget = 2;       // escalate to forced admits fast
  cfg.shuffle_put_wait_ms = 0.1;
  auto rt = MakeRuntime(cfg);
  RunSuite(rt.get());

  EXPECT_GT(reg.CounterValue("shuffle.backpressure.rejections"), 0)
      << "budget was never under pressure";
  EXPECT_GT(reg.CounterValue("shuffle.backpressure.forced_admits"), 0)
      << "retained-slot pressure never hit the deadlock guard";
  const int64_t written = reg.CounterValue("shuffle.bytes_written");
  const int64_t consumed = reg.CounterValue("shuffle.bytes_consumed");
  const int64_t evicted = reg.CounterValue("shuffle.bytes_evicted_unconsumed");
  const int64_t rejected =
      reg.CounterValue("shuffle.backpressure.rejected_bytes");
  EXPECT_GT(written, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(written, consumed + evicted)
      << "written=" << written << " consumed=" << consumed
      << " evicted=" << evicted << " (rejected=" << rejected
      << " must stay outside the law)";
  // Registry counters mirror the workers' own books.
  const CacheWorkerStats ws = rt->shuffle_service()->worker_stats();
  EXPECT_EQ(reg.CounterValue("shuffle.backpressure.rejections"),
            ws.backpressure_rejections);
  EXPECT_EQ(reg.CounterValue("shuffle.backpressure.rejected_bytes"),
            ws.bytes_rejected);
  EXPECT_EQ(reg.CounterValue("shuffle.backpressure.forced_admits"),
            ws.forced_admits);
  EXPECT_EQ(reg.CounterValue("shuffle.quota.evictions"), ws.quota_evictions);
  EXPECT_EQ(reg.CounterValue("shuffle.backpressure.waits"),
            rt->shuffle_service()->stats().put_backpressure_waits);
}

// Dispatch accounting: every task counted at dispatch shows up exactly
// once as completed or failed, even when a wave is cut short.
TEST(ObsInvariant, TaskSpansStartedEqualsCompletedPlusFailed) {
  obs::MetricsRegistry reg;
  LocalRuntimeConfig cfg;
  cfg.metrics = &reg;
  auto rt = MakeRuntime(cfg);
  RunSuite(rt.get());

  const int64_t started = reg.CounterValue("runtime.tasks.started");
  EXPECT_GT(started, 0);
  EXPECT_EQ(started, reg.CounterValue("runtime.tasks.completed") +
                         reg.CounterValue("runtime.tasks.failed"));
  EXPECT_EQ(reg.CounterValue("runtime.tasks.failed"), 0)
      << "clean run recorded failures";
}

// The same balance must survive the chaos engine: crashes, flaky
// links, bit flips, and a mid-suite machine loss all end in a failed
// or completed count, never a silently dropped dispatch.
TEST(ObsInvariant, InvariantsHoldUnderInjectedFaults) {
  FaultSchedule fs;
  fs.seed = 16;
  fs.task_crash_p = 0.12;
  fs.max_task_crashes = 8;
  fs.read_timeout_p = 0.2;
  fs.max_read_timeouts = 1 << 20;
  fs.corrupt_p = 0.15;
  fs.max_corruptions = 8;
  fs.kill_machine = 2;
  fs.kill_after_task_starts = 7;

  obs::MetricsRegistry reg;
  LocalRuntimeConfig cfg;
  cfg.fault_schedule = fs;
  cfg.metrics = &reg;
  auto rt = MakeRuntime(cfg);
  RunSuite(rt.get());

  EXPECT_EQ(reg.CounterValue("runtime.tasks.started"),
            reg.CounterValue("runtime.tasks.completed") +
                reg.CounterValue("runtime.tasks.failed"));
  EXPECT_GE(reg.CounterValue("runtime.tasks.failed"), 1)
      << "chaos schedule injected nothing";
  EXPECT_EQ(reg.CounterValue("shuffle.bytes_written"),
            reg.CounterValue("shuffle.bytes_consumed") +
                reg.CounterValue("shuffle.bytes_evicted_unconsumed"));
}

// Task spans carry attempt numbers; per task they must be dense
// 0..max — a gap means an attempt ran untraced, a duplicate means two
// executions shared an attempt id.
TEST(ObsInvariant, AttemptNumbersAreDensePerTask) {
  FaultSchedule fs;
  fs.seed = 11;
  fs.task_crash_p = 0.25;
  fs.max_task_crashes = 16;

  obs::MetricsRegistry reg;
  obs::TraceRecorder tracer;  // logical tick clock: deterministic
  LocalRuntimeConfig cfg;
  cfg.fault_schedule = fs;
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  auto rt = MakeRuntime(cfg);
  RunSuite(rt.get());

  std::map<std::tuple<int64_t, int, int>, std::set<int>> attempts;
  for (const obs::Span& s : tracer.Spans()) {
    if (s.category != "task") continue;
    ASSERT_GE(s.attempt, 0) << s.name;
    auto& set = attempts[{s.job, s.stage, s.task}];
    EXPECT_TRUE(set.insert(s.attempt).second)
        << s.name << " recorded attempt " << s.attempt << " twice";
  }
  ASSERT_FALSE(attempts.empty());
  int retried_tasks = 0;
  for (const auto& [key, set] : attempts) {
    // Dense: {0, 1, ..., max}.
    EXPECT_EQ(*set.begin(), 0);
    EXPECT_EQ(*set.rbegin(), static_cast<int>(set.size()) - 1);
    if (set.size() > 1) ++retried_tasks;
  }
  EXPECT_GE(retried_tasks, 1) << "no task was ever re-attempted";
}

// Connection accounting matches the paper's Sec. III-B formulas for an
// M x N shuffle over Y machines: Direct opens M*N task-to-task pairs,
// Local M + N + C(Y,2) via the Cache Workers, Remote M + N*Y.
TEST(ObsInvariant, ConnectionCountsMatchPaperFormulas) {
  constexpr int kWriters = 4;   // M
  constexpr int kReaders = 4;   // N
  constexpr int kMachines = 2;  // Y

  struct Case {
    ShuffleKind kind;
    const char* counter;
    int64_t want;
  };
  const Case cases[] = {
      {ShuffleKind::kDirect, "shuffle.connections.direct",
       kWriters * kReaders},  // M*N = 16
      {ShuffleKind::kLocal, "shuffle.connections.local",
       kWriters + kReaders +
           kMachines * (kMachines - 1) / 2},  // M+N+C(Y,2) = 9
      {ShuffleKind::kRemote, "shuffle.connections.remote",
       kWriters + kReaders * kMachines},  // M+N*Y = 12
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.counter);
    obs::MetricsRegistry reg;
    ShuffleService::Config cfg;
    cfg.machines = kMachines;
    cfg.metrics = &reg;
    ShuffleService service(cfg);

    for (int w = 0; w < kWriters; ++w) {
      for (int r = 0; r < kReaders; ++r) {
        ShuffleSlotKey key;
        key.job = 1;
        key.src_stage = 0;
        key.src_task = w;
        key.dst_stage = 1;
        key.dst_task = r;
        ASSERT_TRUE(service
                        .WritePartition(c.kind, key, std::string("payload"),
                                        /*writer_machine=*/w % kMachines,
                                        /*pipelined=*/false)
                        .ok());
      }
    }
    for (int r = 0; r < kReaders; ++r) {
      for (int w = 0; w < kWriters; ++w) {
        ShuffleSlotKey key;
        key.job = 1;
        key.src_stage = 0;
        key.src_task = w;
        key.dst_stage = 1;
        key.dst_task = r;
        auto got = service.ReadPartition(c.kind, key,
                                         /*reader_machine=*/r % kMachines,
                                         /*writer_machine=*/w % kMachines);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
      }
    }
    EXPECT_EQ(reg.CounterValue(c.counter), c.want);
    EXPECT_EQ(service.stats().tcp_connections, c.want)
        << "registry and stats struct disagree";
  }
}

// Thread-pool task conservation: every job accepted by Submit() runs to
// completion exactly once — after the runtime (whose destructor joins
// the pool) is gone, submitted == completed and the queue gauge reads
// empty. Catches lost wakeups, dropped queue entries, and double-runs
// in the pool instrumentation itself.
TEST(ObsInvariant, ThreadPoolTasksSubmittedEqualsCompleted) {
  obs::MetricsRegistry reg;
  {
    LocalRuntimeConfig cfg;
    cfg.metrics = &reg;
    auto rt = MakeRuntime(cfg);
    RunSuite(rt.get());
  }  // runtime destroyed: pool joined, no task can still be in flight

  const int64_t submitted = reg.CounterValue("threadpool.tasks.submitted");
  const int64_t completed = reg.CounterValue("threadpool.tasks.completed");
  EXPECT_GT(submitted, 0) << "suite ran without using the pool";
  EXPECT_EQ(submitted, completed);
  EXPECT_EQ(reg.GaugeValue("threadpool.queue_depth"), 0.0);
  // The idle-ratio instrument only ever reports values in [0, 1].
  const obs::HistogramSnapshot idle =
      reg.HistogramValue("threadpool.worker_idle_ratio");
  EXPECT_GT(idle.count, 0);
  EXPECT_GE(idle.min, 0.0);
  EXPECT_LE(idle.max, 1.0);
}

// Trace-replay soak: 240 Fig. 8 trace jobs over 4 tenants through the
// multi-tenant job service, open loop. The metric books must balance
// across the whole run: every submission is accounted for exactly once
// (completed, failed, or rejected), shuffle byte conservation holds
// across hundreds of interleaved jobs, task dispatch accounting stays
// exact, per-job shuffle counters sum to the service totals, and the
// thread pool ends the run with nothing in flight.
TEST(ObsInvariant, ServiceTraceReplaySoakKeepsBooksBalanced) {
  obs::MetricsRegistry reg;
  obs::TraceRecorder tracer;
  TraceReplayReport replay;
  ShuffleServiceStats service_shuffle;
  int64_t flood_shuffle_bytes = 0;
  int64_t flood_shuffle_reads = 0;
  constexpr int kJobs = 240;
  {
    JobServiceConfig cfg;
    cfg.max_concurrent_jobs = 4;
    cfg.admission_queue_capacity = kJobs;  // open loop, nothing shed
    cfg.runtime.machines = 2;
    cfg.runtime.executors_per_machine = 16;
    cfg.runtime.worker_threads = 4;
    cfg.runtime.metrics = &reg;
    cfg.runtime.tracer = &tracer;
    JobService service(cfg);
    TpchConfig tpch;
    tpch.scale_factor = 0.001;
    ASSERT_TRUE(GenerateTpch(tpch, service.catalog()).ok());

    TraceReplayConfig rc;
    rc.trace.num_jobs = kJobs;
    rc.seed = 20210419;
    rc.tenants = {"analytics", "reporting", "etl", "adhoc"};
    for (int q : RunnableTpchQueries()) {
      auto sql = TpchQuerySql(q);
      ASSERT_TRUE(sql.ok());
      rc.sql_pool.push_back(*sql);
    }
    auto got = ReplayTrace(&service, rc);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    replay = *got;

    // Overload coda: flood far past the queue bound so the rejection
    // path is part of the same books.
    auto sql = TpchQuerySql(1);
    ASSERT_TRUE(sql.ok());
    std::vector<std::shared_ptr<JobTicket>> flood;
    int flood_rejected = 0;
    for (int i = 0; i < 2 * kJobs; ++i) {
      JobRequest req;
      req.sql = *sql;
      req.tenant = "adhoc";
      auto ticket = service.Submit(std::move(req));
      if (ticket.ok()) {
        flood.push_back(std::move(*ticket));
      } else {
        ASSERT_TRUE(ticket.status().IsBackpressure())
            << ticket.status().ToString();
        flood_rejected += 1;
      }
    }
    EXPECT_GT(flood_rejected, 0) << "flood never hit admission control";
    for (const auto& t : flood) {
      const JobOutcome& out = t->Wait();
      ASSERT_TRUE(out.status.ok()) << out.status.ToString();
      flood_shuffle_bytes += out.report.stats.shuffle.bytes_transferred;
      flood_shuffle_reads += out.report.stats.shuffle.reads;
    }
    service.Drain();
    service_shuffle = service.runtime()->shuffle_service()->stats();
  }  // service destroyed: drivers joined, runtime pool joined

  // Per-job shuffle books: every job's own counters (ShuffleService::
  // job_stats, carried in its report) sum to the service-wide totals
  // across hundreds of interleaved jobs.
  EXPECT_GT(service_shuffle.bytes_transferred, 0);
  EXPECT_EQ(replay.shuffle_bytes + flood_shuffle_bytes,
            service_shuffle.bytes_transferred);
  EXPECT_EQ(replay.shuffle_reads + flood_shuffle_reads, service_shuffle.reads);

  // The replay itself: every trace job ran, across all four tenants.
  EXPECT_EQ(replay.submitted, kJobs);
  EXPECT_EQ(replay.submitted,
            replay.completed + replay.failed + replay.rejected);
  EXPECT_EQ(replay.failed, 0);
  EXPECT_GE(replay.completed, 200);
  EXPECT_EQ(replay.completed_by_tenant.size(), 4u)
      << "a tenant got zero jobs through";
  EXPECT_GT(replay.latency_p50, 0.0);
  EXPECT_GE(replay.latency_p99, replay.latency_p50);
  EXPECT_GE(replay.latency_p999, replay.latency_p99);

  // Service books: submitted == admitted-and-resolved + rejected.
  const int64_t submitted = reg.CounterValue("service.jobs.submitted");
  const int64_t completed = reg.CounterValue("service.jobs.completed");
  const int64_t failed = reg.CounterValue("service.jobs.failed");
  const int64_t rejected = reg.CounterValue("service.jobs.rejected");
  EXPECT_EQ(submitted, completed + failed + rejected);
  EXPECT_EQ(reg.CounterValue("service.jobs.admitted"), completed + failed);
  EXPECT_EQ(reg.GaugeValue("service.queue.depth"), 0.0);
  EXPECT_EQ(reg.GaugeValue("service.running"), 0.0);
  // Latency series carries one exact sample per admitted job.
  EXPECT_EQ(static_cast<int64_t>(
                reg.SeriesValue("service.job.latency_s").size()),
            completed + failed);

  // Runtime and shuffle conservation laws survive hundreds of
  // interleaved jobs.
  EXPECT_EQ(reg.CounterValue("shuffle.bytes_written"),
            reg.CounterValue("shuffle.bytes_consumed") +
                reg.CounterValue("shuffle.bytes_evicted_unconsumed"));
  EXPECT_EQ(reg.CounterValue("runtime.tasks.started"),
            reg.CounterValue("runtime.tasks.completed") +
                reg.CounterValue("runtime.tasks.failed"));
  EXPECT_EQ(reg.CounterValue("threadpool.tasks.submitted"),
            reg.CounterValue("threadpool.tasks.completed"));

  // Executor accounting: one job-level span per job the runtime ran,
  // tagged with a unique job id.
  std::set<int64_t> span_jobs;
  int64_t job_spans = 0;
  for (const obs::Span& s : tracer.Spans()) {
    if (s.category != "job") continue;
    job_spans += 1;
    EXPECT_TRUE(span_jobs.insert(s.job).second)
        << "job id " << s.job << " recorded two job spans";
  }
  EXPECT_EQ(job_spans, completed + failed);
}

}  // namespace
}  // namespace swift
