// service-open: independent tenants submit jobs through JobService on
// a fixed, seeded schedule (an open loop). Each job is timed from the
// moment it was due, so a generator stall or a growing queue shows up
// in every later job's latency.
//
// --trace 0: one phase at the nominal rate for the run's time.
// --trace 1: the nominal phase untraced and traced (half the time each,
// same arrivals), then a rate ladder for the sustained-rate figure.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/clock.h"
#include "common/rng.h"
#include "service/job_service.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace e2e {
namespace {

constexpr double kScaleFactor = 0.01;
// About 40% of the pool's capacity (≈25 jobs/s). The gated figures are
// CPU time and peak RSS; at 6 jobs/s heavy queries overlapped too rarely
// for the peak to repeat from seed to seed.
constexpr double kNominalRate = 10.0;  // jobs/s
constexpr double kLadderRates[] = {8, 12, 16, 20, 24};
constexpr double kLadderP95LimitMs = 500.0;
constexpr int kTenants = 4;
constexpr int kPriorityClasses = 3;

struct Arrival {
  double due_s = 0.0;  ///< offset from the phase start
  int query = 0;
  int tenant = 0;
  int priority = 0;
};

/// One arrival per 1/rate slot, at a seeded uniform offset inside its
/// slot; each run of 11 consecutive jobs is a seeded permutation of the
/// 11 queries, and tenant and priority class are uniform draws. Bounded
/// jitter keeps bursts (and so the latency tail) repeatable within one
/// run's few hundred jobs, which Poisson arrivals are not.
std::vector<Arrival> DrawArrivals(uint64_t seed, double rate, double seconds) {
  std::vector<int> queries = RunnableTpchQueries();
  Rng rng(seed);
  std::vector<Arrival> out;
  const auto n = static_cast<int64_t>(seconds * rate);
  for (int64_t i = 0; i < n; ++i) {
    const auto k = static_cast<int64_t>(queries.size());
    if (i % k == 0) {
      for (int64_t j = k - 1; j > 0; --j) {
        std::swap(queries[static_cast<std::size_t>(j)],
                  queries[static_cast<std::size_t>(rng.UniformInt(0, j))]);
      }
    }
    Arrival a;
    a.due_s = (static_cast<double>(i) + rng.Uniform()) / rate;
    a.query = queries[static_cast<std::size_t>(i % k)];
    a.tenant = static_cast<int>(rng.UniformInt(0, kTenants - 1));
    a.priority = static_cast<int>(rng.UniformInt(0, kPriorityClasses - 1));
    out.push_back(a);
  }
  return out;
}

JobServiceConfig ServiceConfig(obs::TraceRecorder* tracer,
                               obs::MetricsRegistry* registry) {
  JobServiceConfig cfg;
  cfg.max_concurrent_jobs = 4;
  cfg.enable_preemption = true;
  cfg.runtime.machines = kMachines;
  cfg.runtime.worker_threads = kWorkerThreads;
  cfg.runtime.tracer = tracer;
  cfg.runtime.metrics = registry;
  return cfg;
}

struct Phase {
  std::vector<JobSample> jobs;  ///< completed with the right answer
  std::vector<JobRunStats> stats;
  std::vector<double> late_ms;  ///< generator lateness per arrival
  std::vector<int> depth;       ///< queue depth sampled per arrival
  std::vector<double> queue_wait_ms;
  int64_t rejected = 0;
  int64_t errors = 0;  ///< jobs that returned an error status
  double wall_s = 0.0;

  int MaxDepth() const {
    return depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end());
  }

  /// Mean sampled depth over the last third of arrivals exceeds the
  /// first third's by more than two jobs.
  bool BacklogGrowing() const {
    const std::size_t third = depth.size() / 3;
    if (third == 0) return false;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
      first += depth[i];
      last += depth[depth.size() - 1 - i];
    }
    return (last - first) / static_cast<double>(third) > 2.0;
  }
};

/// Submits `arrivals` on schedule, then waits for every job and checks
/// its answer. A nominal phase counts its jobs in the run result; a
/// ladder rung only fails the run on a wrong answer.
Phase RunPhase(JobService* svc, const std::vector<Arrival>& arrivals,
               const References& ref, obs::TraceRecorder* tracer,
               bool nominal, RunResult* res) {
  struct Pending {
    const Arrival* arrival;
    std::shared_ptr<JobTicket> ticket;
    double late_ms;
  };
  std::map<int, std::string> sql;
  for (int q : RunnableTpchQueries()) sql[q] = TpchQuerySql(q).ValueOr("");

  Phase phase;
  std::vector<Pending> pending;
  const double cpu0 = CpuSeconds();
  const auto start = SteadyClock::now() + std::chrono::milliseconds(20);
  for (const Arrival& a : arrivals) {
    const auto due = start + std::chrono::duration_cast<SteadyClock::duration>(
                                 std::chrono::duration<double>(a.due_s));
    std::this_thread::sleep_until(due);
    const double late_ms =
        std::chrono::duration<double, std::milli>(SteadyClock::now() - due)
            .count();
    phase.late_ms.push_back(late_ms);
    phase.depth.push_back(svc->stats().queue_depth);
    JobRequest req;
    req.sql = sql[a.query];
    req.tenant = "tenant" + std::to_string(a.tenant);
    req.priority = a.priority;
    req.label = "Q" + std::to_string(a.query);
    if (nominal) res->attempted += 1;
    BenchSpan submit(tracer, "service.submit");
    auto ticket = svc->Submit(std::move(req));
    submit.Stop();
    if (!ticket.ok()) {
      phase.rejected += 1;
      if (nominal) res->Fail("rejected: " + ticket.status().ToString(), false);
      continue;
    }
    pending.push_back({&a, *ticket, late_ms});
  }
  for (const Pending& p : pending) {
    BenchSpan wait(tracer, "service.wait");
    const JobOutcome& out = p.ticket->Wait();
    wait.Stop();
    const int q = p.arrival->query;
    if (!out.status.ok()) {
      phase.errors += 1;
      const std::string what = "Q" + std::to_string(q) + ": " + out.status.ToString();
      if (nominal) res->Fail(what, false);
      continue;
    }
    const Status check = CheckResult(q, out.report.result, ref);
    if (!check.ok()) {
      if (nominal) res->failed += 1;
      res->Broken("wrong result: " + check.ToString());
      continue;
    }
    phase.jobs.push_back({q, p.late_ms + out.latency_s * 1000.0, 0.0});
    phase.stats.push_back(out.report.stats);
    phase.queue_wait_ms.push_back(out.queue_wait_s * 1000.0);
  }
  phase.wall_s = SecondsSince(start);
  // Jobs share the pool, so one job's CPU cannot be told apart from its
  // neighbours': each is charged the phase's CPU time per completed job.
  const double cpu_per_job =
      (CpuSeconds() - cpu0) /
      static_cast<double>(std::max<std::size_t>(1, phase.jobs.size()));
  for (JobSample& j : phase.jobs) j.cpu_s = cpu_per_job;
  return phase;
}

void PrintPhase(const char* name, double rate, const Phase& p) {
  Metrics m;
  AddLatencyMetrics(p.jobs, &m);
  std::printf("%s @ %.0f jobs/s: %zu jobs ok, %lld rejected, p50 %.1f ms, "
              "p95 %.1f ms, cpu %.1f ms/job, generator late p95 %.2f ms, "
              "max queue %d%s\n",
              name, rate, p.jobs.size(), static_cast<long long>(p.rejected),
              m["job_p50_ms"], m["job_p95_ms"],
              p.jobs.empty() ? 0.0 : p.jobs[0].cpu_s * 1000.0,
              Quantile(p.late_ms, 0.95),
              p.MaxDepth(), p.BacklogGrowing() ? ", backlog growing" : "");
}

}  // namespace

int RunServiceOpen(const Options& opts, RunResult* out) {
  SystemClock clock;
  obs::TraceRecorder recorder(&clock);
  obs::MetricsRegistry registry;
  obs::TraceRecorder* tracer = opts.trace ? &recorder : nullptr;

  std::unique_ptr<JobService> svc;
  const BuildRuntime build = [&](const Catalog* tables) {
    svc.reset();
    if (tables == nullptr) return;
    svc = std::make_unique<JobService>(ServiceConfig(nullptr, nullptr));
    ShareTables(*tables, svc->catalog());
  };
  SetUpTimer timer(opts, kScaleFactor, tracer);
  auto setup = RunSetUp(&timer, build);
  if (!setup.ok()) {
    std::fprintf(stderr, "e2ebench: set-up: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  const References& ref = setup->ref;

  Metrics& m = out->metrics;
  const double nominal_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const std::vector<Arrival> arrivals =
      DrawArrivals(opts.seed, kNominalRate, nominal_s);
  ResetPeakRss();
  const Phase nominal = RunPhase(svc.get(), arrivals, ref, nullptr, true, out);
  m["peak_rss_mb"] = PeakRssMb();
  PrintPhase("nominal", kNominalRate, nominal);
  if (!RunSetUpAgain(&timer, build, &*setup).ok()) {
    out->Broken("set-up repetition failed");
  }
  const Catalog& tables = *setup->tables;
  timer.AddMetrics(&m);
  AddLatencyMetrics(nominal.jobs, &m);
  if (!opts.trace) return 0;

  // Traced phase: the same arrivals on a service with the runtime's
  // tracer and metrics installed.
  JobService traced_svc(ServiceConfig(tracer, &registry));
  ShareTables(tables, traced_svc.catalog());
  ShuffleService* shuffle = traced_svc.runtime()->shuffle_service();
  const ShuffleServiceStats shuffle0 = shuffle->stats();
  const CacheWorkerStats cache0 = WorkerStats(shuffle);
  const int64_t preempt0 = traced_svc.arbiter()->preemptions();
  const Phase traced = RunPhase(&traced_svc, arrivals, ref, tracer, true, out);
  PrintPhase("traced", kNominalRate, traced);

  TracedPhase phase;
  phase.registry = &registry;
  phase.wall_s = traced.wall_s;
  phase.rounds = static_cast<double>(traced.jobs.size()) /
                 static_cast<double>(RunnableTpchQueries().size());
  phase.job_stats = traced.stats;
  phase.shuffle = Combine(shuffle->stats(), shuffle0, -1);
  phase.cache = Combine(WorkerStats(shuffle), cache0, -1);
  phase.cache_peak_mb = CachePeakMb(shuffle);
  phase.spans = recorder.Spans();
  // JobService plans inside its drivers, where no bench span can reach:
  // sql.plan_ms stays 0 on this workload.
  AddLayerMetrics(phase, &m);
  const Status codec = AddCodecMetrics(tables, tracer, &m);
  if (!codec.ok()) out->Broken(codec.ToString());

  Metrics traced_latency;
  AddLatencyMetrics(traced.jobs, &traced_latency);
  m["trace_overhead_frac"] = traced_latency["suite_s"] / m["suite_s"] - 1.0;
  m["runtime.parallel_speedup"] = ref.suite_s / m["suite_s"];
  std::vector<double> gang_ms;
  for (double s : registry.SeriesValue("service.gang.wait_s")) {
    gang_ms.push_back(s * 1000.0);
  }
  m["service.queue_wait_ms_p50"] = Quantile(traced.queue_wait_ms, 0.50);
  m["service.queue_wait_ms_p95"] = Quantile(traced.queue_wait_ms, 0.95);
  m["service.gang_wait_ms_p50"] = Quantile(gang_ms, 0.50);
  m["service.gang_wait_ms_p95"] = Quantile(gang_ms, 0.95);
  m["service.preemptions"] =
      static_cast<double>(traced_svc.arbiter()->preemptions() - preempt0) /
      phase.rounds;
  m["service.rejected"] = static_cast<double>(traced.rejected) / phase.rounds;
  m["service.backlog_max"] = traced.MaxDepth();
  m["service.gen_late_ms_p95"] = Quantile(traced.late_ms, 0.95);

  // Rate ladder on the untraced service: the highest rate whose p95
  // stays within the limit with no rejection, no error and no growing
  // backlog. RunPhase waits for every job, so each rung starts idle.
  double sustained = 0.0;
  const double rung_s = std::max(2.0, opts.seconds / 5);
  for (double rate : kLadderRates) {
    const Phase rung =
        RunPhase(svc.get(),
                 DrawArrivals(opts.seed + static_cast<uint64_t>(rate), rate, rung_s),
                 ref, nullptr, false, out);
    PrintPhase("ladder", rate, rung);
    Metrics lm;
    AddLatencyMetrics(rung.jobs, &lm);
    if (lm["job_p95_ms"] > kLadderP95LimitMs || rung.rejected > 0 ||
        rung.errors > 0 || rung.BacklogGrowing()) {
      break;
    }
    sustained = rate;
  }
  m["service.sustained_jobs_s"] = sustained;
  ExportTrace(opts, recorder, registry);
  return 0;
}

}  // namespace e2e
}  // namespace swift
