// Closed-loop TPC-H workloads: one client runs rounds of every runnable
// query, each job planned and run back to back on the 4-machine
// LocalRuntime, until the run's time is spent.
//
//   tpch-serial        sf 0.05, default config (every edge Direct)
//   tpch-remote-spill  sf 0.05, forced Remote, 1 MiB Cache Workers,
//                      private spill dir, compression on
//   tpch-faults        sf 0.01, forced Remote, a fresh runtime per round
//                      under a seeded FaultSchedule (crashes, flaky
//                      links, corruption, one machine kill)

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "common/clock.h"
#include "common/rng.h"
#include "sql/planner.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace e2e {
namespace {

struct LoopSpec {
  double sf = 0.05;
  bool remote_spill = false;
  bool faults = false;
};

LoopSpec SpecFor(const std::string& workload) {
  LoopSpec s;
  if (workload == "tpch-remote-spill") s.remote_spill = true;
  if (workload == "tpch-faults") {
    s.sf = 0.01;
    s.faults = true;
  }
  return s;
}

/// A spill root private to this process (mkdtemp), removed with
/// everything under it on destruction, so overlapping runs never share
/// Cache Worker spill files.
class SpillDir {
 public:
  explicit SpillDir(const std::string& parent) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    std::string tmpl = parent + "/e2ebench-spill-XXXXXX";
    if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~SpillDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  /// "" when the directory could not be created.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Attempts a task may use on tpch-faults. The runtime charges a task for
// every failure laid on it: its own crash, a corrupt or lost output that
// one of its consumers reports, and its retained output dying with a
// machine. Q9's wide scan tasks feed many consumers, so at this
// workload's fault rates the default budget of 3 ran out in about one
// round in 40, and the job failed instead of measuring recovery.
constexpr int kFaultTaskAttempts = 6;

LocalRuntimeConfig MakeConfig(const LoopSpec& spec,
                              const std::string& spill_root) {
  LocalRuntimeConfig cfg;
  cfg.machines = kMachines;
  cfg.worker_threads = kWorkerThreads;
  if (spec.remote_spill || spec.faults) {
    cfg.force_shuffle_kind = ShuffleKind::kRemote;
  }
  if (spec.faults) cfg.max_task_attempts = kFaultTaskAttempts;
  if (spec.remote_spill) {
    cfg.cache_memory_per_worker = 1 << 20;
    cfg.spill_root = spill_root;
    cfg.shuffle_compression = true;
  }
  return cfg;
}

/// Round `round`'s faults: crashes, flaky-link timeouts and corruption
/// at fixed rates, plus one kill of a drawn machine halfway through the
/// middle query of the suite. Victims are drawn afresh every round (from
/// the run seed and the round), so a run's per-query medians average
/// over many fault patterns instead of replaying one; the kill point is
/// placed by the suite's task counts, so every seed loses a machine in
/// the same query.
FaultSchedule MakeFaults(uint64_t seed, int round, const References& ref) {
  const std::vector<int> queries = RunnableTpchQueries();
  const int middle = queries[queries.size() / 2];
  int64_t kill_after = 0;
  for (int q : queries) {
    if (q == middle) break;
    kill_after += ref.tasks.at(q);
  }
  kill_after += ref.tasks.at(middle) / 2;

  Rng rng(seed * 1000003ULL + static_cast<uint64_t>(round));
  FaultSchedule fs;
  fs.seed = rng.Next();
  fs.task_crash_p = 0.05;
  fs.max_task_crashes = 1 << 10;
  fs.read_timeout_p = 0.05;
  fs.max_read_timeouts = 1 << 10;
  fs.corrupt_p = 0.02;
  fs.max_corruptions = 1 << 10;
  fs.kill_machine = static_cast<int>(rng.UniformInt(0, 3));
  fs.kill_after_task_starts = static_cast<int>(kill_after);
  return fs;
}

struct Round {
  double wall_s = 0.0;
  std::vector<JobSample> jobs;
  std::vector<JobRunStats> stats;
  std::vector<double> job_shuffle_mb;
  ShuffleServiceStats shuffle;  ///< round delta
  CacheWorkerStats cache;       ///< round delta
};

struct ShuffleSnapshot {
  ShuffleServiceStats service;
  CacheWorkerStats workers;
};

ShuffleSnapshot TakeShuffleSnapshot(LocalRuntime* rt,
                                    obs::TraceRecorder* tracer) {
  BenchSpan span(tracer, "shuffle.stats");
  ShuffleSnapshot s{rt->shuffle_service()->stats(),
                    WorkerStats(rt->shuffle_service())};
  span.Stop();
  return s;
}

/// Runs the 11 queries once, checking each result and taking shuffle
/// deltas around every job; the per-job deltas must add up to the
/// round's.
Round RunRound(LocalRuntime* rt, const References& ref,
               obs::TraceRecorder* tracer, RunResult* res) {
  Round round;
  const ShuffleSnapshot start = TakeShuffleSnapshot(rt, tracer);
  ShuffleServiceStats job_sum;
  CacheWorkerStats job_cache_sum;
  const auto t0 = SteadyClock::now();
  for (int q : RunnableTpchQueries()) {
    res->attempted += 1;
    const std::string label = "Q" + std::to_string(q);
    auto sql = TpchQuerySql(q);
    if (!sql.ok()) {
      res->Fail(label + ": " + sql.status().ToString(), false);
      continue;
    }
    const ShuffleSnapshot before = TakeShuffleSnapshot(rt, tracer);
    const double cpu0 = CpuSeconds();
    BenchSpan plan_span(tracer, "sql.plan");
    auto plan = PlanSql(*sql, *rt->catalog());
    double latency_s = plan_span.Stop();
    if (!plan.ok()) {
      res->Fail(label + " plan: " + plan.status().ToString(), false);
      continue;
    }
    JobRunOptions run_opts;
    run_opts.label = label;
    BenchSpan run_span(tracer, "runtime.run_plan");
    auto report = rt->RunPlan(*plan, run_opts);
    latency_s += run_span.Stop();
    const double cpu_s = CpuSeconds() - cpu0;
    const ShuffleSnapshot after = TakeShuffleSnapshot(rt, tracer);
    const ShuffleServiceStats job_shuffle =
        Combine(after.service, before.service, -1);
    job_sum = Combine(job_sum, job_shuffle, 1);
    job_cache_sum =
        Combine(job_cache_sum, Combine(after.workers, before.workers, -1), 1);
    if (!report.ok()) {
      res->Fail(label + " run: " + report.status().ToString(), false);
      continue;
    }
    const Status check = CheckResult(q, report->result, ref);
    if (!check.ok()) {
      res->Fail("wrong result: " + check.ToString(), true);
      continue;
    }
    round.jobs.push_back({q, latency_s * 1000.0, cpu_s});
    round.stats.push_back(report->stats);
    round.job_shuffle_mb.push_back(
        static_cast<double>(job_shuffle.bytes_transferred) / 1e6);
  }
  round.wall_s = SecondsSince(t0);
  const ShuffleSnapshot end = TakeShuffleSnapshot(rt, tracer);
  round.shuffle = Combine(end.service, start.service, -1);
  round.cache = Combine(end.workers, start.workers, -1);

  const ShuffleServiceStats& a = job_sum;
  const ShuffleServiceStats& b = round.shuffle;
  if (a.bytes_transferred != b.bytes_transferred ||
      a.direct_writes != b.direct_writes || a.local_writes != b.local_writes ||
      a.remote_writes != b.remote_writes || a.reads != b.reads ||
      job_cache_sum.spilled_bytes != round.cache.spilled_bytes ||
      job_cache_sum.reloads != round.cache.reloads) {
    res->Broken("per-job shuffle deltas do not add up to the round total");
  }
  return round;
}

}  // namespace

int RunTpchLoop(const Options& opts, RunResult* out) {
  const LoopSpec spec = SpecFor(opts.workload);
  SystemClock clock;
  obs::TraceRecorder recorder(&clock);
  obs::MetricsRegistry registry;
  obs::TraceRecorder* tracer = opts.trace ? &recorder : nullptr;
  SpillDir spill(opts.work_dir);
  if (spec.remote_spill && spill.path().empty()) {
    std::fprintf(stderr, "e2ebench: cannot create a spill directory\n");
    return 1;
  }

  std::unique_ptr<LocalRuntime> rt;
  const BuildRuntime build = [&](const Catalog* tables) {
    rt.reset();
    if (tables == nullptr) return;
    rt = std::make_unique<LocalRuntime>(MakeConfig(spec, spill.path() + "/rt0"));
    ShareTables(*tables, rt->catalog());
  };
  SetUpTimer timer(opts, spec.sf, tracer);
  auto setup = RunSetUp(&timer, build);
  if (!setup.ok()) {
    std::fprintf(stderr, "e2ebench: set-up: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  const References& ref = setup->ref;

  LocalRuntimeConfig traced_cfg = MakeConfig(spec, spill.path() + "/rt1");
  traced_cfg.tracer = tracer;
  traced_cfg.metrics = &registry;
  std::unique_ptr<LocalRuntime> traced_rt;
  if (opts.trace && !spec.faults) {
    traced_rt = std::make_unique<LocalRuntime>(traced_cfg);
    ShareTables(*setup->tables, traced_rt->catalog());
  }

  // Rounds alternate between the untraced and (with --trace 1) traced
  // runtime until the run's time is spent.
  std::vector<JobSample> untraced_jobs, traced_jobs;
  std::map<int, std::vector<double>> shuffle_mb_by_query;
  TracedPhase phase;
  phase.registry = &registry;
  int untraced_rounds = 0;
  int traced_rounds = 0;
  double peak_rss_mb = 0.0;  // highest over the untraced rounds
  const auto t0 = SteadyClock::now();
  for (int k = 0; SecondsSince(t0) < opts.seconds || untraced_rounds < 2 ||
                  (opts.trace && traced_rounds < 1);
       ++k) {
    const bool traced = opts.trace && k % 2 == 1;
    std::unique_ptr<LocalRuntime> fresh;
    LocalRuntime* target = traced ? traced_rt.get() : rt.get();
    if (spec.faults) {
      LocalRuntimeConfig cfg = traced ? traced_cfg : MakeConfig(spec, "");
      cfg.fault_schedule = MakeFaults(opts.seed, k, ref);
      fresh = std::make_unique<LocalRuntime>(cfg);
      ShareTables(*setup->tables, fresh->catalog());
      target = fresh.get();
    }
    if (!traced) ResetPeakRss();
    const Round round = RunRound(target, ref, traced ? tracer : nullptr, out);
    const double round_rss_mb = PeakRssMb();
    if (!traced) peak_rss_mb = std::max(peak_rss_mb, round_rss_mb);
    FaultInjectorStats injected;
    if (spec.faults) {
      BenchSpan span(traced ? tracer : nullptr, "fault.stats");
      injected = target->fault_injector()->stats();
      span.Stop();
      int64_t detected = 0;
      for (const JobRunStats& s : round.stats) detected += s.machine_failures;
      // The kill must fire every round; when every job came back, one of
      // them must have detected and handled it.
      const bool all_ok = round.jobs.size() == RunnableTpchQueries().size();
      if (injected.machine_kills != 1 || (all_ok && detected < 1)) {
        out->Broken("tpch-faults round without a handled machine kill");
      }
    }
    double round_cpu_s = 0.0;
    for (const JobSample& j : round.jobs) round_cpu_s += j.cpu_s;
    std::printf("round %d%s: %.3f s, cpu %.3f s, peak rss %.1f MB, %zu jobs ok, "
                "shuffle %.2f MB, spill %.2f MB\n",
                k, traced ? " (traced)" : "", round.wall_s, round_cpu_s,
                round_rss_mb, round.jobs.size(),
                static_cast<double>(round.shuffle.bytes_transferred) / 1e6,
                static_cast<double>(round.cache.spilled_bytes) / 1e6);
    if (!traced) {
      ++untraced_rounds;
      untraced_jobs.insert(untraced_jobs.end(), round.jobs.begin(), round.jobs.end());
      for (std::size_t i = 0; i < round.jobs.size(); ++i) {
        shuffle_mb_by_query[round.jobs[i].query].push_back(round.job_shuffle_mb[i]);
      }
      continue;
    }
    ++traced_rounds;
    traced_jobs.insert(traced_jobs.end(), round.jobs.begin(), round.jobs.end());
    phase.wall_s += round.wall_s;
    phase.job_stats.insert(phase.job_stats.end(), round.stats.begin(), round.stats.end());
    phase.shuffle = Combine(phase.shuffle, round.shuffle, 1);
    phase.cache = Combine(phase.cache, round.cache, 1);
    phase.cache_peak_mb = std::max(phase.cache_peak_mb,
                                   CachePeakMb(target->shuffle_service()));
    Accumulate(injected, &phase.faults);
  }

  traced_rt.reset();  // holds the tables, which the repetitions replace
  if (!RunSetUpAgain(&timer, build, &*setup).ok()) {
    out->Broken("set-up repetition failed");
  }

  std::printf("per query (untraced): median latency ms, median CPU ms, "
              "median shuffle MB\n");
  std::map<int, std::vector<double>> latency_by_query, cpu_by_query;
  for (const JobSample& j : untraced_jobs) {
    latency_by_query[j.query].push_back(j.latency_ms);
    cpu_by_query[j.query].push_back(j.cpu_s * 1000.0);
  }
  for (const auto& [q, lat] : latency_by_query) {
    std::printf("  Q%-3d %9.2f %9.2f %9.3f\n", q, Median(lat),
                Median(cpu_by_query[q]), Median(shuffle_mb_by_query[q]));
  }

  Metrics& m = out->metrics;
  timer.AddMetrics(&m);
  AddLatencyMetrics(untraced_jobs, &m);
  m["peak_rss_mb"] = peak_rss_mb;
  if (!opts.trace) return 0;

  Metrics traced;
  AddLatencyMetrics(traced_jobs, &traced);
  m["trace_overhead_frac"] = traced["suite_s"] / m["suite_s"] - 1.0;
  m["runtime.parallel_speedup"] = ref.suite_s / m["suite_s"];
  phase.rounds = static_cast<double>(traced_jobs.size()) /
                 static_cast<double>(RunnableTpchQueries().size());
  phase.spans = recorder.Spans();
  AddLayerMetrics(phase, &m);
  const Status codec = AddCodecMetrics(*setup->tables, tracer, &m);
  if (!codec.ok()) out->Broken(codec.ToString());
  ExportTrace(opts, recorder, registry);
  return 0;
}

}  // namespace e2e
}  // namespace swift
