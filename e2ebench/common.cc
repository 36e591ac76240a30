#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "bench.h"
#include "common/compress.h"
#include "common/macros.h"
#include "exec/column_batch.h"
#include "exec/serde.h"
#include "exec/tpch.h"
#include "sql/planner.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace e2e {

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double CpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

void RunResult::Fail(const std::string& what, bool wrong_result) {
  failed += 1;
  if (wrong_result) correct = false;
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
}

void RunResult::Broken(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

namespace {

bool IsShortQuery(int q) { return q == 6 || q == 13 || q == 14 || q == 19; }

}  // namespace

void AddLatencyMetrics(const std::vector<JobSample>& jobs, Metrics* m) {
  std::map<int, std::vector<double>> by_query, cpu_by_query;
  std::vector<double> all;
  std::vector<double> short_jobs;
  for (const JobSample& j : jobs) {
    by_query[j.query].push_back(j.latency_ms);
    cpu_by_query[j.query].push_back(j.cpu_s);
    all.push_back(j.latency_ms);
    if (IsShortQuery(j.query)) short_jobs.push_back(j.latency_ms);
  }
  double suite_ms = 0.0;
  double log_sum = 0.0;
  for (const auto& [q, lat] : by_query) {
    const double med = Median(lat);
    suite_ms += med;
    log_sum += std::log(std::max(med, 1e-6));
  }
  double suite_cpu_s = 0.0;
  for (const auto& [q, cpu] : cpu_by_query) suite_cpu_s += Median(cpu);
  (*m)["suite_s"] = suite_ms / 1000.0;
  (*m)["suite_cpu_s"] = suite_cpu_s;
  (*m)["query_geomean_ms"] =
      by_query.empty()
          ? 0.0
          : std::exp(log_sum / static_cast<double>(by_query.size()));
  (*m)["job_p50_ms"] = Quantile(all, 0.50);
  (*m)["job_p95_ms"] = Quantile(all, 0.95);
  (*m)["short_job_p95_ms"] = Quantile(short_jobs, 0.95);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
#ifdef __GLIBC__
  // Return the heap's free memory first: what set-up, the reference run
  // and earlier rounds left resident varied by up to 70 MB from process
  // to process and made the peak bimodal.
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  static bool warned = false;
  if (!clear && !warned) {
    warned = true;
    std::fprintf(stderr, "e2ebench: cannot reset VmHWM; peak_rss_mb covers "
                 "the whole process\n");
  }
}

void ShareTables(const Catalog& from, Catalog* to) {
  for (const std::string& name : from.TableNames()) {
    auto t = from.Lookup(name);
    if (t.ok()) to->Put(*t);
  }
}

namespace {

bool FloatClose(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

bool CellEqual(const Value& a, const Value& b) {
  if ((a.is_float64() || b.is_float64()) && a.is_numeric() &&
      b.is_numeric()) {
    return FloatClose(a.AsDouble(), b.AsDouble());
  }
  return a.Compare(b) == 0 && a.type() == b.type();
}

std::shared_ptr<Table> Lineitem(const Catalog& tables) {
  auto t = tables.Lookup("tpch_lineitem");
  return t.ok() ? *t : nullptr;
}

// Plain-loop references over the generated lineitem rows (column
// positions as in tests/tpch_queries_test.cc): 4 quantity, 5
// extendedprice, 6 discount, 8 returnflag, 9 linestatus, 10 shipdate,
// 11 shipmode.
Status CheckQ1(const Table& lineitem, const Batch& got) {
  struct Agg {
    double qty = 0, price = 0, disc_price = 0, disc = 0;
    int64_t n = 0;
  };
  std::map<std::pair<std::string, std::string>, Agg> ref;
  for (const Row& r : lineitem.rows) {
    if (r[10].str() > "1998-09-02") continue;
    Agg& a = ref[{r[8].str(), r[9].str()}];
    a.qty += r[4].float64();
    a.price += r[5].float64();
    a.disc_price += r[5].float64() * (1 - r[6].float64());
    a.disc += r[6].float64();
    a.n += 1;
  }
  if (got.num_rows() != ref.size()) {
    return Status::Internal("Q1 plain-loop reference: group count differs");
  }
  auto it = ref.begin();
  for (const Row& r : got.rows) {
    const Agg& a = it->second;
    const bool ok = r[0].str() == it->first.first &&
                    r[1].str() == it->first.second &&
                    FloatClose(r[2].AsDouble(), a.qty) &&
                    FloatClose(r[3].AsDouble(), a.price) &&
                    FloatClose(r[4].AsDouble(), a.disc_price) &&
                    FloatClose(r[5].AsDouble(), a.qty / a.n) &&
                    FloatClose(r[6].AsDouble(), a.disc / a.n) &&
                    r[7].int64() == a.n;
    if (!ok) return Status::Internal("Q1 plain-loop reference differs");
    ++it;
  }
  return Status::OK();
}

Status CheckQ6(const Table& lineitem, const Batch& got) {
  double want = 0;
  for (const Row& r : lineitem.rows) {
    const std::string& d = r[10].str();
    const double disc = r[6].float64();
    if (d >= "1994-01-01" && d < "1995-01-01" && disc >= 0.05 &&
        disc <= 0.07 && r[4].float64() < 24) {
      want += r[5].float64() * disc;
    }
  }
  if (got.num_rows() != 1 || !FloatClose(got.rows[0][0].AsDouble(), want)) {
    return Status::Internal("Q6 plain-loop reference differs");
  }
  return Status::OK();
}

Status CheckQ12(const Table& lineitem, const Batch& got) {
  std::map<std::string, int64_t> ref;
  for (const Row& r : lineitem.rows) {
    const std::string& mode = r[11].str();
    const std::string& d = r[10].str();
    if ((mode == "MAIL" || mode == "SHIP") && d >= "1994-01-01" &&
        d < "1995-01-01") {
      ++ref[mode];
    }
  }
  if (got.num_rows() != ref.size()) {
    return Status::Internal("Q12 plain-loop reference: group count differs");
  }
  auto it = ref.begin();
  for (const Row& r : got.rows) {
    if (r[0].str() != it->first || r[1].int64() != it->second) {
      return Status::Internal("Q12 plain-loop reference differs");
    }
    ++it;
  }
  return Status::OK();
}

Result<References> ComputeReferences(const Catalog& tables) {
  LocalRuntimeConfig cfg;
  cfg.machines = 1;
  cfg.worker_threads = 1;
  cfg.executors_per_machine = 256;
  LocalRuntime rt(cfg);
  ShareTables(tables, rt.catalog());
  References ref;
  const auto t0 = SteadyClock::now();
  for (int q : RunnableTpchQueries()) {
    SWIFT_ASSIGN_OR_RETURN(std::string sql, TpchQuerySql(q));
    SWIFT_ASSIGN_OR_RETURN(DistributedPlan plan, PlanSql(sql, *rt.catalog()));
    SWIFT_ASSIGN_OR_RETURN(JobRunReport report, rt.RunPlan(plan));
    ref.tasks[q] = report.stats.tasks_executed;
    ref.results[q] = std::move(report.result);
  }
  ref.suite_s = SecondsSince(t0);

  std::shared_ptr<Table> lineitem = Lineitem(tables);
  if (lineitem == nullptr) return Status::NotFound("tpch_lineitem");
  SWIFT_RETURN_NOT_OK(CheckQ1(*lineitem, ref.results[1]));
  SWIFT_RETURN_NOT_OK(CheckQ6(*lineitem, ref.results[6]));
  SWIFT_RETURN_NOT_OK(CheckQ12(*lineitem, ref.results[12]));
  return ref;
}

// Timed set-up repetitions in each of the two windows.
constexpr int kSetupReps = 6;

}  // namespace

SetUpTimer::SetUpTimer(const Options& opts, double sf,
                       obs::TraceRecorder* tracer)
    : tracer_(tracer) {
  tpch_.scale_factor = sf;
  tpch_.seed = opts.seed;
}

Result<std::unique_ptr<Catalog>> SetUpTimer::Rep(const BuildRuntime& build) {
  auto tables = std::make_unique<Catalog>();
  BenchSpan gen(tracer_, "setup.generate_tpch");
  SWIFT_RETURN_NOT_OK(GenerateTpch(tpch_, tables.get()));
  const double g = gen.Stop();
  BenchSpan runtime(tracer_, "setup.runtime");
  build(tables.get());
  const double r = runtime.Stop();
  if (warm_) {
    gen_s_.push_back(g);
    runtime_s_.push_back(r);
  }
  warm_ = true;
  return tables;
}

void SetUpTimer::AddMetrics(Metrics* m) const {
  std::vector<double> total_s;
  std::printf("setup: %zu repetitions after a warm-up, generation",
              gen_s_.size());
  for (std::size_t i = 0; i < gen_s_.size(); ++i) {
    std::printf(" %.3f", gen_s_[i]);
    total_s.push_back(gen_s_[i] + runtime_s_[i]);
  }
  std::printf(" s\n");
  (*m)["setup_s"] = Median(total_s);
  (*m)["setup.gen_s"] = Median(gen_s_);
  (*m)["setup.runtime_s"] = Median(runtime_s_);
}

namespace {

// `n` set-up repetitions, each replacing `tables`.
Status Repeat(SetUpTimer* timer, const BuildRuntime& build, int n,
              std::unique_ptr<Catalog>* tables) {
  for (int i = 0; i < n; ++i) {
    build(nullptr);
    tables->reset();  // never hold two generations at once
    SWIFT_ASSIGN_OR_RETURN(*tables, timer->Rep(build));
  }
  return Status::OK();
}

}  // namespace

Result<SetUp> RunSetUp(SetUpTimer* timer, const BuildRuntime& build) {
  SetUp out;
  SWIFT_RETURN_NOT_OK(Repeat(timer, build, 1 + kSetupReps, &out.tables));
  SWIFT_ASSIGN_OR_RETURN(out.ref, ComputeReferences(*out.tables));
  std::printf("reference: 1 machine x 1 thread suite %.3f s; "
              "Q1/Q6/Q12 plain-loop checks passed\n", out.ref.suite_s);
  return out;
}

Status RunSetUpAgain(SetUpTimer* timer, const BuildRuntime& build,
                     SetUp* setup) {
  return Repeat(timer, build, kSetupReps, &setup->tables);
}

Status CheckResult(int q, const Batch& got, const References& ref) {
  auto it = ref.results.find(q);
  if (it == ref.results.end()) {
    return Status::NotFound("no reference for Q" + std::to_string(q));
  }
  const Batch& want = it->second;
  if (got.num_rows() != want.num_rows()) {
    return Status::Internal("Q" + std::to_string(q) + ": " +
                            std::to_string(got.num_rows()) + " rows, want " +
                            std::to_string(want.num_rows()));
  }
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const Row& g = got.rows[i];
    const Row& w = want.rows[i];
    bool same = g.size() == w.size();
    for (std::size_t c = 0; same && c < w.size(); ++c) {
      same = CellEqual(g[c], w[c]);
    }
    if (!same) {
      return Status::Internal("Q" + std::to_string(q) + ": row " +
                              std::to_string(i) + " differs from reference");
    }
  }
  return Status::OK();
}

BenchSpan::BenchSpan(obs::TraceRecorder* tracer, const char* name)
    : tracer_(tracer), name_(name), t0_(SteadyClock::now()) {
  if (tracer_ != nullptr) start_us_ = tracer_->NowUs();
}

double BenchSpan::Stop() {
  const double s = SecondsSince(t0_);
  if (tracer_ != nullptr) {
    obs::Span span;
    span.name = name_;
    span.category = "bench";
    span.start_us = start_us_;
    span.dur_us = static_cast<int64_t>(s * 1e6);
    tracer_->Record(std::move(span));
  }
  return s;
}

namespace {

// Durations (ms) of the bench spans named `name`.
std::vector<double> BenchSpanMs(const std::vector<obs::Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const obs::Span& s : spans) {
    if (s.category == "bench" && s.name == name) {
      out.push_back(static_cast<double>(s.dur_us) / 1000.0);
    }
  }
  return out;
}

double PerRound(double total, double rounds) {
  return rounds > 0 ? total / rounds : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Pool queue wait of every task attempt: its span's start minus the
// start of the wave that dispatched it (the latest wave of the same job
// and stage that began before the task).
std::vector<double> TaskQueueWaitMs(const std::vector<obs::Span>& spans) {
  std::map<std::pair<int64_t, int>, std::vector<int64_t>> wave_starts;
  for (const obs::Span& s : spans) {
    if (s.category == "wave") wave_starts[{s.job, s.stage}].push_back(s.start_us);
  }
  for (auto& [key, starts] : wave_starts) std::sort(starts.begin(), starts.end());
  std::vector<double> out;
  for (const obs::Span& s : spans) {
    if (s.category != "task") continue;
    auto it = wave_starts.find({s.job, s.stage});
    if (it == wave_starts.end()) continue;
    auto w = std::upper_bound(it->second.begin(), it->second.end(), s.start_us);
    if (w == it->second.begin()) continue;
    out.push_back(static_cast<double>(s.start_us - *std::prev(w)) / 1000.0);
  }
  return out;
}

}  // namespace

void AddLayerMetrics(const TracedPhase& p, Metrics* m) {
  std::vector<double> task_ms;
  std::vector<double> job_ms;
  int64_t graphlets = 0;
  int64_t waves = 0;
  // Tasks that ran again after as many charged failures as the runtime's
  // default max_task_attempts allows: with the default, their jobs would
  // have failed (tpch-faults raises the budget; WORKLOADS.md says why).
  const int default_attempts = LocalRuntimeConfig{}.max_task_attempts;
  std::set<std::tuple<int64_t, int, int>> past_default_budget;
  for (const obs::Span& s : p.spans) {
    const double ms = static_cast<double>(s.dur_us) / 1000.0;
    if (s.category == "task") task_ms.push_back(ms);
    if (s.category == "task" && s.attempt >= default_attempts) {
      past_default_budget.insert({s.job, s.stage, s.task});
    }
    if (s.category == "job") job_ms.push_back(ms);
    if (s.category == "graphlet") ++graphlets;
    if (s.category == "wave") ++waves;
  }
  const double task_s =
      std::accumulate(task_ms.begin(), task_ms.end(), 0.0) / 1000.0;
  const double r = p.rounds;

  (*m)["sql.plan_ms"] = Median(BenchSpanMs(p.spans, "sql.plan"));
  (*m)["runtime.run_ms"] = Median(job_ms);
  (*m)["runtime.tasks"] = PerRound(static_cast<double>(task_ms.size()), r);
  (*m)["runtime.task_ms_p50"] = Quantile(task_ms, 0.50);
  (*m)["runtime.task_ms_p95"] = Quantile(task_ms, 0.95);
  (*m)["runtime.busy_frac"] = Ratio(task_s, p.wall_s * kWorkerThreads);

  const std::vector<double> queue_ms = TaskQueueWaitMs(p.spans);
  (*m)["scheduler.graphlets"] = PerRound(static_cast<double>(graphlets), r);
  (*m)["scheduler.waves"] = PerRound(static_cast<double>(waves), r);
  (*m)["scheduler.queue_wait_ms_p50"] = Quantile(queue_ms, 0.50);
  (*m)["scheduler.queue_wait_ms_p95"] = Quantile(queue_ms, 0.95);
  (*m)["scheduler.executor_idle_ratio"] =
      p.registry == nullptr
          ? 0.0
          : Mean(p.registry->SeriesValue("scheduler.graphlet_idle_ratio"));

  // Morsels the runtime's parallel morsel pipelines processed, as it
  // counts them itself.
  double morsels = 0.0;
  double morsel_rows = 0.0;
  if (p.registry != nullptr) {
    morsels = static_cast<double>(p.registry->CounterValue("exec.morsel.processed"));
    morsel_rows = static_cast<double>(p.registry->CounterValue("exec.morsel.rows"));
  }
  (*m)["exec.morsels"] = PerRound(morsels, r);
  (*m)["exec.morsel_rows"] = PerRound(morsel_rows, r);
  (*m)["exec.rows_per_s"] = Ratio(morsel_rows, task_s);

  const ShuffleServiceStats& sh = p.shuffle;
  (*m)["shuffle.mb"] = PerRound(static_cast<double>(sh.bytes_transferred) / 1e6, r);
  (*m)["shuffle.writes.direct"] = PerRound(static_cast<double>(sh.direct_writes), r);
  (*m)["shuffle.writes.local"] = PerRound(static_cast<double>(sh.local_writes), r);
  (*m)["shuffle.writes.remote"] = PerRound(static_cast<double>(sh.remote_writes), r);
  (*m)["shuffle.reads"] = PerRound(static_cast<double>(sh.reads), r);
  (*m)["shuffle.connections"] = PerRound(static_cast<double>(sh.tcp_connections), r);
  (*m)["shuffle.backpressure_waits"] =
      PerRound(static_cast<double>(sh.put_backpressure_waits), r);

  const CacheWorkerStats& cw = p.cache;
  (*m)["cache.spill_mb"] = PerRound(static_cast<double>(cw.spilled_bytes) / 1e6, r);
  (*m)["cache.spill_stored_mb"] =
      PerRound(static_cast<double>(cw.spill_stored_bytes) / 1e6, r);
  (*m)["cache.reloads"] = PerRound(static_cast<double>(cw.reloads), r);
  (*m)["cache.reload_frac"] =
      Ratio(static_cast<double>(cw.reloads), static_cast<double>(cw.gets));
  (*m)["cache.peak_mb"] = p.cache_peak_mb;

  (*m)["compress.ratio"] = Ratio(static_cast<double>(sh.compress_bytes_in),
                                 static_cast<double>(sh.compress_bytes_out));
  (*m)["compress.skipped_frac"] =
      Ratio(static_cast<double>(sh.compress_skipped),
            static_cast<double>(sh.compressed_writes + sh.compress_skipped));

  const FaultInjectorStats& f = p.faults;
  const int64_t injected = f.task_crashes + f.machine_kills + f.read_timeouts +
                           f.corruptions + f.frame_corruptions +
                           f.spill_write_faults + f.spill_read_faults +
                           f.disk_full_faults;
  double reruns = 0.0;
  double restart_equivalent = 0.0;
  double recoveries = 0.0;
  for (const JobRunStats& s : p.job_stats) {
    reruns += s.tasks_rerun;
    restart_equivalent += static_cast<double>(s.job_restart_equivalent_tasks);
    recoveries += s.recoveries;
  }
  (*m)["fault.injected"] = PerRound(static_cast<double>(injected), r);
  (*m)["fault.tasks_rerun"] = PerRound(reruns, r);
  (*m)["fault.restart_equivalent_tasks"] = PerRound(restart_equivalent, r);
  (*m)["fault.rerun_frac"] = Ratio(reruns, restart_equivalent);
  (*m)["fault.recoveries"] = PerRound(recoveries, r);
  (*m)["fault.tasks_past_default_budget"] =
      PerRound(static_cast<double>(past_default_budget.size()), r);
  (*m)["fault.read_retries"] = PerRound(static_cast<double>(sh.read_retries), r);
  (*m)["fault.failover_reads"] =
      PerRound(static_cast<double>(sh.failover_reads), r);
  (*m)["fault.detection_delay_s"] =
      p.registry == nullptr
          ? 0.0
          : p.registry->HistogramValue("fault.detection_delay_s").mean();
}

Status AddCodecMetrics(const Catalog& tables, obs::TraceRecorder* tracer,
                       Metrics* m) {
  constexpr std::size_t kSliceRows = 65536;
  constexpr int kReps = 5;
  double wire_bytes = 0.0;  // serde output, which is also codec input
  double enc_s = 0.0, dec_s = 0.0, comp_s = 0.0, decomp_s = 0.0;
  bool ok = true;
  for (const char* name : {"tpch_lineitem", "tpch_orders"}) {
    auto table = tables.Lookup(name);
    if (!table.ok()) continue;
    Batch slice;
    slice.schema = (*table)->schema;
    const std::size_t n = std::min(kSliceRows, (*table)->rows.size());
    slice.rows.assign((*table)->rows.begin(),
                      (*table)->rows.begin() + static_cast<std::ptrdiff_t>(n));
    auto columns = ToColumnBatch(slice);
    if (!columns.ok()) continue;
    std::vector<double> enc, dec, comp, decomp;
    std::string wire, frame;
    for (int i = 0; i < kReps; ++i) {
      BenchSpan s1(tracer, "serde.encode");
      wire = SerializeColumnBatch(*columns);
      enc.push_back(s1.Stop());
      BenchSpan s2(tracer, "serde.decode");
      auto back = DeserializeColumnBatch(wire);
      dec.push_back(s2.Stop());
      ok = ok && back.ok() && back->num_rows() == n;
      BenchSpan s3(tracer, "compress.encode");
      frame = CompressFrame(wire);
      comp.push_back(s3.Stop());
      BenchSpan s4(tracer, "compress.decode");
      auto raw = DecompressFrame(frame);
      decomp.push_back(s4.Stop());
      ok = ok && raw.ok() && *raw == wire;
    }
    wire_bytes += static_cast<double>(wire.size());
    enc_s += Median(enc);
    dec_s += Median(dec);
    comp_s += Median(comp);
    decomp_s += Median(decomp);
  }
  if (!ok) return Status::Internal("serde or codec round trip differs");
  const double mb = wire_bytes / 1e6;
  (*m)["serde.encode_mb_s"] = Ratio(mb, enc_s);
  (*m)["serde.decode_mb_s"] = Ratio(mb, dec_s);
  (*m)["compress.encode_mb_s"] = Ratio(mb, comp_s);
  (*m)["compress.decode_mb_s"] = Ratio(mb, decomp_s);
  return Status::OK();
}

ShuffleServiceStats Combine(const ShuffleServiceStats& a,
                            const ShuffleServiceStats& b, int sign) {
  ShuffleServiceStats d;
  d.tcp_connections = a.tcp_connections + sign * b.tcp_connections;
  d.direct_writes = a.direct_writes + sign * b.direct_writes;
  d.local_writes = a.local_writes + sign * b.local_writes;
  d.remote_writes = a.remote_writes + sign * b.remote_writes;
  d.reads = a.reads + sign * b.reads;
  d.bytes_transferred = a.bytes_transferred + sign * b.bytes_transferred;
  d.read_retries = a.read_retries + sign * b.read_retries;
  d.failover_reads = a.failover_reads + sign * b.failover_reads;
  d.put_backpressure_waits =
      a.put_backpressure_waits + sign * b.put_backpressure_waits;
  d.compressed_writes = a.compressed_writes + sign * b.compressed_writes;
  d.compress_bytes_in = a.compress_bytes_in + sign * b.compress_bytes_in;
  d.compress_bytes_out = a.compress_bytes_out + sign * b.compress_bytes_out;
  d.compress_skipped = a.compress_skipped + sign * b.compress_skipped;
  return d;
}

CacheWorkerStats Combine(const CacheWorkerStats& a, const CacheWorkerStats& b,
                         int sign) {
  CacheWorkerStats d;
  d.gets = a.gets + sign * b.gets;
  d.spilled_bytes = a.spilled_bytes + sign * b.spilled_bytes;
  d.reloads = a.reloads + sign * b.reloads;
  d.spill_stored_bytes = a.spill_stored_bytes + sign * b.spill_stored_bytes;
  return d;
}

void Accumulate(const FaultInjectorStats& s, FaultInjectorStats* into) {
  into->task_starts += s.task_starts;
  into->task_crashes += s.task_crashes;
  into->machine_kills += s.machine_kills;
  into->read_timeouts += s.read_timeouts;
  into->corruptions += s.corruptions;
  into->frame_corruptions += s.frame_corruptions;
  into->spill_write_faults += s.spill_write_faults;
  into->spill_read_faults += s.spill_read_faults;
  into->disk_full_faults += s.disk_full_faults;
}

CacheWorkerStats WorkerStats(ShuffleService* service) {
  CacheWorkerStats total = service->worker_stats();
  total.spill_stored_bytes = 0;
  for (int w = 0; w < service->machines(); ++w) {
    total.spill_stored_bytes += service->worker(w)->stats().spill_stored_bytes;
  }
  return total;
}

double CachePeakMb(ShuffleService* service) {
  int64_t peak = 0;
  for (int w = 0; w < service->machines(); ++w) {
    peak = std::max(peak, service->worker(w)->stats().peak_memory_in_use);
  }
  return static_cast<double>(peak) / 1e6;
}

void ExportTrace(const Options& opts, const obs::TraceRecorder& tracer,
                 const obs::MetricsRegistry& registry) {
  const std::string stem = opts.work_dir + "/e2ebench-" + opts.workload +
                           "-seed" + std::to_string(opts.seed);
  const Status st = tracer.ExportChromeTrace(stem + ".trace.json");
  std::ofstream(stem + ".metrics.json") << registry.ToJson() << "\n";
  std::printf("trace: %s.trace.json%s\n", stem.c_str(),
              st.ok() ? "" : " (export failed)");
}

}  // namespace e2e
}  // namespace swift
