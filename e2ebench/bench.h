// Shared pieces of the end-to-end benchmark binary: options, the run
// result, latency statistics, TPC-H tables and reference results, the
// benchmark's own spans, and the per-layer digests of a traced run.
#ifndef SWIFT_E2EBENCH_BENCH_H_
#define SWIFT_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/table.h"
#include "exec/tpch.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/local_runtime.h"
#include "shuffle/shuffle_service.h"

namespace swift {
namespace e2e {

using SteadyClock = std::chrono::steady_clock;

/// The measured cluster: 4 machines sharing 4 task threads, sized for a
/// 4-core host.
inline constexpr int kMachines = 4;
inline constexpr int kWorkerThreads = 4;

double SecondsSince(SteadyClock::time_point t0);
/// CPU time (user + system) this process has used, in seconds. Unlike
/// wall time it leaves out the time a thread waits for a core, which on
/// a shared host swings with other tenants' load.
double CpuSeconds();

struct Options {
  std::string workload;
  uint64_t seed = 20210421;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string git_sha = "unknown";
};

/// Metric values by name; units live in the catalog in main.cc.
using Metrics = std::map<std::string, double>;

struct RunResult {
  int64_t attempted = 0;
  /// Jobs that errored, were rejected, or returned a wrong result.
  int64_t failed = 0;
  /// False on any wrong result or broken accounting invariant.
  bool correct = true;
  Metrics metrics;

  /// Counts a failed job; a wrong answer also fails the run. Jobs that
  /// error out are counted but do not fail the run: failed_frac reports
  /// them.
  void Fail(const std::string& what, bool wrong_result);
  /// A broken invariant of the benchmark itself: fails the run.
  void Broken(const std::string& what);
};

// ---- statistics --------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
/// Unlike the nearest-rank service/quantiles.h Percentile, it moves
/// smoothly between samples, so a p95 over one run's few dozen to few
/// hundred jobs does not jump a whole sample from run to run.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// One completed job as its client saw it.
struct JobSample {
  int query = 0;
  double latency_ms = 0.0;
  /// Process CPU seconds the job used, all threads together.
  double cpu_s = 0.0;
};

/// Fills the suite metrics: suite_s and suite_cpu_s (sums over the
/// queries of each query's median latency and median CPU time),
/// query_geomean_ms, job_p50_ms, job_p95_ms and short_job_p95_ms (Q6,
/// Q13, Q14 and Q19 only).
void AddLatencyMetrics(const std::vector<JobSample>& jobs, Metrics* m);

/// VmHWM of this process in MB (0 when /proc is unavailable).
double PeakRssMb();
/// Trims the heap (glibc) and resets VmHWM to the resulting RSS
/// (/proc/self/clear_refs), so the next PeakRssMb() covers only what
/// ran in between, from a heap without free memory held back: set-up
/// and the reference run stay out of peak_rss_mb. Warns once when the
/// kernel does not allow the reset.
void ResetPeakRss();

// ---- tables and references ---------------------------------------------

/// Registers every table of `from` in `to` (shared, not copied).
void ShareTables(const Catalog& from, Catalog* to);

/// Per-query reference results from a 1-machine, 1-thread run.
struct References {
  std::map<int, Batch> results;
  double suite_s = 0.0;       ///< wall time of that serial suite
  std::map<int, int64_t> tasks;  ///< task executions per query
};

/// Builds the workload's runtime over `tables` (sharing them into its
/// catalog), or drops it when `tables` is null.
using BuildRuntime = std::function<void(const Catalog* tables)>;

/// Times set-up: TPC-H generation at `sf` from the run seed plus the
/// construction of the workload's runtime over the new tables. Single-
/// threaded speed on a shared host switches between levels about 1.5x
/// apart every few seconds, so set-up is repeated in two windows, before
/// and after the measurement, and setup_s is the median of both.
class SetUpTimer {
 public:
  SetUpTimer(const Options& opts, double sf, obs::TraceRecorder* tracer);

  /// One repetition: generates fresh tables and builds the runtime over
  /// them. Returns the tables.
  Result<std::unique_ptr<Catalog>> Rep(const BuildRuntime& build);

  /// setup_s, setup.gen_s and setup.runtime_s: medians of the timed
  /// repetitions (the first, which grows the heap, is not timed).
  void AddMetrics(Metrics* m) const;

 private:
  TpchConfig tpch_;
  obs::TraceRecorder* tracer_;
  bool warm_ = false;
  std::vector<double> gen_s_, runtime_s_;
};

/// The tables a workload runs on and their reference results.
struct SetUp {
  std::unique_ptr<Catalog> tables;
  References ref;
};

/// Set-up before the measurement: an untimed warm-up repetition and a
/// few timed ones, leaving the workload's runtime built over the last
/// tables; then the references: every runnable query on a 1-machine,
/// 1-thread runtime over those tables, with Q1/Q6/Q12 cross-checked
/// against plain loops.
Result<SetUp> RunSetUp(SetUpTimer* timer, const BuildRuntime& build);

/// The second window of set-up repetitions, once the measurement is
/// over (inside it, set-up would compete with the measured jobs and
/// inflate peak_rss_mb). Each repetition replaces `setup->tables`, so,
/// as in the first window, only one generation is alive at a time; the
/// same seed gives the same tables, so the references still hold. The
/// workload's runtime is left built over the last tables.
Status RunSetUpAgain(SetUpTimer* timer, const BuildRuntime& build,
                     SetUp* setup);

/// OK when `got` equals the reference row by row, float cells within
/// 1e-9 relative.
Status CheckResult(int q, const Batch& got, const References& ref);

// ---- the benchmark's own spans -------------------------------------------

/// Times one call into a layer and, when a recorder is installed,
/// records it as a "bench" span named `name` (e.g. "sql.plan").
class BenchSpan {
 public:
  BenchSpan(obs::TraceRecorder* tracer, const char* name);
  /// Ends the span and returns its duration in seconds.
  double Stop();

 private:
  obs::TraceRecorder* tracer_;
  const char* name_;
  int64_t start_us_ = 0;
  SteadyClock::time_point t0_;
};

// ---- per-layer digests of a traced run ----------------------------------

/// What a traced phase saw, normalized per round of 11 jobs.
struct TracedPhase {
  std::vector<obs::Span> spans;  ///< runtime + bench spans of the phase
  const obs::MetricsRegistry* registry = nullptr;
  double wall_s = 0.0;           ///< wall time the phase ran
  double rounds = 1.0;           ///< jobs / 11
  std::vector<JobRunStats> job_stats;
  ShuffleServiceStats shuffle;   ///< delta over the phase
  CacheWorkerStats cache;        ///< delta over the phase
  double cache_peak_mb = 0.0;    ///< max per-worker resident high-water
  FaultInjectorStats faults;     ///< summed over the phase's runtimes
};

/// sql, runtime, scheduler, exec, shuffle, cache, compress-count and
/// fault metrics of a traced phase.
void AddLayerMetrics(const TracedPhase& phase, Metrics* m);

/// compress.* and serde.* MB/s over slices of lineitem and orders;
/// an error when a round trip does not reproduce its input.
Status AddCodecMetrics(const Catalog& tables, obs::TraceRecorder* tracer,
                       Metrics* m);

/// a + sign * b, field by field, over the counters the benchmark reads
/// (other fields are left 0): sign -1 gives a delta, +1 a sum.
ShuffleServiceStats Combine(const ShuffleServiceStats& a,
                            const ShuffleServiceStats& b, int sign);
CacheWorkerStats Combine(const CacheWorkerStats& a, const CacheWorkerStats& b,
                         int sign);
void Accumulate(const FaultInjectorStats& s, FaultInjectorStats* into);
/// ShuffleService::worker_stats(), with the spill bytes stored on disk
/// summed from the workers: worker_stats() leaves the spill-compression
/// counters out of its sum.
CacheWorkerStats WorkerStats(ShuffleService* service);
/// Largest per-worker resident high-water mark of `service`, in MB.
double CachePeakMb(ShuffleService* service);

/// Writes the recorder's Chrome trace and the registry snapshot under
/// `work_dir` (best effort; prints where they went).
void ExportTrace(const Options& opts, const obs::TraceRecorder& tracer,
                 const obs::MetricsRegistry& registry);

// ---- workloads ------------------------------------------------------------

/// tpch-serial, tpch-remote-spill and tpch-faults: closed loops of one
/// client running rounds of all runnable TPC-H queries.
int RunTpchLoop(const Options& opts, RunResult* out);

/// service-open: an open loop of tenants through JobService.
int RunServiceOpen(const Options& opts, RunResult* out);

}  // namespace e2e
}  // namespace swift

#endif  // SWIFT_E2EBENCH_BENCH_H_
