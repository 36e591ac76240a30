// swift_e2ebench: one workload of the end-to-end benchmark on the real
// in-process cluster (4 machines x 4 worker threads).
//
//   swift_e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                  [--work-dir DIR] [--git-sha SHA]
//
// Workloads: tpch-serial, tpch-remote-spill, service-open, tpch-faults
// (WORKLOADS.md says why each exists and which layers it exercises).
// Human-readable lines come first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). Exits 1 when any job returned a wrong answer.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace swift {
namespace e2e {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric the benchmark reports, in output order.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"suite_cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

// The wall-clock latencies are end-to-end figures demoted here because
// on a shared 4-vCPU host they do not repeat within a tenth run to run
// (WORKLOADS.md gives the spreads).
const std::vector<MetricDef> kPerLayer = {
    {"suite_s", "s"},
    {"query_geomean_ms", "ms"},
    {"job_p95_ms", "ms"},
    {"job_p50_ms", "ms"},
    {"short_job_p95_ms", "ms"},
    {"sql.plan_ms", "ms"},
    {"runtime.run_ms", "ms"},
    {"runtime.tasks", "count"},
    {"runtime.task_ms_p50", "ms"},
    {"runtime.task_ms_p95", "ms"},
    {"runtime.busy_frac", "frac"},
    {"runtime.parallel_speedup", "x"},
    {"scheduler.graphlets", "count"},
    {"scheduler.waves", "count"},
    {"scheduler.queue_wait_ms_p50", "ms"},
    {"scheduler.queue_wait_ms_p95", "ms"},
    {"scheduler.executor_idle_ratio", "frac"},
    {"exec.morsels", "count"},
    {"exec.morsel_rows", "count"},
    {"exec.rows_per_s", "1/s"},
    {"shuffle.mb", "MB"},
    {"shuffle.writes.direct", "count"},
    {"shuffle.writes.local", "count"},
    {"shuffle.writes.remote", "count"},
    {"shuffle.reads", "count"},
    {"shuffle.connections", "count"},
    {"shuffle.backpressure_waits", "count"},
    {"cache.spill_mb", "MB"},
    {"cache.spill_stored_mb", "MB"},
    {"cache.reloads", "count"},
    {"cache.reload_frac", "frac"},
    {"cache.peak_mb", "MB"},
    {"compress.ratio", "x"},
    {"compress.skipped_frac", "frac"},
    {"compress.encode_mb_s", "MB/s"},
    {"compress.decode_mb_s", "MB/s"},
    {"serde.encode_mb_s", "MB/s"},
    {"serde.decode_mb_s", "MB/s"},
    {"fault.injected", "count"},
    {"fault.tasks_rerun", "count"},
    {"fault.restart_equivalent_tasks", "count"},
    {"fault.rerun_frac", "frac"},
    {"fault.recoveries", "count"},
    {"fault.tasks_past_default_budget", "count"},
    {"fault.read_retries", "count"},
    {"fault.failover_reads", "count"},
    {"fault.detection_delay_s", "s"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p95", "ms"},
    {"service.gang_wait_ms_p50", "ms"},
    {"service.gang_wait_ms_p95", "ms"},
    {"service.preemptions", "count"},
    {"service.rejected", "count"},
    {"service.backlog_max", "count"},
    {"service.gen_late_ms_p95", "ms"},
    {"service.sustained_jobs_s", "1/s"},
    {"setup.gen_s", "s"},
    {"setup.runtime_s", "s"},
    {"failed_frac", "frac"},
    {"trace_overhead_frac", "frac"},
};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void PrintHost(const Options& opts) {
  std::printf(
      "host {\"nproc\": %u, \"cpu\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"git_sha\": %s, \"sanitized\": false, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
      JsonString(SWIFT_E2E_BUILD_TYPE).c_str(), JsonString(__VERSION__).c_str(),
      JsonString(opts.git_sha).c_str(),
      JsonString(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: swift_e2ebench --workload "
               "{tpch-serial|tpch-remote-spill|service-open|tpch-faults} "
               "[--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR] "
               "[--git-sha SHA]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--git-sha") {
      opts.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.seconds <= 0) return Usage("--seconds must be positive");

  PrintHost(opts);
  const std::string build_type = SWIFT_E2E_BUILD_TYPE;
  // The package has no sanitizer option, so only the build type can
  // make its timings meaningless.
  if (build_type == "Debug" || build_type.empty()) {
    std::fprintf(stderr, "e2ebench: refusing to report timings from a %s "
                 "build\n", build_type.empty() ? "unoptimized" : build_type.c_str());
    return 3;
  }

  RunResult res;
  int rc = 0;
  if (opts.workload == "service-open") {
    rc = RunServiceOpen(opts, &res);
  } else if (opts.workload == "tpch-serial" ||
             opts.workload == "tpch-remote-spill" ||
             opts.workload == "tpch-faults") {
    rc = RunTpchLoop(opts, &res);
  } else {
    return Usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  if (rc != 0) return rc;
  res.metrics["failed_frac"] =
      res.attempted > 0 ? static_cast<double>(res.failed) /
                              static_cast<double>(res.attempted)
                        : 0.0;

  const std::vector<MetricDef>& defs = opts.trace ? kPerLayer : kEndToEnd;
  std::string json;
  for (const MetricDef& d : defs) {
    double v = res.metrics.count(d.name) ? res.metrics[d.name] : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    if (!opts.trace && v <= 0.0) {
      std::fprintf(stderr, "e2ebench: end-to-end metric %s is %g\n", d.name, v);
      res.correct = false;
    }
    std::printf("%-34s %16.6f %s\n", d.name, v, d.unit);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", d.name, v, d.unit);
    json += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              res.correct ? "true" : "false",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed), json.c_str());
  return res.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace swift

int main(int argc, char** argv) { return swift::e2e::Main(argc, argv); }
