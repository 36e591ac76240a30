// Compressed shuffle plane benchmark (DESIGN.md Sec. 17 / BENCH_PR10):
//
//   1. SWZ1 codec throughput + ratio on real TPC-H shuffle payloads
//      (SerializeColumnBatch wire bytes of each table) and on
//      incompressible noise (raw-fallback overhead). Best-of-N wall
//      timing.
//   2. Before/after end-to-end pair: the same TPC-H sort job over a
//      forced-Remote fabric with the compressed plane OFF vs ON —
//      shuffle bytes moved, spill bytes stored, wall time, and a
//      byte-identity check of the answers.
//
// Usage: bench_compress [scale_factor]    (default 0.01)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "common/compress.h"
#include "common/rng.h"
#include "exec/serde.h"
#include "exec/tpch.h"
#include "runtime/local_runtime.h"

namespace swift {
namespace {

constexpr int kTrials = 7;

template <typename Fn>
double BestSeconds(Fn&& fn) {
  double best = 1e300;
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::string TableWire(const std::shared_ptr<Table>& t) {
  Batch b;
  b.schema = t->schema;
  b.rows = t->rows;
  return SerializeColumnBatch(*ToColumnBatch(b));
}

void CodecRow(const std::string& name, const std::string& wire) {
  std::string frame;
  const double comp_s = BestSeconds([&] { frame = CompressFrame(wire); });
  std::string back;
  const double decomp_s = BestSeconds([&] {
    auto r = DecompressFrame(frame);
    if (!r.ok()) std::abort();
    back = std::move(*r);
  });
  if (back != wire) std::abort();
  const double mb = static_cast<double>(wire.size()) / (1024.0 * 1024.0);
  bench::Row({name, bench::F(mb, 2),
              bench::F(static_cast<double>(wire.size()) /
                           static_cast<double>(frame.size()),
                       2),
              bench::F(mb / comp_s, 0), bench::F(mb / decomp_s, 0)});
}

struct E2E {
  double wall_ms = 0;
  int64_t shuffle_bytes = 0;
  int64_t compressed_writes = 0;
  int64_t spill_stored = 0;
  int64_t spill_logical = 0;
  std::string result_bytes;
};

E2E RunTpchSort(double sf, bool compression, int64_t cache_budget) {
  LocalRuntimeConfig cfg;
  cfg.shuffle_compression = compression;
  cfg.force_shuffle_kind = ShuffleKind::kRemote;
  cfg.cache_memory_per_worker = cache_budget;
  cfg.spill_root = "/tmp/swift_bench_compress_spill";
  LocalRuntime rt(cfg);
  TpchConfig tpch;
  tpch.scale_factor = sf;
  if (!GenerateTpch(tpch, rt.catalog()).ok()) std::abort();
  const auto t0 = std::chrono::steady_clock::now();
  auto report = rt.RunSql(
      "SELECT l_orderkey, l_linenumber, l_extendedprice, l_shipdate, "
      "l_shipmode FROM tpch_lineitem ORDER BY l_orderkey, l_linenumber");
  const auto t1 = std::chrono::steady_clock::now();
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }
  E2E out;
  out.wall_ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;
  out.shuffle_bytes = report->stats.shuffle.bytes_transferred;
  out.compressed_writes = report->stats.shuffle.compressed_writes;
  out.result_bytes = SerializeColumnBatch(*ToColumnBatch(report->result));
  return out;
}

}  // namespace
}  // namespace swift

int main(int argc, char** argv) {
  using namespace swift;
  const double sf = argc > 1 ? std::atof(argv[1]) : 0.01;

  bench::Header("bench_compress",
                "SWZ1 codec + compressed shuffle plane (PR 10)",
                "n/a (infrastructure benchmark; Sec. 17 of DESIGN.md)");

  std::printf("\n[1] codec on TPC-H serde payloads, best-of-%d (sf %.3f)\n\n",
              kTrials, sf);
  bench::Row({"payload", "MB", "ratio", "comp_MB/s", "decomp_MB/s"});
  TpchConfig tpch;
  tpch.scale_factor = sf;
  CodecRow("lineitem", TableWire(TpchLineitem(tpch)));
  CodecRow("orders", TableWire(TpchOrders(tpch)));
  CodecRow("customer", TableWire(TpchCustomer(tpch)));
  CodecRow("partsupp", TableWire(TpchPartsupp(tpch)));
  {
    Rng rng(42);
    std::string noise(8 << 20, '\0');
    for (char& c : noise) c = static_cast<char>(rng.UniformInt(0, 255));
    CodecRow("noise_8MB", noise);
  }

  std::printf("\n[2] end-to-end TPC-H sort, forced Remote, OFF vs ON\n\n");
  bench::Row({"plane", "wall_ms", "shuffle_MB", "frames", "identical"});
  const int64_t budget = 256LL << 20;
  E2E off = RunTpchSort(sf, false, budget);
  E2E on = RunTpchSort(sf, true, budget);
  const bool identical = on.result_bytes == off.result_bytes;
  bench::Row({"off", bench::F(off.wall_ms, 1),
              bench::F(static_cast<double>(off.shuffle_bytes) / 1048576.0, 2),
              "0", "-"});
  bench::Row({"on", bench::F(on.wall_ms, 1),
              bench::F(static_cast<double>(on.shuffle_bytes) / 1048576.0, 2),
              std::to_string(on.compressed_writes),
              identical ? "yes" : "NO"});
  const double drop =
      100.0 * (1.0 - static_cast<double>(on.shuffle_bytes) /
                         static_cast<double>(off.shuffle_bytes));
  std::printf("\nshuffle bytes drop: %.1f%%  (acceptance: >= 30%%)\n", drop);
  if (!identical) {
    std::fprintf(stderr, "FATAL: results differ with compression on\n");
    return 1;
  }
  return 0;
}
