// Golden TPC-H result digests: every runnable query at sf 0.01, in both
// planner modes (sort-based and hash-based operators) and with both the
// default adaptive shuffle and forced Remote shuffle. Each run's result
// batch is pinned by a CRC-32C of its shuffle-wire encoding, so any
// change to output order, group order, NULL handling, value types or
// float summation order shows up as a digest mismatch.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>

#include "common/crc32.h"
#include "common/string_util.h"
#include "exec/serde.h"
#include "exec/tpch.h"
#include "runtime/local_runtime.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace {

// (query, sort_mode, forced Remote) -> CRC-32C of the result's wire bytes.
using GoldenKey = std::tuple<int, bool, bool>;

const std::map<GoldenKey, uint32_t>& Golden() {
  static const std::map<GoldenKey, uint32_t> kGolden = {
      {{1, true, false}, 0xb614e7e9},
      {{1, true, true}, 0xb614e7e9},
      {{1, false, false}, 0xb614e7e9},
      {{1, false, true}, 0xb614e7e9},
      {{3, true, false}, 0x07ddadfd},
      {{3, true, true}, 0x07ddadfd},
      {{3, false, false}, 0x07ddadfd},
      {{3, false, true}, 0x07ddadfd},
      {{5, true, false}, 0x8bc7516f},
      {{5, true, true}, 0x8bc7516f},
      {{5, false, false}, 0xcb8ba021},
      {{5, false, true}, 0xcb8ba021},
      {{6, true, false}, 0x06d905ed},
      {{6, true, true}, 0x06d905ed},
      {{6, false, false}, 0x06d905ed},
      {{6, false, true}, 0x06d905ed},
      {{9, true, false}, 0xdc815192},
      {{9, true, true}, 0xdc815192},
      {{9, false, false}, 0x45de1a84},
      {{9, false, true}, 0x45de1a84},
      {{10, true, false}, 0x28a86680},
      {{10, true, true}, 0x28a86680},
      {{10, false, false}, 0x28a86680},
      {{10, false, true}, 0x28a86680},
      {{12, true, false}, 0xb091dbb2},
      {{12, true, true}, 0xb091dbb2},
      {{12, false, false}, 0xb091dbb2},
      {{12, false, true}, 0xb091dbb2},
      {{13, true, false}, 0xcb4a67d7},
      {{13, true, true}, 0xcb4a67d7},
      {{13, false, false}, 0xcb4a67d7},
      {{13, false, true}, 0xcb4a67d7},
      {{14, true, false}, 0xc040ed28},
      {{14, true, true}, 0xc040ed28},
      {{14, false, false}, 0x572508e4},
      {{14, false, true}, 0x572508e4},
      {{18, true, false}, 0x7b2b5e99},
      {{18, true, true}, 0x7b2b5e99},
      {{18, false, false}, 0x7b2b5e99},
      {{18, false, true}, 0x7b2b5e99},
      {{19, true, false}, 0x2cd0f07c},
      {{19, true, true}, 0x2cd0f07c},
      {{19, false, false}, 0x95bcacf3},
      {{19, false, true}, 0x95bcacf3},
  };
  return kGolden;
}

// CRC-32C of the encoded result without its trailing 4-byte CRC
// footer: a CRC taken over a message that already ends in its own CRC
// is the same constant for every message.
uint32_t Digest(const Batch& result) {
  Result<ColumnBatch> columns = ToColumnBatch(result);
  EXPECT_TRUE(columns.ok()) << columns.status().ToString();
  if (!columns.ok()) return 0;
  const std::string wire = SerializeColumnBatch(*columns);
  return Crc32(std::string_view(wire).substr(0, wire.size() - 4));
}

std::unique_ptr<LocalRuntime> MakeRuntime(bool remote) {
  LocalRuntimeConfig cfg;
  if (remote) cfg.force_shuffle_kind = ShuffleKind::kRemote;
  auto rt = std::make_unique<LocalRuntime>(cfg);
  TpchConfig tpch;
  tpch.scale_factor = 0.01;
  EXPECT_TRUE(GenerateTpch(tpch, rt->catalog()).ok());
  return rt;
}

void CheckSuite(bool remote) {
  std::unique_ptr<LocalRuntime> rt = MakeRuntime(remote);
  for (const bool sort_mode : {true, false}) {
    PlannerConfig pc;
    pc.sort_mode = sort_mode;
    for (const int q : RunnableTpchQueries()) {
      const std::string label = StrFormat(
          "Q%d sort_mode=%d remote=%d", q, sort_mode ? 1 : 0, remote ? 1 : 0);
      Result<std::string> sql = TpchQuerySql(q);
      ASSERT_TRUE(sql.ok()) << label;
      Result<Batch> got = rt->ExecuteSql(*sql, pc);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      const uint32_t digest = Digest(*got);
      auto it = Golden().find(GoldenKey{q, sort_mode, remote});
      if (it == Golden().end()) {
        ADD_FAILURE() << label << " has no golden digest; got "
                      << StrFormat("0x%08x", digest);
        continue;
      }
      EXPECT_EQ(it->second, digest)
          << label << StrFormat(": got 0x%08x", digest);
    }
  }
}

TEST(TpchGoldenTest, DefaultShuffleMatchesGoldenDigests) { CheckSuite(false); }

TEST(TpchGoldenTest, RemoteShuffleMatchesGoldenDigests) { CheckSuite(true); }

}  // namespace
}  // namespace swift
