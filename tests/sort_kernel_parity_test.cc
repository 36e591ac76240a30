// Sort-kernel parity suite (ctest label vec_smoke): SortOp and WindowOp's
// per-partition ordering must produce exactly the row order of the
// reference stable sort over Value::Compare (tests/reference_eval.h,
// StableSortByKeys) — ties in input order, NULLs first under ASC and
// last under DESC, -0.0 equal to 0.0, NaN, multi-key mixes of int,
// float and string keys, long strings tying on their 8-byte prefix,
// and boxed and all-NULL key columns. A unique `id` column makes any
// difference in tie order visible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/operators.h"
#include "reference_eval.h"

namespace swift {
namespace {

// Key columns by name: ki int64 (NULLs, extremes), kp int64 (no NULLs),
// kf float64 (NULLs, +-0.0, infinities), kq float64 (no NULLs, +-0.0),
// kn float64 holding NaN, ks string (NULLs, shared 8-byte prefixes,
// NUL and high bytes), kt string (no NULLs), kb mixed (kBoxed), kz all
// NULL, kc strings sharing a 16-byte prefix (NULLs), kk one int64 value,
// g a small partition key for windows.
Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"ki", DataType::kInt64},
                 {"kp", DataType::kInt64},
                 {"kf", DataType::kFloat64},
                 {"kq", DataType::kFloat64},
                 {"kn", DataType::kFloat64},
                 {"ks", DataType::kString},
                 {"kt", DataType::kString},
                 {"kb", DataType::kString},
                 {"kz", DataType::kNull},
                 {"kc", DataType::kString},
                 {"kk", DataType::kInt64},
                 {"g", DataType::kInt64}});
}

const char* const kKeyNames[] = {"ki", "kp", "kf", "kq", "kn", "ks",
                                  "kt", "kb", "kz", "kc", "kk"};
constexpr int64_t kNumKeys = 11;

Value Pick(Rng* rng, const std::vector<Value>& pool) {
  return pool[static_cast<std::size_t>(
      rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
}

Row RandomRow(Rng* rng, int64_t id) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  static const std::vector<Value> kInts = {
      Value(int64_t{-3}), Value(int64_t{-1}), Value(int64_t{0}),
      Value(int64_t{1}),  Value(int64_t{2}),  Value(int64_t{3}),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max())};
  const std::vector<Value> floats = {Value(-1.5), Value(-0.0), Value(0.0),
                                     Value(0.5),  Value(inf),  Value(-inf),
                                     Value(1e300)};
  const std::vector<Value> nan_floats = {Value(nan), Value(-nan), Value(1.0),
                                         Value(-2.0), Value(0.0)};
  static const std::vector<Value> kStrings = {
      Value("Customer#000000001"), Value("Customer#000000002"),
      Value("Customer#00000001"),  Value("Customer"),
      Value(""),                   Value(std::string("\0", 1)),
      Value(std::string("ab\0", 3)), Value("ab"),
      Value("\x80"),               Value("\xff\xfe"),
      Value("1995-03-15"),         Value("1995-03-16")};
  const auto maybe_null = [rng](Value v) {
    return rng->Bernoulli(0.15) ? Value::Null() : std::move(v);
  };
  Row r;
  r.push_back(Value(id));
  r.push_back(maybe_null(Pick(rng, kInts)));
  r.push_back(Value(rng->UniformInt(-4, 4)));
  r.push_back(maybe_null(Pick(rng, floats)));
  r.push_back(Pick(rng, floats));
  r.push_back(maybe_null(Pick(rng, nan_floats)));
  r.push_back(maybe_null(Pick(rng, kStrings)));
  r.push_back(Pick(rng, kStrings));
  r.push_back(maybe_null(rng->Bernoulli(0.5) ? Pick(rng, kStrings)
                                             : Pick(rng, kInts)));
  r.push_back(Value::Null());
  static const std::vector<Value> kShared = {
      Value("Customer#0000000"), Value("Customer#000000001"),
      Value("Customer#000000002"), Value("Customer#000000012"),
      Value(std::string("Customer#0000000\0", 17)),
      Value("Customer#0000000\xff")};
  r.push_back(maybe_null(Pick(rng, kShared)));
  r.push_back(Value(int64_t{7}));
  r.push_back(maybe_null(Value(rng->UniformInt(0, 3))));
  return r;
}

Batch RandomBatch(Rng* rng, int n) {
  Batch b;
  b.schema = TestSchema();
  for (int i = 0; i < n; ++i) b.rows.push_back(RandomRow(rng, i));
  return b;
}

// The batch as a columnar source of up to three batches; one of them,
// when there is more than one, carries its rows through a selection.
OperatorPtr SourceOf(Rng* rng, const Batch& b) {
  std::vector<ColumnBatch> parts;
  std::size_t begin = 0;
  while (begin < b.rows.size()) {
    const std::size_t len = std::min<std::size_t>(
        b.rows.size() - begin,
        static_cast<std::size_t>(rng->UniformInt(1, 40)));
    Batch part;
    part.schema = b.schema;
    part.rows.assign(b.rows.begin() + static_cast<std::ptrdiff_t>(begin),
                     b.rows.begin() + static_cast<std::ptrdiff_t>(begin + len));
    ColumnBatch cb = *ToColumnBatch(part);
    if (parts.size() == 1) {
      // Same rows in the same order, read through an identity selection.
      std::vector<uint32_t> sel(cb.physical_rows);
      for (std::size_t i = 0; i < sel.size(); ++i) {
        sel[i] = static_cast<uint32_t>(i);
      }
      cb.selection = std::move(sel);
    }
    parts.push_back(std::move(cb));
    begin += len;
  }
  return MakeColumnBatchSource(b.schema, std::move(parts));
}

// Bit-exact cell equality: -0.0 and 0.0 differ, NaN equals NaN.
bool CellBitEq(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kInt64:
      return a.int64() == b.int64();
    case DataType::kFloat64: {
      const double x = a.float64();
      const double y = b.float64();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case DataType::kString:
      return a.str() == b.str();
  }
  return false;
}

void ExpectSameRows(const Batch& got, const Batch& want) {
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].size(), want.rows[r].size());
    for (std::size_t c = 0; c < want.rows[r].size(); ++c) {
      ASSERT_TRUE(CellBitEq(got.rows[r][c], want.rows[r][c]))
          << "row " << r << " col " << c << ": "
          << got.rows[r][c].ToString() << " vs " << want.rows[r][c].ToString()
          << " (ids " << got.rows[r][0].ToString() << " / "
          << want.rows[r][0].ToString() << ")";
    }
  }
}

std::vector<SortKey> RandomKeys(Rng* rng) {
  std::vector<SortKey> keys;
  const int n = static_cast<int>(rng->UniformInt(1, 3));
  for (int k = 0; k < n; ++k) {
    const int64_t pick = rng->UniformInt(0, kNumKeys - 1);
    keys.push_back(SortKey{Expr::Column(kKeyNames[pick]), rng->Bernoulli(0.5)});
  }
  return keys;
}

std::string KeysToString(const std::vector<SortKey>& keys) {
  std::string s;
  for (const SortKey& k : keys) {
    s += k.expr->ToString() + (k.ascending ? " asc, " : " desc, ");
  }
  return s;
}

Batch RunSort(Rng* rng, const Batch& in, const std::vector<SortKey>& keys) {
  OperatorPtr op = MakeSort(SourceOf(rng, in), keys);
  Result<Batch> out = CollectAll(op.get());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *std::move(out) : Batch{};
}

class SortKernelParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SortKernelParityTest, SortMatchesReferenceStableSort) {
  Rng rng(GetParam());
  for (int round = 0; round < 12; ++round) {
    const Batch in =
        RandomBatch(&rng, static_cast<int>(rng.UniformInt(0, 200)));
    const std::vector<SortKey> keys = RandomKeys(&rng);
    SCOPED_TRACE(KeysToString(keys));
    ExpectSameRows(RunSort(&rng, in, keys), ref::Sort(in, keys));
  }
}

TEST_P(SortKernelParityTest, WindowMatchesReferencePartitionOrder) {
  Rng rng(GetParam());
  static const WindowFunc kFuncs[] = {WindowFunc::kRowNumber, WindowFunc::kRank,
                                      WindowFunc::kSum};
  for (int round = 0; round < 8; ++round) {
    const Batch in =
        RandomBatch(&rng, static_cast<int>(rng.UniformInt(0, 200)));
    const std::vector<SortKey> order = RandomKeys(&rng);
    const WindowFunc func = kFuncs[rng.UniformInt(0, 2)];
    const ExprPtr arg =
        func == WindowFunc::kSum ? Expr::Column("kp") : nullptr;
    SCOPED_TRACE(KeysToString(order));
    OperatorPtr op = MakeWindow(SourceOf(&rng, in), {Expr::Column("g")},
                                order, func, arg, "w");
    Result<Batch> got = CollectAll(op.get());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRows(*got, ref::Window(in, {Expr::Column("g")}, order, func,
                                     arg, "w"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortKernelParityTest,
                         ::testing::Range<uint64_t>(1, 17));

// Each key shape, alone and leading a second key, in both directions:
// keys the code holds whole (kp, kq, kk), NULL-bearing fields (ki, kf),
// a span too wide for 64 bits with NULLs (ki), string windows after a
// shared prefix (kc) or none (ks, kt), and the CompareCells keys (kn
// with NaN, kb boxed, kz all NULL).
TEST(SortKernelEdgeTest, EveryKeyShapeAloneAndLeading) {
  Rng rng(99);
  const Batch in = RandomBatch(&rng, 300);
  for (const char* name : kKeyNames) {
    for (const bool asc : {true, false}) {
      SCOPED_TRACE(std::string(name) + (asc ? " asc" : " desc"));
      const std::vector<SortKey> alone = {{Expr::Column(name), asc}};
      ExpectSameRows(RunSort(&rng, in, alone), ref::Sort(in, alone));
      const std::vector<SortKey> leading = {{Expr::Column(name), asc},
                                            {Expr::Column("kt"), !asc}};
      ExpectSameRows(RunSort(&rng, in, leading), ref::Sort(in, leading));
    }
  }
}

TEST(SortKernelEdgeTest, KeyColumnsHaveTheIntendedReps) {
  Rng rng(7);
  const ColumnBatch cb = *ToColumnBatch(RandomBatch(&rng, 200));
  EXPECT_EQ(cb.columns[5].rep(), ColumnRep::kFloat64);  // kn: NaN stays typed
  EXPECT_EQ(cb.columns[8].rep(), ColumnRep::kBoxed);    // kb
  EXPECT_EQ(cb.columns[9].rep(), ColumnRep::kNull);     // kz
}

// Three keys packed into one code (kp 4 bits, kk none, kq's span), then
// a string window, in every direction mix.
TEST(SortKernelEdgeTest, PackedMultiKeyOrders) {
  Rng rng(5);
  const Batch in = RandomBatch(&rng, 400);
  for (int mask = 0; mask < 16; ++mask) {
    const std::vector<SortKey> keys = {
        {Expr::Column("kp"), (mask & 1) != 0},
        {Expr::Column("kk"), (mask & 2) != 0},
        {Expr::Column("kc"), (mask & 4) != 0},
        {Expr::Column("kq"), (mask & 8) != 0}};
    SCOPED_TRACE(KeysToString(keys));
    ExpectSameRows(RunSort(&rng, in, keys), ref::Sort(in, keys));
  }
}

}  // namespace
}  // namespace swift
