// Randomized parity property test: the flat-table hash kernels
// (HashJoinOp / HashAggregateOp / HashPartitionColumnar) against the
// test-only reference evaluator (tests/reference_eval.h: nested-loop
// join, linear first-seen group list, per-row key hashing). Inputs mix
// int64 / float64 / string keys with NULLs, duplicate keys,
// cross-numeric-type equal keys (3 vs 3.0), and collision-adversarial
// strided keys. Runs under the asan/ubsan presets like every other
// test.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/operators.h"
#include "reference_eval.h"

namespace swift {
namespace {

// ---- Row multiset comparison ----------------------------------------

// Type-tagged text form so int64 3, float64 3.0, and string "3" stay
// distinct cells when comparing outputs.
std::string CellKey(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return "N";
    case DataType::kInt64:
      return "i" + std::to_string(v.int64());
    case DataType::kFloat64: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "f%.17g", v.float64());
      return buf;
    }
    case DataType::kString:
      return "s" + v.str();
  }
  return "?";
}

std::vector<std::string> RowMultiset(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) {
      s += CellKey(v);
      s.push_back('\x1f');
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- Random input generation ----------------------------------------

// Mixed-type key values drawn to force duplicates, cross-type equality
// (k and (double)k), NULLs, and collision-adversarial stride patterns.
Value RandomKeyValue(Rng& rng) {
  const double roll = rng.Uniform();
  if (roll < 0.15) return Value::Null();
  if (roll < 0.45) {
    const int64_t k = rng.UniformInt(-8, 8);
    return Value(k * (rng.Bernoulli(0.5) ? 1 : 1024));  // strided collisions
  }
  if (roll < 0.65) {
    // Half integral-valued floats (equal to int64 keys), half fractional.
    const int64_t k = rng.UniformInt(-8, 8);
    return rng.Bernoulli(0.5) ? Value(static_cast<double>(k))
                              : Value(k + 0.5);
  }
  static const char* kPool[] = {"", "a", "b", "ab", "3", "key", "KEY"};
  return Value(kPool[rng.UniformInt(0, 6)]);
}

Value RandomPayloadValue(Rng& rng) {
  const double roll = rng.Uniform();
  if (roll < 0.1) return Value::Null();
  if (roll < 0.5) return Value(rng.UniformInt(-1000, 1000));
  if (roll < 0.8) return Value(rng.Uniform(-10.0, 10.0));
  return Value("p" + std::to_string(rng.UniformInt(0, 99)));
}

Batch RandomBatch(Rng& rng, int rows, int key_cols, int payload_cols) {
  Batch b;
  std::vector<Field> fields;
  for (int c = 0; c < key_cols; ++c) {
    fields.push_back({"k" + std::to_string(c), DataType::kNull});
  }
  for (int c = 0; c < payload_cols; ++c) {
    fields.push_back({"p" + std::to_string(c), DataType::kNull});
  }
  b.schema = Schema(std::move(fields));
  for (int i = 0; i < rows; ++i) {
    Row r;
    for (int c = 0; c < key_cols; ++c) r.push_back(RandomKeyValue(rng));
    for (int c = 0; c < payload_cols; ++c) r.push_back(RandomPayloadValue(rng));
    b.rows.push_back(std::move(r));
  }
  return b;
}

std::vector<ExprPtr> KeyExprs(int key_cols) {
  std::vector<ExprPtr> keys;
  for (int c = 0; c < key_cols; ++c) {
    keys.push_back(Expr::Column("k" + std::to_string(c)));
  }
  return keys;
}

Batch RunOperator(OperatorPtr op) {
  auto out = CollectAll(op.get());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return *out;
}

// Exact, order-sensitive comparison with type-tagged cells.
void ExpectRowsEqual(const std::vector<Row>& got, const std::vector<Row>& want,
                     int trial) {
  ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size());
    for (std::size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(CellKey(got[i][j]), CellKey(want[i][j]))
          << "trial " << trial << " row " << i << " col " << j;
    }
  }
}

// ---- Properties ------------------------------------------------------

TEST(HashKernelsParityTest, JoinMatchesLegacyRowMap) {
  // The reference is a nested-loop join, so output order is pinned too:
  // probe rows in order, each probe row's matches in build order.
  Rng rng(0xA11CE5EEDULL);
  for (int trial = 0; trial < 30; ++trial) {
    const int key_cols = 1 + static_cast<int>(rng.UniformInt(0, 1));
    const JoinType jt =
        rng.Bernoulli(0.5) ? JoinType::kInner : JoinType::kLeftOuter;
    Batch left = RandomBatch(rng, static_cast<int>(rng.UniformInt(0, 120)),
                             key_cols, 1);
    Batch right = RandomBatch(rng, static_cast<int>(rng.UniformInt(0, 120)),
                              key_cols, 1);
    const std::vector<ExprPtr> keys = KeyExprs(key_cols);

    const Batch expect = ref::Join(left, right, keys, keys, jt);
    Batch got = RunOperator(MakeHashJoin(
        MakeBatchSource(left.schema, {left}),
        MakeBatchSource(right.schema, {right}), keys, keys, jt));

    EXPECT_EQ(RowMultiset(got.rows), RowMultiset(expect.rows))
        << "trial " << trial << " join_type "
        << (jt == JoinType::kInner ? "inner" : "left_outer");
    ExpectRowsEqual(got.rows, expect.rows, trial);
  }
}

TEST(HashKernelsParityTest, AggregateMatchesLegacyRowMapExactly) {
  Rng rng(0xBEEFCAFEULL);
  for (int trial = 0; trial < 30; ++trial) {
    const int key_cols = 1 + static_cast<int>(rng.UniformInt(0, 1));
    Batch in = RandomBatch(rng, static_cast<int>(rng.UniformInt(0, 300)),
                           key_cols, 2);
    std::vector<ExprPtr> groups = KeyExprs(key_cols);
    std::vector<std::string> names;
    for (int c = 0; c < key_cols; ++c) names.push_back("k" + std::to_string(c));
    std::vector<AggSpec> aggs = {
        AggSpec{AggKind::kSum, Expr::Column("p0"), "s"},
        AggSpec{AggKind::kCount, Expr::Column("p0"), "c"},
        AggSpec{AggKind::kCount, nullptr, "cstar"},
        AggSpec{AggKind::kMin, Expr::Column("p1"), "mn"},
        AggSpec{AggKind::kMax, Expr::Column("p1"), "mx"},
        AggSpec{AggKind::kAvg, Expr::Column("p0"), "avg"},
    };

    const Batch expect = ref::Aggregate(in, groups, names, aggs);
    Batch got = RunOperator(MakeHashAggregate(
        MakeBatchSource(in.schema, {in}), groups, names, aggs));

    // Both sides update per-group state in input row order, so the sums
    // are bit-identical, and both emit groups in first-seen order — the
    // comparison is exact, not just multiset.
    ExpectRowsEqual(got.rows, expect.rows, trial);
  }
}

TEST(HashKernelsParityTest, PartitionPreservesRowsAndRoutesNullsToZero) {
  Rng rng(0xD15EA5EULL);
  for (int trial = 0; trial < 20; ++trial) {
    const int key_cols = 1 + static_cast<int>(rng.UniformInt(0, 1));
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 15));
    Batch in = RandomBatch(rng, static_cast<int>(rng.UniformInt(0, 400)),
                           key_cols, 1);
    const std::vector<ExprPtr> keys = KeyExprs(key_cols);

    auto cb = ToColumnBatch(in);
    ASSERT_TRUE(cb.ok());
    auto parts = HashPartitionColumnar(*cb, keys, n);
    ASSERT_TRUE(parts.ok());
    // Row conservation: partitions are a permutation of the input.
    std::vector<Row> all;
    for (const ColumnBatch& p : *parts) {
      const Batch rows = ToRowBatch(p);
      all.insert(all.end(), rows.rows.begin(), rows.rows.end());
    }
    EXPECT_EQ(RowMultiset(all), RowMultiset(in.rows)) << "trial " << trial;

    // Every row goes where its scalar key hash sends it (NULL-keyed rows
    // to partition 0), in input order.
    const std::vector<Batch> expect = ref::Partition(in, keys, n);
    for (int p = 0; p < n; ++p) {
      const std::size_t pi = static_cast<std::size_t>(p);
      ExpectRowsEqual(ToRowBatch((*parts)[pi]).rows, expect[pi].rows, trial);
      if (p == 0) continue;
      for (const Row& r : expect[pi].rows) {
        for (int c = 0; c < key_cols; ++c) {
          EXPECT_FALSE(r[static_cast<std::size_t>(c)].is_null())
              << "NULL key escaped partition 0";
        }
      }
    }
  }
}

// Cross-numeric-type keys: rows keyed 3 (int64) and 3.0 (float64) must
// join with each other and aggregate into one group, exactly like the
// Compare()-based reference.
TEST(HashKernelsParityTest, CrossNumericTypeKeysShareOneGroup) {
  Batch in;
  in.schema = Schema({{"k0", DataType::kNull}, {"p0", DataType::kInt64}});
  in.rows = {{Value(int64_t{3}), Value(int64_t{1})},
             {Value(3.0), Value(int64_t{10})},
             {Value(int64_t{3}), Value(int64_t{100})},
             {Value(-0.0), Value(int64_t{7})},
             {Value(int64_t{0}), Value(int64_t{70})}};
  const std::vector<ExprPtr> keys = {Expr::Column("k0")};

  std::vector<AggSpec> aggs = {AggSpec{AggKind::kSum, Expr::Column("p0"), "s"}};
  const Batch expect = ref::Aggregate(in, keys, {"k0"}, aggs);
  Batch got = RunOperator(
      MakeHashAggregate(MakeBatchSource(in.schema, {in}), keys, {"k0"}, aggs));
  ASSERT_EQ(got.rows.size(), 2u);
  EXPECT_EQ(RowMultiset(got.rows), RowMultiset(expect.rows));
  EXPECT_EQ(got.rows[0][1].int64(), 111);  // 3-group, first seen
  EXPECT_EQ(got.rows[1][1].int64(), 77);   // 0-group

  Batch joined = RunOperator(MakeHashJoin(MakeBatchSource(in.schema, {in}),
                                          MakeBatchSource(in.schema, {in}),
                                          keys, keys, JoinType::kInner));
  const Batch jexpect = ref::Join(in, in, keys, keys, JoinType::kInner);
  EXPECT_EQ(joined.rows.size(), 13u);  // 3x3 for the 3-group + 2x2 for 0
  EXPECT_EQ(RowMultiset(joined.rows), RowMultiset(jexpect.rows));
}

}  // namespace
}  // namespace swift
