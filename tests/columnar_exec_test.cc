// Vectorized-execution parity suite (ctest label vec_smoke).
//
// Two families of guarantees are pinned here:
//  1. Batch <-> ColumnBatch conversion is lossless for every Value shape
//     the engine can hold — all four types, NULLs, NaN and -0.0, empty
//     and multi-KB strings — including when columns degrade to kBoxed.
//  2. Every operator agrees with the test-only reference evaluator
//     (tests/reference_eval.h): filter, project, limit, hash aggregate,
//     hash join, hash partition; and the columnar shuffle serde emits
//     the exact bytes of the test-only row writer
//     (tests/reference_serde.h).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/operators.h"
#include "exec/serde.h"
#include "reference_eval.h"
#include "reference_serde.h"

namespace swift {
namespace {

// Bit-exact Value equality: NaN == NaN, and -0.0 != +0.0 — stricter
// than Value::Compare, which is what round-tripping must preserve.
bool ValueBitEq(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kInt64:
      return a.int64() == b.int64();
    case DataType::kFloat64: {
      uint64_t ba = 0, bb = 0;
      const double da = a.float64(), db = b.float64();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case DataType::kString:
      return a.str() == b.str();
  }
  return false;
}

void ExpectBatchesBitEq(const Batch& got, const Batch& want) {
  ASSERT_EQ(got.schema, want.schema);
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (std::size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].size(), want.rows[r].size()) << "row " << r;
    for (std::size_t c = 0; c < want.rows[r].size(); ++c) {
      EXPECT_TRUE(ValueBitEq(got.rows[r][c], want.rows[r][c]))
          << "row " << r << " col " << c;
    }
  }
}

// A uniform-width random batch. Cells usually match their field type
// (with NULLs mixed in); with `deviant`, a slice of cells carries the
// wrong type so conversion exercises the kBoxed escape hatch.
Batch RandomUniformBatch(uint64_t seed, bool deviant) {
  Rng rng(seed);
  const int ncols = static_cast<int>(rng.UniformInt(1, 5));
  std::vector<Field> fields;
  for (int c = 0; c < ncols; ++c) {
    fields.push_back(Field{"c" + std::to_string(c),
                           static_cast<DataType>(rng.UniformInt(0, 3))});
  }
  Batch b;
  b.schema = Schema(std::move(fields));
  const int nrows = static_cast<int>(rng.UniformInt(0, 300));
  for (int r = 0; r < nrows; ++r) {
    Row row;
    for (int c = 0; c < ncols; ++c) {
      DataType t = b.schema.fields()[static_cast<std::size_t>(c)].type;
      if (rng.UniformInt(0, 9) == 0) {
        row.push_back(Value::Null());
        continue;
      }
      if (deviant && rng.UniformInt(0, 19) == 0) {
        t = static_cast<DataType>(rng.UniformInt(1, 3));
      }
      switch (t) {
        case DataType::kNull:
          row.push_back(Value::Null());
          break;
        case DataType::kInt64:
          row.push_back(Value(static_cast<int64_t>(rng.Next())));
          break;
        case DataType::kFloat64:
          switch (rng.UniformInt(0, 9)) {
            case 0:
              row.push_back(Value(std::numeric_limits<double>::quiet_NaN()));
              break;
            case 1:
              row.push_back(Value(-0.0));
              break;
            default:
              row.push_back(Value(rng.Uniform(-1e9, 1e9)));
          }
          break;
        case DataType::kString: {
          // Mostly short, occasionally multi-KB.
          const std::size_t len = static_cast<std::size_t>(
              rng.UniformInt(0, 9) == 0 ? rng.UniformInt(2048, 8192)
                                        : rng.UniformInt(0, 24));
          std::string s(len, 'x');
          for (char& ch : s) ch = static_cast<char>(rng.UniformInt(0, 255));
          row.push_back(Value(std::move(s)));
          break;
        }
      }
    }
    b.rows.push_back(std::move(row));
  }
  return b;
}

OperatorPtr ColSourceOf(const Batch& b) {
  Result<ColumnBatch> cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok()) << cb.status().ToString();
  std::vector<ColumnBatch> batches;
  batches.push_back(*std::move(cb));
  return MakeColumnBatchSource(b.schema, std::move(batches));
}

Batch CollectColumnar(OperatorPtr op) {
  Result<ColumnBatch> r = CollectAllColumnar(op.get());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? ToRowBatch(*r) : Batch{};
}

class ColumnarPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarPropertyTest, RoundTripBitExact) {
  for (const bool deviant : {false, true}) {
    Batch b = RandomUniformBatch(GetParam(), deviant);
    Result<ColumnBatch> cb = ToColumnBatch(b);
    ASSERT_TRUE(cb.ok()) << cb.status().ToString();
    EXPECT_EQ(cb->num_rows(), b.num_rows());
    ExpectBatchesBitEq(ToRowBatch(*cb), b);
  }
}

TEST_P(ColumnarPropertyTest, SerializeColumnBatchMatchesRowSerializer) {
  for (const bool deviant : {false, true}) {
    Batch b = RandomUniformBatch(GetParam(), deviant);
    Result<ColumnBatch> cb = ToColumnBatch(b);
    ASSERT_TRUE(cb.ok()) << cb.status().ToString();
    // Byte identity with the reference writer pins the wire format: the
    // columnar encoder may not drift from it on any input.
    EXPECT_EQ(SerializeColumnBatch(*cb), ref::SerializeBatch(b));
  }
}

// The decoder inverts the reference writer: decoding its bytes gives
// the original batch bit for bit, and re-encoding the decoded columns
// (kBoxed where a column was tagged) reproduces the bytes.
TEST_P(ColumnarPropertyTest, DeserializeColumnBatchMatchesRowDecoder) {
  Batch b = RandomUniformBatch(GetParam(), /*deviant=*/true);
  const std::string bytes = ref::SerializeBatch(b);
  Result<ColumnBatch> cb = DeserializeColumnBatch(bytes);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  ExpectBatchesBitEq(ToRowBatch(*cb), b);
  EXPECT_EQ(SerializeColumnBatch(*cb), bytes);
}

TEST_P(ColumnarPropertyTest, SelectionAwareSerialization) {
  for (const bool deviant : {false, true}) {
    Batch b = RandomUniformBatch(GetParam(), deviant);
    Result<ColumnBatch> cb = ToColumnBatch(b);
    ASSERT_TRUE(cb.ok()) << cb.status().ToString();
    // Keep every other physical row, in order.
    std::vector<uint32_t> sel;
    for (std::size_t i = 0; i < cb->physical_rows; i += 2) {
      sel.push_back(static_cast<uint32_t>(i));
    }
    cb->selection = std::move(sel);
    Batch gathered = ToRowBatch(*cb);
    EXPECT_EQ(gathered.num_rows(), cb->num_rows());
    EXPECT_EQ(SerializeColumnBatch(*cb), ref::SerializeBatch(gathered));
    // Flatten() drops the selection without changing logical contents.
    ColumnBatch flat = *cb;
    flat.Flatten();
    EXPECT_FALSE(flat.selection.has_value());
    ExpectBatchesBitEq(ToRowBatch(flat), gathered);
  }
}

// Drains concatenate their input morsels with ConcatColumnBatches. Many
// parts of every shape (dense, selected, NULL-bearing, boxed, all-NULL
// kNull columns, and a kNull-typed field that retypes once values
// arrive) concatenate to exactly the parts' rows, in order.
TEST_P(ColumnarPropertyTest, ConcatMatchesReferenceConcatenation) {
  Rng rng(GetParam());
  const Schema schema({{"i", DataType::kInt64},
                       {"f", DataType::kFloat64},
                       {"s", DataType::kString},
                       {"n", DataType::kNull}});
  std::vector<ColumnBatch> parts;
  std::vector<Batch> want;
  std::size_t total = 0;
  for (int p = 0; p < 48; ++p) {
    const int shape = p % 4;  // 0 dense, 1 selected, 2 all-NULL, 3 boxed
    const int nrows = static_cast<int>(rng.UniformInt(0, 70));
    ColumnBatch cb;
    if (shape == 2) {
      cb.schema = schema;
      cb.physical_rows = static_cast<std::size_t>(nrows);
      for (std::size_t c = 0; c < schema.num_fields(); ++c) {
        cb.columns.push_back(ColumnVector::MakeNull(cb.physical_rows));
      }
    } else {
      Batch b;
      b.schema = schema;
      for (int r = 0; r < nrows; ++r) {
        const auto cell = [&](Value v) {
          if (rng.UniformInt(0, 7) == 0) return Value::Null();
          if (shape == 3 && rng.UniformInt(0, 9) == 0) {
            return Value("odd" + std::to_string(r));  // degrades to kBoxed
          }
          return v;
        };
        // Field "n" stays NULL until the second half of the parts.
        b.rows.push_back({cell(Value(rng.UniformInt(-1000, 1000))),
                          cell(Value(rng.Uniform(-1.0, 1.0))),
                          cell(Value("s" + std::to_string(r))),
                          p < 24 ? Value::Null() : cell(Value(int64_t{p}))});
      }
      Result<ColumnBatch> converted = ToColumnBatch(b);
      ASSERT_TRUE(converted.ok()) << converted.status().ToString();
      cb = *std::move(converted);
      if (shape == 1) {
        std::vector<uint32_t> sel;
        for (std::size_t i = 0; i < cb.physical_rows; ++i) {
          if (rng.UniformInt(0, 2) != 0) {
            sel.push_back(static_cast<uint32_t>(i));
          }
        }
        cb.selection = std::move(sel);
      }
    }
    total += cb.num_rows();
    want.push_back(ToRowBatch(cb));
    parts.push_back(std::move(cb));
  }
  ColumnBatch got = ConcatColumnBatches(schema, std::move(parts));
  EXPECT_FALSE(got.selection.has_value());
  EXPECT_EQ(got.physical_rows, total);
  for (const ColumnVector& col : got.columns) EXPECT_EQ(col.size(), total);
  ExpectBatchesBitEq(ToRowBatch(got), ref::Concat(schema, want));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));

TEST(ColumnarEdgeTest, SpecialFloatsAndStringsRoundTrip) {
  Schema s({{"f", DataType::kFloat64}, {"s", DataType::kString}});
  Batch b;
  b.schema = s;
  b.rows.push_back({Value(std::numeric_limits<double>::quiet_NaN()),
                    Value(std::string())});
  b.rows.push_back({Value(-0.0), Value(std::string(4096, '\0'))});
  b.rows.push_back({Value(std::numeric_limits<double>::infinity()),
                    Value(std::string(64 << 10, 'q'))});
  b.rows.push_back({Value::Null(), Value::Null()});
  Result<ColumnBatch> cb = ToColumnBatch(b);
  ASSERT_TRUE(cb.ok());
  ExpectBatchesBitEq(ToRowBatch(*cb), b);
  EXPECT_EQ(SerializeColumnBatch(*cb), ref::SerializeBatch(b));
  Result<ColumnBatch> back = DeserializeColumnBatch(ref::SerializeBatch(b));
  ASSERT_TRUE(back.ok());
  ExpectBatchesBitEq(ToRowBatch(*back), b);
}

TEST(ColumnarEdgeTest, NearMemcpyDecodeProducesTypedColumns) {
  Schema s({{"i", DataType::kInt64}, {"f", DataType::kFloat64}});
  Batch b;
  b.schema = s;
  for (int64_t r = 0; r < 100; ++r) {
    b.rows.push_back({Value(r), Value(static_cast<double>(r) * 0.5)});
  }
  Result<ColumnBatch> cb = DeserializeColumnBatch(ref::SerializeBatch(b));
  ASSERT_TRUE(cb.ok());
  // No nulls: decode must land in contiguous typed storage, not boxes.
  ASSERT_EQ(cb->columns.size(), 2u);
  EXPECT_EQ(cb->columns[0].rep(), ColumnRep::kInt64);
  EXPECT_EQ(cb->columns[1].rep(), ColumnRep::kFloat64);
  EXPECT_FALSE(cb->columns[0].has_nulls());
  EXPECT_EQ(cb->columns[0].Int64At(99), 99);
  EXPECT_EQ(cb->columns[1].Float64At(99), 49.5);
}

// Columns whose representation deviates from their field are encoded
// cell by cell, by the reference writer's rule: typed when every
// non-null cell has the field's type, tagged otherwise.
ColumnBatch DeviantRepBatch() {
  Batch b;
  b.schema = Schema({{"boxed", DataType::kInt64},
                     {"retyped", DataType::kFloat64},
                     {"plain", DataType::kString}});
  for (int64_t r = 0; r < 21; ++r) {
    b.rows.push_back({r % 5 == 0 ? Value::Null() : Value(r * 1000003),
                      Value::Null(), Value("s" + std::to_string(r))});
  }
  Result<ColumnBatch> cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok()) << cb.status().ToString();
  // Field 0: a kBoxed column whose cells are all int64 or NULL.
  cb->columns[0].Boxify();
  // Field 1: a kInt64 column under a kFloat64 field, NULL on odd rows.
  ColumnVector retyped = ColumnVector::OfRep(ColumnRep::kInt64);
  for (int64_t r = 0; r < 21; ++r) {
    if (r % 2 == 1) {
      retyped.AppendNull();
    } else {
      retyped.AppendInt64(-r);
    }
  }
  cb->columns[1] = std::move(retyped);
  return *std::move(cb);
}

TEST(ColumnarEdgeTest, BoxedColumnOfFieldTypeEncodesTyped) {
  ColumnBatch cb = DeviantRepBatch();
  ASSERT_EQ(cb.columns[0].rep(), ColumnRep::kBoxed);
  const Batch rows = ToRowBatch(cb);
  const std::string bytes = SerializeColumnBatch(cb);
  EXPECT_EQ(bytes, ref::SerializeBatch(rows));
  // Typed on the wire: the bytes are those of the column's typed twin,
  // and they decode to typed storage.
  Result<ColumnBatch> typed = ToColumnBatch(rows);
  ASSERT_TRUE(typed.ok());
  ASSERT_EQ(typed->columns[0].rep(), ColumnRep::kInt64);
  EXPECT_EQ(SerializeColumnBatch(*typed), bytes);
  Result<ColumnBatch> back = DeserializeColumnBatch(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->columns[0].rep(), ColumnRep::kInt64);
}

TEST(ColumnarEdgeTest, RetypedColumnEncodesTagged) {
  ColumnBatch cb = DeviantRepBatch();
  const std::string bytes = SerializeColumnBatch(cb);
  EXPECT_EQ(bytes, ref::SerializeBatch(ToRowBatch(cb)));
  Result<ColumnBatch> back = DeserializeColumnBatch(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Tagged on the wire: the int64 cells survive as int64 in a kBoxed
  // column, not as float64.
  ASSERT_EQ(back->columns[1].rep(), ColumnRep::kBoxed);
  EXPECT_TRUE(back->columns[1].BoxedAt(0).is_int64());
  EXPECT_EQ(back->columns[1].BoxedAt(2).int64(), -2);
  EXPECT_TRUE(back->columns[1].BoxedAt(1).is_null());
  ExpectBatchesBitEq(ToRowBatch(*back), ToRowBatch(cb));
}

TEST(ColumnarEdgeTest, DeviantColumnsUnderSelectionMatchReference) {
  // Every other row, then only the odd rows: the retyped column is
  // tagged in the first view and all NULL (so typed, with an empty
  // payload) in the second.
  for (const uint32_t first : {0u, 1u}) {
    ColumnBatch cb = DeviantRepBatch();
    std::vector<uint32_t> sel;
    for (uint32_t i = first; i < cb.physical_rows; i += 2) sel.push_back(i);
    cb.selection = std::move(sel);
    const Batch gathered = ToRowBatch(cb);
    EXPECT_EQ(SerializeColumnBatch(cb), ref::SerializeBatch(gathered))
        << "selection from row " << first;
    Result<ColumnBatch> back = DeserializeColumnBatch(SerializeColumnBatch(cb));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectBatchesBitEq(ToRowBatch(*back), gathered);
  }
}

// ---- Operator parity against the reference evaluator -----------------

Schema Wide() {
  return Schema({{"k", DataType::kInt64},
                 {"v", DataType::kFloat64},
                 {"s", DataType::kString}});
}

Batch RandomWideBatch(uint64_t seed, int nrows) {
  Rng rng(seed);
  Batch b;
  b.schema = Wide();
  for (int r = 0; r < nrows; ++r) {
    Row row;
    row.push_back(rng.UniformInt(0, 19) == 0
                      ? Value::Null()
                      : Value(rng.UniformInt(-50, 50)));
    row.push_back(rng.UniformInt(0, 19) == 0 ? Value::Null()
                                             : Value(rng.Uniform(-1.0, 1.0)));
    row.push_back(Value("s" + std::to_string(rng.UniformInt(0, 9))));
    b.rows.push_back(std::move(row));
  }
  return b;
}

class OperatorParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OperatorParityTest, FilterParity) {
  Batch b = RandomWideBatch(GetParam(), 500);
  auto pred = Expr::Binary(
      BinaryOp::kOr,
      Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                   Expr::Literal(Value(int64_t{10}))),
      Expr::Binary(BinaryOp::kLt, Expr::Column("v"),
                   Expr::Literal(Value(-0.5))));
  ExpectBatchesBitEq(CollectColumnar(MakeFilter(ColSourceOf(b), pred)),
                     ref::Filter(b, pred));
}

TEST_P(OperatorParityTest, ProjectParity) {
  Batch b = RandomWideBatch(GetParam(), 500);
  std::vector<ExprPtr> exprs = {
      Expr::Binary(BinaryOp::kAdd, Expr::Column("k"),
                   Expr::Literal(Value(int64_t{7}))),
      Expr::Binary(BinaryOp::kMul, Expr::Column("v"),
                   Expr::Column("v")),
      Expr::Column("s"),
  };
  std::vector<std::string> names = {"k7", "v2", "s"};
  ExpectBatchesBitEq(
      CollectColumnar(MakeProject(ColSourceOf(b), exprs, names)),
      ref::Project(b, exprs, names));
}

TEST_P(OperatorParityTest, LimitUnderSelectionIsLogical) {
  // LIMIT over a filtered columnar stream must count surviving
  // (logical) rows, not physical storage rows.
  Batch b = RandomWideBatch(GetParam(), 500);
  auto pred = Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                           Expr::Literal(Value(int64_t{0})));
  Batch want = ref::Limit(ref::Filter(b, pred), 37);
  Batch got =
      CollectColumnar(MakeLimit(MakeFilter(ColSourceOf(b), pred), 37));
  ExpectBatchesBitEq(got, want);
}

TEST_P(OperatorParityTest, HashAggregateParity) {
  Batch b = RandomWideBatch(GetParam(), 700);
  std::vector<ExprPtr> groups = {Expr::Column("s")};
  std::vector<std::string> names = {"s"};
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kSum, Expr::Column("k"), "sum_k"});
  aggs.push_back({AggKind::kCount, nullptr, "cnt"});
  aggs.push_back({AggKind::kMin, Expr::Column("v"), "min_v"});
  aggs.push_back({AggKind::kMax, Expr::Column("k"), "max_k"});
  aggs.push_back({AggKind::kAvg, Expr::Column("v"), "avg_v"});
  ExpectBatchesBitEq(
      CollectColumnar(MakeHashAggregate(ColSourceOf(b), groups, names, aggs)),
      ref::Aggregate(b, groups, names, aggs));
}

TEST_P(OperatorParityTest, HashJoinParity) {
  Batch probe = RandomWideBatch(GetParam(), 400);
  Batch build = RandomWideBatch(GetParam() ^ 0xBEEF, 80);
  for (const JoinType jt : {JoinType::kInner, JoinType::kLeftOuter}) {
    std::vector<ExprPtr> lk = {Expr::Column("k")};
    std::vector<ExprPtr> rk = {Expr::Column("k")};
    ExpectBatchesBitEq(CollectColumnar(MakeHashJoin(
                           ColSourceOf(probe), ColSourceOf(build), lk, rk, jt)),
                       ref::Join(probe, build, lk, rk, jt));
  }
}

TEST_P(OperatorParityTest, HashPartitionParity) {
  Batch b = RandomWideBatch(GetParam(), 600);
  std::vector<ExprPtr> keys = {Expr::Column("k"), Expr::Column("s")};
  const int nparts = 7;
  const std::vector<Batch> want = ref::Partition(b, keys, nparts);
  Result<ColumnBatch> cb = ToColumnBatch(b);
  ASSERT_TRUE(cb.ok());
  Result<std::vector<ColumnBatch>> got =
      HashPartitionColumnar(*cb, keys, nparts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    ExpectBatchesBitEq(ToRowBatch((*got)[p]), want[p]);
  }
}

TEST_P(OperatorParityTest, FilteredPartitionParity) {
  // Partitioning a batch that still carries a selection vector must
  // route exactly the surviving rows.
  Batch b = RandomWideBatch(GetParam(), 600);
  auto pred = Expr::Binary(BinaryOp::kGe, Expr::Column("k"),
                           Expr::Literal(Value(int64_t{0})));
  std::vector<ExprPtr> keys = {Expr::Column("k")};
  const std::vector<Batch> want = ref::Partition(ref::Filter(b, pred), keys, 5);
  OperatorPtr vec = MakeFilter(ColSourceOf(b), pred);
  ASSERT_TRUE(vec->Open().ok());
  Result<std::optional<ColumnBatch>> filtered = vec->Next();
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  ASSERT_TRUE(filtered->has_value());
  ASSERT_TRUE((*filtered)->selection.has_value());  // no row copies made
  Result<std::vector<ColumnBatch>> got =
      HashPartitionColumnar(**filtered, keys, 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    ExpectBatchesBitEq(ToRowBatch((*got)[p]), want[p]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorParityTest,
                         ::testing::Range<uint64_t>(1, 17));

}  // namespace
}  // namespace swift
