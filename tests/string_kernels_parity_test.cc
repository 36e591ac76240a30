// Typed-kernel parity suite for column-at-a-time expression evaluation
// (ctest label vec_smoke): BoundExpr::EvaluateVector must return, for
// every logical row, exactly what per-row BoundExpr::Evaluate returns
// on that row — same type, same value, same NULLs — and fail with the
// first failing row's Status when any row fails. Covered: string
// comparisons and LIKE against literals and columns, NOT LIKE, IN-lists,
// substr at edge positions, numeric comparisons and arithmetic against
// scalar literals, and the shapes that must stay on the row path
// (boxed columns, string-vs-number comparison errors). Every case runs
// on a dense batch and on a selection view of it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/bound_expr.h"
#include "exec/column_batch.h"
#include "exec/expression.h"

namespace swift {
namespace {

Schema TestSchema() {
  return Schema({{"s", DataType::kString},
                 {"t", DataType::kString},
                 {"a", DataType::kInt64},
                 {"f", DataType::kFloat64},
                 {"m", DataType::kString}});
}

// Strings that stress a byte-wise comparison: empty, a shared 8-byte
// prefix with diverging tails, embedded NULs, bytes >= 0x80 (which must
// order after ASCII), and LIKE metacharacters as data.
std::string RandomString(Rng* rng) {
  static const std::vector<std::string> kPool = {
      "",
      "a",
      "ab",
      "abc",
      "b",
      "prefix00",
      "prefix00a",
      "prefix00b",
      "prefix001998-09-02",
      std::string("ab\0", 3),
      std::string("ab\0c", 4),
      std::string("\0", 1),
      "\x80",
      "\xff\x01",
      "a\xe9z",
      "%",
      "_",
      "a%b",
      "green",
      "forest green metallic",
      "1998-09-02",
      "1998-09-03",
      "1995-03-15",
  };
  if (rng->Bernoulli(0.3)) {
    std::string s(static_cast<std::size_t>(rng->UniformInt(0, 12)), 'a');
    for (char& c : s) c = "ab%_\0\x90"[rng->UniformInt(0, 5)];
    return s;
  }
  return kPool[static_cast<std::size_t>(
      rng->UniformInt(0, static_cast<int64_t>(kPool.size()) - 1))];
}

// LIKE patterns with % and _ at the start, middle and end.
std::string RandomPattern(Rng* rng) {
  static const std::vector<std::string> kPatterns = {
      "%",       "_",        "",          "a%",      "%a",     "%a%",
      "a_",      "_b",       "a_c",       "%green%", "prefix00%", "%b%c%",
      "__",      "%_",       "_%",        "a%b%",    "%\x80",  "ab%c",
      "%00_",    "1998-09-0_",
  };
  if (rng->Bernoulli(0.25)) return RandomString(rng);
  return kPatterns[static_cast<std::size_t>(
      rng->UniformInt(0, static_cast<int64_t>(kPatterns.size()) - 1))];
}

// One random row. `m` mixes strings and numbers, so its column is
// kBoxed and every expression over it must take the row path.
Row RandomRow(Rng* rng) {
  Row r;
  for (int c = 0; c < 2; ++c) {
    r.push_back(rng->Bernoulli(0.15) ? Value::Null()
                                     : Value(RandomString(rng)));
  }
  r.push_back(rng->Bernoulli(0.15) ? Value::Null()
                                   : Value(rng->UniformInt(-3, 30)));
  r.push_back(rng->Bernoulli(0.15) ? Value::Null()
                                   : Value(rng->Uniform(-0.1, 0.2)));
  if (rng->Bernoulli(0.15)) {
    r.push_back(Value::Null());
  } else if (rng->Bernoulli(0.5)) {
    r.push_back(Value(RandomString(rng)));
  } else {
    r.push_back(Value(rng->UniformInt(0, 3)));
  }
  return r;
}

// A batch of `n` random rows; with `nulls` false the string columns
// hold no NULLs (the kernels' no-null fast path).
ColumnBatch RandomBatch(Rng* rng, int n, bool nulls) {
  Batch b;
  b.schema = TestSchema();
  for (int i = 0; i < n; ++i) {
    Row r = RandomRow(rng);
    if (!nulls) {
      for (int c = 0; c < 2; ++c) {
        if (r[static_cast<std::size_t>(c)].is_null()) {
          r[static_cast<std::size_t>(c)] = Value(RandomString(rng));
        }
      }
    }
    b.rows.push_back(std::move(r));
  }
  Result<ColumnBatch> cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok()) << cb.status().ToString();
  return *std::move(cb);
}

// The same storage seen through a random selection: a shuffled subset
// of physical rows, some repeated.
ColumnBatch SelectionView(Rng* rng, ColumnBatch b) {
  std::vector<uint32_t> sel;
  for (std::size_t i = 0; i < b.physical_rows; ++i) {
    if (rng->Bernoulli(0.6)) sel.push_back(static_cast<uint32_t>(i));
  }
  if (!sel.empty()) {
    for (int k = 0; k < 5; ++k) {
      sel.push_back(sel[static_cast<std::size_t>(
          rng->UniformInt(0, static_cast<int64_t>(sel.size()) - 1))]);
    }
  }
  for (std::size_t i = sel.size(); i > 1; --i) {
    const int64_t j = rng->UniformInt(0, static_cast<int64_t>(i) - 1);
    std::swap(sel[i - 1], sel[static_cast<std::size_t>(j)]);
  }
  b.selection = std::move(sel);
  return b;
}

// EvaluateVector over `in` against Evaluate on each materialized row.
void ExpectVectorMatchesRows(const ExprPtr& e, const ColumnBatch& in) {
  SCOPED_TRACE(e->ToString());
  Result<BoundExprPtr> bound = Bind(e, in.schema);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  std::vector<Value> want;
  Status first_error = Status::OK();
  Row row;
  for (std::size_t i = 0; i < in.num_rows(); ++i) {
    in.MaterializeRow(i, &row);
    Result<Value> v = (*bound)->Evaluate(row);
    if (!v.ok()) {
      first_error = v.status();
      break;
    }
    want.push_back(*std::move(v));
  }
  ColumnVector got;
  const Status st = (*bound)->EvaluateVector(in, &got);
  if (!first_error.ok()) {
    EXPECT_EQ(st, first_error);
    return;
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Value g = got.GetValue(i);
    ASSERT_EQ(g.type(), want[i].type()) << "row " << i;
    if (g.is_string()) {
      ASSERT_EQ(g.str(), want[i].str()) << "row " << i;
    } else {
      ASSERT_EQ(g.Compare(want[i]), 0)
          << "row " << i << ": " << g.ToString() << " vs "
          << want[i].ToString();
    }
  }
}

ExprPtr Col(const char* name) { return Expr::Column(name); }
ExprPtr Lit(Value v) { return Expr::Literal(std::move(v)); }

constexpr BinaryOp kStringOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                   BinaryOp::kLt, BinaryOp::kLe,
                                   BinaryOp::kGt, BinaryOp::kGe,
                                   BinaryOp::kLike};

// Expressions for one round: every comparison and LIKE against a
// literal and against the other string column, NOT LIKE, an IN-list,
// substr at edge positions, the row-path shapes, and numeric kernels
// with scalar literal operands.
std::vector<ExprPtr> RoundExprs(Rng* rng) {
  std::vector<ExprPtr> out;
  for (const BinaryOp op : kStringOps) {
    const std::string lit =
        op == BinaryOp::kLike ? RandomPattern(rng) : RandomString(rng);
    out.push_back(Expr::Binary(op, Col("s"), Lit(Value(lit))));
    out.push_back(Expr::Binary(op, Col("s"), Col("t")));
    out.push_back(Expr::Binary(op, Col("m"), Lit(Value(lit))));  // boxed
    out.push_back(Expr::Binary(op, Lit(Value(lit)), Col("s")));  // row path
  }
  out.push_back(Expr::Unary(
      UnaryOp::kNot,
      Expr::Binary(BinaryOp::kLike, Col("t"), Lit(Value(RandomPattern(rng))))));
  ExprPtr in_list =
      Expr::Binary(BinaryOp::kEq, Col("s"), Lit(Value(RandomString(rng))));
  for (int k = 0; k < 2; ++k) {
    in_list = Expr::Binary(
        BinaryOp::kOr, in_list,
        Expr::Binary(BinaryOp::kEq, Col("s"), Lit(Value(RandomString(rng)))));
  }
  out.push_back(in_list);
  static const int64_t kStarts[] = {-1, 0, 1, 2, 8, 9, 40};
  static const int64_t kLens[] = {-1, 0, 1, 3, 8, 100};
  const Value start(kStarts[rng->UniformInt(0, 6)]);
  const Value len(kLens[rng->UniformInt(0, 5)]);
  out.push_back(Expr::Function("substr", {Col("s"), Lit(start), Lit(len)}));
  out.push_back(
      Expr::Function("substr", {Col("s"), Lit(Value(1.9)), Lit(len)}));
  out.push_back(Expr::Function("substr", {Col("m"), Lit(start), Lit(len)}));
  out.push_back(Expr::Function("substr", {Col("s"), Col("a"), Lit(len)}));
  out.push_back(Expr::Binary(
      BinaryOp::kEq,
      Expr::Function("substr", {Col("t"), Lit(Value(int64_t{1})),
                                Lit(Value(int64_t{4}))}),
      Lit(Value("1998"))));
  // String against number: the row path's "cannot compare" error.
  out.push_back(
      Expr::Binary(BinaryOp::kLt, Col("s"), Lit(Value(int64_t{5}))));
  out.push_back(Expr::Binary(BinaryOp::kGe, Col("a"), Col("t")));
  // Numeric kernels reading literals as scalars.
  out.push_back(
      Expr::Binary(BinaryOp::kLt, Col("a"), Lit(Value(int64_t{24}))));
  out.push_back(Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGe, Col("f"), Lit(Value(0.05))),
      Expr::Binary(BinaryOp::kLe, Col("f"), Lit(Value(0.07)))));
  out.push_back(Expr::Binary(BinaryOp::kGt, Lit(Value(int64_t{7})), Col("f")));
  out.push_back(Expr::Binary(
      BinaryOp::kMul, Col("f"),
      Expr::Binary(BinaryOp::kSub, Lit(Value(int64_t{1})), Col("f"))));
  out.push_back(
      Expr::Binary(BinaryOp::kAdd, Col("a"), Lit(Value(int64_t{-3}))));
  out.push_back(Expr::Binary(BinaryOp::kDiv, Lit(Value(int64_t{6})), Col("a")));
  out.push_back(Expr::Binary(BinaryOp::kDiv, Col("f"), Lit(Value(0.0))));
  out.push_back(Expr::Binary(BinaryOp::kSub, Col("a"), Col("f")));
  return out;
}

class StringKernelsParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StringKernelsParityTest, VectorMatchesRowEvaluation) {
  Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const bool nulls = round % 2 == 0;
    const ColumnBatch dense =
        RandomBatch(&rng, static_cast<int>(rng.UniformInt(0, 120)), nulls);
    const ColumnBatch view = SelectionView(&rng, dense);
    for (const ExprPtr& e : RoundExprs(&rng)) {
      ExpectVectorMatchesRows(e, dense);
      ExpectVectorMatchesRows(e, view);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringKernelsParityTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(StringKernelsEdgeTest, UnsignedByteOrderAndPrefixTies) {
  Batch b;
  b.schema = TestSchema();
  const std::vector<std::string> strs = {
      "prefix00a", "prefix00b", "prefix00", std::string("ab\0", 3), "ab",
      "\x80",      "\x7f",      ""};
  for (const std::string& s : strs) {
    b.rows.push_back({Value(s), Value("prefix00a"), Value(int64_t{1}),
                      Value(0.5), Value(s)});
  }
  const ColumnBatch cb = *ToColumnBatch(b);
  const Result<BoundExprPtr> lt =
      Bind(Expr::Binary(BinaryOp::kLt, Col("s"), Col("t")), cb.schema);
  ASSERT_TRUE(lt.ok());
  ColumnVector got;
  ASSERT_TRUE((*lt)->EvaluateVector(cb, &got).ok());
  // "prefix00a" < "prefix00a" no; "prefix00b" no; "prefix00" yes;
  // "ab\0" yes; "ab" yes; "\x80" no (unsigned: after 'p'); "\x7f" no;
  // "" yes.
  const std::vector<int64_t> want = {0, 0, 1, 1, 1, 0, 0, 1};
  ASSERT_EQ(got.rep(), ColumnRep::kInt64);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.Int64At(i), want[i]) << "row " << i;
  }
}

TEST(StringKernelsEdgeTest, StringNumberComparisonKeepsRowPathError) {
  Batch b;
  b.schema = TestSchema();
  b.rows.push_back({Value("x"), Value("y"), Value(int64_t{1}), Value(0.5),
                    Value("z")});
  const ColumnBatch cb = *ToColumnBatch(b);
  const Result<BoundExprPtr> e = Bind(
      Expr::Binary(BinaryOp::kLt, Col("s"), Lit(Value(int64_t{5}))), cb.schema);
  ASSERT_TRUE(e.ok());
  ColumnVector got;
  const Status st = (*e)->EvaluateVector(cb, &got);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("cannot compare string with int64"),
            std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace swift
