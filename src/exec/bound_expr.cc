#include "exec/bound_expr.h"

#include <string>
#include <string_view>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "exec/column_batch.h"
#include "exec/expr_eval.h"

namespace swift {

namespace {

using expr_eval::Arith;
using expr_eval::Compare;
using expr_eval::FromTruth;
using expr_eval::FuncId;
using expr_eval::Truth;

bool IsNumericType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kFloat64;
}

// ---- Scalar kernels shared by Evaluate and EvaluateVector -----------
// The row and columnar evaluators must agree bit-for-bit, so the
// non-null scalar tails live here and both paths call them.

Result<Value> NumericArithScalar(BinaryOp op, const Value& lv,
                                 const Value& rv) {
  if (lv.is_float64() && rv.is_float64()) {
    const double a = lv.float64_unchecked();
    const double b = rv.float64_unchecked();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(a + b);
      case BinaryOp::kSub:
        return Value(a - b);
      case BinaryOp::kMul:
        return Value(a * b);
      case BinaryOp::kDiv:
        if (b == 0.0) return Status::Application("division by zero");
        return Value(a / b);
      default:
        break;
    }
  } else if (lv.is_int64() && rv.is_int64()) {
    const int64_t a = lv.int64_unchecked();
    const int64_t b = rv.int64_unchecked();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(a + b);
      case BinaryOp::kSub:
        return Value(a - b);
      case BinaryOp::kMul:
        return Value(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::Application("division by zero");
        return Value(static_cast<double>(a) / static_cast<double>(b));
      default:
        break;
    }
  }
  return Arith(op, lv, rv);
}

// Whether comparison `op` holds for a three-way result c (<0, 0, >0).
bool CompareHolds(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq:
      return c == 0;
    case BinaryOp::kNe:
      return c != 0;
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLe:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    default:
      return c >= 0;
  }
}

Result<Value> NumericCompareScalar(BinaryOp op, const Value& lv,
                                   const Value& rv) {
  if (lv.is_numeric() && rv.is_numeric()) {
    int c;
    if (lv.is_int64() && rv.is_int64()) {
      const int64_t a = lv.int64_unchecked();
      const int64_t b = rv.int64_unchecked();
      c = a < b ? -1 : (a > b ? 1 : 0);
    } else {
      const double a = lv.AsDouble();
      const double b = rv.AsDouble();
      c = a < b ? -1 : (a > b ? 1 : 0);
    }
    return Value(static_cast<int64_t>(CompareHolds(op, c) ? 1 : 0));
  }
  return Compare(op, lv, rv);
}

Result<Value> NegateScalar(const Value& v) {
  if (!v.is_numeric()) {
    return Status::Application("negation of non-numeric value");
  }
  if (v.is_int64()) return Value(-v.int64_unchecked());
  return Value(-v.float64_unchecked());
}

// Truth() over a column cell without boxing: -1 NULL, 0 false, 1 true.
int TruthAt(const ColumnVector& c, std::size_t i) {
  switch (c.rep()) {
    case ColumnRep::kNull:
      return -1;
    case ColumnRep::kInt64:
      return c.IsNull(i) ? -1 : (c.Int64At(i) != 0 ? 1 : 0);
    case ColumnRep::kFloat64:
      return c.IsNull(i) ? -1 : (c.Float64At(i) != 0.0 ? 1 : 0);
    case ColumnRep::kString:
      return c.IsNull(i) ? -1 : (!c.StrAt(i).empty() ? 1 : 0);
    case ColumnRep::kBoxed:
      return Truth(c.BoxedAt(i));
  }
  return -1;
}

bool IsArithOp(BinaryOp op) {
  return op == BinaryOp::kAdd || op == BinaryOp::kSub ||
         op == BinaryOp::kMul || op == BinaryOp::kDiv;
}

bool IsCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

class BoundColumn final : public BoundExpr {
 public:
  BoundColumn(std::size_t idx, std::string name, DataType t)
      : BoundExpr(t), idx_(idx), name_(std::move(name)) {}

  Result<Value> Evaluate(const Row& row) const override {
    if (idx_ >= row.size()) {
      return Status::Internal(
          StrFormat("row narrower than schema at column '%s'", name_.c_str()));
    }
    return row[idx_];
  }

  Status EvaluateColumn(const std::vector<Row>& rows,
                        std::vector<Value>* out) const override {
    out->clear();
    out->reserve(rows.size());
    for (const Row& r : rows) {
      if (idx_ >= r.size()) {
        return Status::Internal(StrFormat(
            "row narrower than schema at column '%s'", name_.c_str()));
      }
      out->push_back(r[idx_]);
    }
    return Status::OK();
  }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    if (idx_ >= in.columns.size()) {
      return Status::Internal(
          StrFormat("row narrower than schema at column '%s'", name_.c_str()));
    }
    const ColumnVector& src = in.columns[idx_];
    if (!in.selection) {
      *out = src;  // dense batch: contiguous storage copy, no boxing
      return Status::OK();
    }
    *out = ColumnVector::OfRep(src.rep());
    const std::vector<uint32_t>& sel = *in.selection;
    out->Reserve(sel.size());
    for (const uint32_t phys : sel) out->AppendFrom(src, phys);
    return Status::OK();
  }

  int64_t column_ordinal() const override {
    return static_cast<int64_t>(idx_);
  }

 private:
  std::size_t idx_;
  std::string name_;
};

class BoundLiteral final : public BoundExpr {
 public:
  explicit BoundLiteral(Value v)
      : BoundExpr(v.type()),
        v_(std::move(v)),
        cell_(ColumnVector::OfType(v_.type())) {
    cell_.Append(v_);
  }

  Result<Value> Evaluate(const Row&) const override { return v_; }

  Status EvaluateColumn(const std::vector<Row>& rows,
                        std::vector<Value>* out) const override {
    out->assign(rows.size(), v_);
    return Status::OK();
  }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    *out = ColumnVector::OfType(v_.type());
    const std::size_t n = in.num_rows();
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) out->Append(v_);
    return Status::OK();
  }

  const Value* literal() const override { return &v_; }

  /// The value as a one-cell column, for kernels that read it as a scalar.
  const ColumnVector& cell() const { return cell_; }

 private:
  Value v_;
  ColumnVector cell_;
};

// One input of a typed kernel, read without building a column where it
// can be: a literal is its one-cell column, read at cell 0 for every
// logical row; a plain column reference is read in place through the
// batch's selection; anything else is evaluated densely into scratch.
class Operand {
 public:
  Status Resolve(const BoundExpr& e, const ColumnBatch& in) {
    scalar_ = e.literal() != nullptr;
    sel_ = nullptr;
    if (scalar_) {
      col_ = &static_cast<const BoundLiteral&>(e).cell();
      return Status::OK();
    }
    const int64_t ord = e.column_ordinal();
    if (ord >= 0 && static_cast<std::size_t>(ord) < in.columns.size()) {
      col_ = &in.columns[static_cast<std::size_t>(ord)];
      if (in.selection) sel_ = &*in.selection;
      return Status::OK();
    }
    col_ = &scratch_;
    return e.EvaluateVector(in, &scratch_);
  }

  const ColumnVector& col() const { return *col_; }
  ColumnRep rep() const { return col_->rep(); }

  /// Index into col() of logical row i.
  std::size_t row(std::size_t i) const {
    if (scalar_) return 0;
    return sel_ != nullptr ? (*sel_)[i] : i;
  }

 private:
  const ColumnVector* col_ = nullptr;
  const std::vector<uint32_t>* sel_ = nullptr;
  bool scalar_ = false;
  ColumnVector scratch_;
};

bool IsNumericRep(ColumnRep r) {
  return r == ColumnRep::kInt64 || r == ColumnRep::kFloat64;
}

// Numeric cell i of an int64 or float64 column, widened to double.
double DoubleAt(const ColumnVector& c, std::size_t i) {
  return c.rep() == ColumnRep::kInt64 ? static_cast<double>(c.Int64At(i))
                                      : c.Float64At(i);
}

// A constant subtree whose evaluation fails (e.g. a literal 1/0): the
// error stays an eval-time error, exactly as in the interpreted tree.
class BoundError final : public BoundExpr {
 public:
  explicit BoundError(Status st)
      : BoundExpr(DataType::kNull), st_(std::move(st)) {}

  Result<Value> Evaluate(const Row&) const override { return st_; }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    (void)out;
    // A constant error errors on any non-empty batch, like the row path.
    if (in.num_rows() == 0) {
      *out = ColumnVector();
      return Status::OK();
    }
    return st_;
  }

 private:
  Status st_;
};

class BoundAndOr final : public BoundExpr {
 public:
  BoundAndOr(BinaryOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(DataType::kInt64),
        is_and_(op == BinaryOp::kAnd),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Result<Value> Evaluate(const Row& row) const override {
    SWIFT_ASSIGN_OR_RETURN(Value lv, lhs_->Evaluate(row));
    const int lt = Truth(lv);
    // Short-circuit on the dominating value.
    if (is_and_ && lt == 0) return Value(int64_t{0});
    if (!is_and_ && lt == 1) return Value(int64_t{1});
    SWIFT_ASSIGN_OR_RETURN(Value rv, rhs_->Evaluate(row));
    const int rt = Truth(rv);
    if (is_and_) {
      if (rt == 0) return Value(int64_t{0});
      return FromTruth((lt == 1 && rt == 1) ? 1 : -1);
    }
    if (rt == 1) return Value(int64_t{1});
    return FromTruth((lt == 0 && rt == 0) ? 0 : -1);
  }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    ColumnVector lv;
    ColumnVector rv;
    // Both operands are evaluated whole-column; if either fails, the
    // batch is re-run row-at-a-time so short-circuiting can suppress
    // errors in dominated positions exactly as the row path does.
    if (!lhs_->EvaluateVector(in, &lv).ok() ||
        !rhs_->EvaluateVector(in, &rv).ok()) {
      return BoundExpr::EvaluateVector(in, out);
    }
    const std::size_t n = in.num_rows();
    *out = ColumnVector::OfType(DataType::kInt64);
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int lt = TruthAt(lv, i);
      const int rt = TruthAt(rv, i);
      int res;  // Kleene three-valued AND/OR
      if (is_and_) {
        res = (lt == 0 || rt == 0) ? 0 : ((lt == 1 && rt == 1) ? 1 : -1);
      } else {
        res = (lt == 1 || rt == 1) ? 1 : ((lt == 0 && rt == 0) ? 0 : -1);
      }
      if (res < 0) {
        out->AppendNull();
      } else {
        out->AppendInt64(res);
      }
    }
    return Status::OK();
  }

 private:
  bool is_and_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

// Generic binary node: delegates to the shared kernels.
class BoundBinary final : public BoundExpr {
 public:
  BoundBinary(BinaryOp op, DataType t, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(t), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Evaluate(const Row& row) const override {
    SWIFT_ASSIGN_OR_RETURN(Value lv, lhs_->Evaluate(row));
    SWIFT_ASSIGN_OR_RETURN(Value rv, rhs_->Evaluate(row));
    if (lv.is_null() || rv.is_null()) return Value::Null();
    if (IsArithOp(op_)) return Arith(op_, lv, rv);
    if (IsCompareOp(op_)) return Compare(op_, lv, rv);
    if (op_ == BinaryOp::kLike) {
      if (!lv.is_string() || !rv.is_string()) {
        return Status::Application("LIKE requires string operands");
      }
      return Value(
          static_cast<int64_t>(SqlLikeMatch(lv.str(), rv.str()) ? 1 : 0));
    }
    return Status::Internal("unhandled binary op");
  }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    if ((IsCompareOp(op_) || op_ == BinaryOp::kLike) &&
        StringKernel(in, out)) {
      return Status::OK();
    }
    return BoundExpr::EvaluateVector(in, out);
  }

 private:
  // Column-at-a-time string comparison / LIKE for a kString left operand
  // against a kString right operand (a string literal is a one-cell
  // kString column). Two strings can neither fail to compare nor fail to
  // match, so the result is exactly Evaluate's. Returns false, leaving
  // `*out` to the row path, for any other operand shape — including an
  // operand whose evaluation fails, so error text stays the row path's.
  bool StringKernel(const ColumnBatch& in, ColumnVector* out) const {
    Operand l;
    Operand r;
    if (!l.Resolve(*lhs_, in).ok() || l.rep() != ColumnRep::kString ||
        !r.Resolve(*rhs_, in).ok() || r.rep() != ColumnRep::kString) {
      return false;
    }
    const ColumnVector& lc = l.col();
    const ColumnVector& rc = r.col();
    const bool nullable = lc.has_nulls() || rc.has_nulls();
    const std::size_t n = in.num_rows();
    *out = ColumnVector::OfType(DataType::kInt64);
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t li = l.row(i);
      const std::size_t ri = r.row(i);
      if (nullable && (lc.IsNull(li) || rc.IsNull(ri))) {
        out->AppendNull();
        continue;
      }
      const std::string_view a = lc.StrAt(li);
      const std::string_view b = rc.StrAt(ri);
      const bool t = op_ == BinaryOp::kLike ? SqlLikeMatch(a, b)
                                            : CompareHolds(op_, a.compare(b));
      out->AppendInt64(t ? 1 : 0);
    }
    return true;
  }

  BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

// Fast path for arithmetic when both subtrees are statically numeric:
// the matched-type cases compute inline; anything else (mixed int/float,
// runtime type surprises) falls back to the shared kernel for identical
// results and error text.
class BoundNumericArith final : public BoundExpr {
 public:
  BoundNumericArith(BinaryOp op, DataType t, BoundExprPtr lhs,
                    BoundExprPtr rhs)
      : BoundExpr(t), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Evaluate(const Row& row) const override {
    SWIFT_ASSIGN_OR_RETURN(Value lv, lhs_->Evaluate(row));
    SWIFT_ASSIGN_OR_RETURN(Value rv, rhs_->Evaluate(row));
    if (lv.is_null() || rv.is_null()) return Value::Null();
    return NumericArithScalar(op_, lv, rv);
  }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    Operand l;
    Operand r;
    SWIFT_RETURN_NOT_OK(l.Resolve(*lhs_, in));
    SWIFT_RETURN_NOT_OK(r.Resolve(*rhs_, in));
    const ColumnVector& lc = l.col();
    const ColumnVector& rc = r.col();
    const std::size_t n = in.num_rows();
    const bool no_nulls = !lc.has_nulls() && !rc.has_nulls();
    // Typed loops: int64 (op) int64 stays exact; every other numeric
    // pairing — float64 on either side, or an int64 division — computes
    // in double, as the shared scalar kernel does. Anything else goes
    // cell-by-cell through that kernel (identical results and errors).
    if (lc.rep() == ColumnRep::kInt64 && rc.rep() == ColumnRep::kInt64 &&
        op_ != BinaryOp::kDiv) {
      *out = ColumnVector::OfType(DataType::kInt64);
      out->Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t li = l.row(i);
        const std::size_t ri = r.row(i);
        if (!no_nulls && (lc.IsNull(li) || rc.IsNull(ri))) {
          out->AppendNull();
          continue;
        }
        const int64_t a = lc.Int64At(li);
        const int64_t b = rc.Int64At(ri);
        int64_t v = 0;
        switch (op_) {
          case BinaryOp::kAdd:
            v = a + b;
            break;
          case BinaryOp::kSub:
            v = a - b;
            break;
          default:
            v = a * b;
            break;
        }
        out->AppendInt64(v);
      }
      return Status::OK();
    }
    if (IsNumericRep(lc.rep()) && IsNumericRep(rc.rep())) {
      *out = ColumnVector::OfType(DataType::kFloat64);
      out->Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t li = l.row(i);
        const std::size_t ri = r.row(i);
        if (!no_nulls && (lc.IsNull(li) || rc.IsNull(ri))) {
          out->AppendNull();
          continue;
        }
        const double a = DoubleAt(lc, li);
        const double b = DoubleAt(rc, ri);
        double v = 0;
        switch (op_) {
          case BinaryOp::kAdd:
            v = a + b;
            break;
          case BinaryOp::kSub:
            v = a - b;
            break;
          case BinaryOp::kMul:
            v = a * b;
            break;
          default:
            if (b == 0.0) return Status::Application("division by zero");
            v = a / b;
            break;
        }
        out->AppendFloat64(v);
      }
      return Status::OK();
    }
    *out = ColumnVector::OfType(static_type_);
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Value a = lc.GetValue(l.row(i));
      const Value b = rc.GetValue(r.row(i));
      if (a.is_null() || b.is_null()) {
        out->AppendNull();
        continue;
      }
      SWIFT_ASSIGN_OR_RETURN(Value v, NumericArithScalar(op_, a, b));
      out->Append(v);
    }
    return Status::OK();
  }

 private:
  BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

// Fast path for comparisons when both subtrees are statically numeric.
class BoundNumericCompare final : public BoundExpr {
 public:
  BoundNumericCompare(BinaryOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(DataType::kInt64),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Result<Value> Evaluate(const Row& row) const override {
    SWIFT_ASSIGN_OR_RETURN(Value lv, lhs_->Evaluate(row));
    SWIFT_ASSIGN_OR_RETURN(Value rv, rhs_->Evaluate(row));
    if (lv.is_null() || rv.is_null()) return Value::Null();
    return NumericCompareScalar(op_, lv, rv);
  }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    Operand l;
    Operand r;
    SWIFT_RETURN_NOT_OK(l.Resolve(*lhs_, in));
    SWIFT_RETURN_NOT_OK(r.Resolve(*rhs_, in));
    const ColumnVector& lc = l.col();
    const ColumnVector& rc = r.col();
    const std::size_t n = in.num_rows();
    *out = ColumnVector::OfType(DataType::kInt64);
    out->Reserve(n);
    if (IsNumericRep(lc.rep()) && IsNumericRep(rc.rep())) {
      const bool both_int = lc.rep() == ColumnRep::kInt64 &&
                            rc.rep() == ColumnRep::kInt64;
      const bool no_nulls = !lc.has_nulls() && !rc.has_nulls();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t li = l.row(i);
        const std::size_t ri = r.row(i);
        if (!no_nulls && (lc.IsNull(li) || rc.IsNull(ri))) {
          out->AppendNull();
          continue;
        }
        int c;
        if (both_int) {
          const int64_t a = lc.Int64At(li);
          const int64_t b = rc.Int64At(ri);
          c = a < b ? -1 : (a > b ? 1 : 0);
        } else {
          const double a = DoubleAt(lc, li);
          const double b = DoubleAt(rc, ri);
          c = a < b ? -1 : (a > b ? 1 : 0);
        }
        out->AppendInt64(CompareHolds(op_, c) ? 1 : 0);
      }
      return Status::OK();
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Value a = lc.GetValue(l.row(i));
      const Value b = rc.GetValue(r.row(i));
      if (a.is_null() || b.is_null()) {
        out->AppendNull();
        continue;
      }
      SWIFT_ASSIGN_OR_RETURN(Value v, NumericCompareScalar(op_, a, b));
      out->Append(v);
    }
    return Status::OK();
  }

 private:
  BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

class BoundUnary final : public BoundExpr {
 public:
  BoundUnary(UnaryOp op, DataType t, BoundExprPtr operand)
      : BoundExpr(t), op_(op), operand_(std::move(operand)) {}

  Result<Value> Evaluate(const Row& row) const override {
    SWIFT_ASSIGN_OR_RETURN(Value v, operand_->Evaluate(row));
    if (v.is_null()) return Value::Null();
    if (op_ == UnaryOp::kNot) {
      return FromTruth(Truth(v) == 1 ? 0 : 1);
    }
    return NegateScalar(v);
  }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    ColumnVector v;
    SWIFT_RETURN_NOT_OK(operand_->EvaluateVector(in, &v));
    const std::size_t n = in.num_rows();
    if (op_ == UnaryOp::kNot) {
      *out = ColumnVector::OfType(DataType::kInt64);
      out->Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const int t = TruthAt(v, i);
        if (t < 0) {
          out->AppendNull();
        } else {
          out->AppendInt64(t == 1 ? 0 : 1);
        }
      }
      return Status::OK();
    }
    if (v.rep() == ColumnRep::kInt64) {
      *out = ColumnVector::OfType(DataType::kInt64);
      out->Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (v.IsNull(i)) {
          out->AppendNull();
        } else {
          out->AppendInt64(-v.Int64At(i));
        }
      }
      return Status::OK();
    }
    if (v.rep() == ColumnRep::kFloat64) {
      *out = ColumnVector::OfType(DataType::kFloat64);
      out->Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (v.IsNull(i)) {
          out->AppendNull();
        } else {
          out->AppendFloat64(-v.Float64At(i));
        }
      }
      return Status::OK();
    }
    *out = ColumnVector::OfType(static_type_);
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Value a = v.GetValue(i);
      if (a.is_null()) {
        out->AppendNull();
        continue;
      }
      SWIFT_ASSIGN_OR_RETURN(Value r, NegateScalar(a));
      out->Append(r);
    }
    return Status::OK();
  }

 private:
  UnaryOp op_;
  BoundExprPtr operand_;
};

class BoundFunction final : public BoundExpr {
 public:
  BoundFunction(FuncId id, std::string name, DataType t,
                std::vector<BoundExprPtr> args)
      : BoundExpr(t), id_(id), name_(std::move(name)), args_(std::move(args)) {}

  Result<Value> Evaluate(const Row& row) const override {
    std::vector<Value> vals;
    vals.reserve(args_.size());
    for (const BoundExprPtr& a : args_) {
      SWIFT_ASSIGN_OR_RETURN(Value v, a->Evaluate(row));
      vals.push_back(std::move(v));
    }
    return expr_eval::ApplyFunction(id_, name_, vals);
  }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    if (id_ == FuncId::kSubstr && SubstrKernel(in, out)) return Status::OK();
    return BoundExpr::EvaluateVector(in, out);
  }

 private:
  // Column-at-a-time substr(s, start, len) for a kString `s` and numeric
  // literal positions, clamped exactly as ApplyFunction clamps them.
  // Returns false, leaving `*out` to the row path, for any other shape.
  bool SubstrKernel(const ColumnBatch& in, ColumnVector* out) const {
    if (args_.size() != 3) return false;
    const Value* start_v = args_[1]->literal();
    const Value* len_v = args_[2]->literal();
    if (start_v == nullptr || len_v == nullptr || !start_v->is_numeric() ||
        !len_v->is_numeric()) {
      return false;
    }
    Operand s;
    if (!s.Resolve(*args_[0], in).ok() || s.rep() != ColumnRep::kString) {
      return false;
    }
    int64_t start = static_cast<int64_t>(start_v->AsDouble());
    int64_t len = static_cast<int64_t>(len_v->AsDouble());
    if (start < 1) start = 1;
    if (len < 0) len = 0;
    const std::size_t pos = static_cast<std::size_t>(start - 1);
    const ColumnVector& sc = s.col();
    const std::size_t n = in.num_rows();
    *out = ColumnVector::OfType(DataType::kString);
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t si = s.row(i);
      if (sc.IsNull(si)) {
        out->AppendNull();
        continue;
      }
      const std::string_view v = sc.StrAt(si);
      out->AppendString(pos >= v.size()
                            ? std::string_view()
                            : v.substr(pos, static_cast<std::size_t>(len)));
    }
    return true;
  }

  FuncId id_;
  std::string name_;
  std::vector<BoundExprPtr> args_;
};

// Constant nodes are BoundLiteral (value known) or BoundError (its
// evaluation is a constant failure); anything else depends on the row.
bool IsConstNode(const BoundExprPtr& n) {
  return n->literal() != nullptr ||
         dynamic_cast<const BoundError*>(n.get()) != nullptr;
}

// Folds a node whose children are all constant by evaluating it once
// against an empty row. Evaluation honors short-circuit semantics, so a
// constant error under a dominated AND/OR branch folds away exactly as
// the interpreter would have skipped it.
BoundExprPtr FoldIfConst(BoundExprPtr node, bool children_const) {
  if (!children_const) return node;
  Result<Value> v = node->Evaluate(Row{});
  if (v.ok()) {
    return std::make_shared<BoundLiteral>(std::move(*v));
  }
  return std::make_shared<BoundError>(v.status());
}

DataType ArithStaticType(BinaryOp op, const BoundExprPtr& lhs,
                         const BoundExprPtr& rhs) {
  if (op == BinaryOp::kDiv) return DataType::kFloat64;
  return (lhs->static_type() == DataType::kFloat64 ||
          rhs->static_type() == DataType::kFloat64)
             ? DataType::kFloat64
             : DataType::kInt64;
}

DataType FunctionStaticType(FuncId id, const std::vector<BoundExprPtr>& args) {
  switch (id) {
    case FuncId::kSubstr:
    case FuncId::kLower:
    case FuncId::kUpper:
      return DataType::kString;
    case FuncId::kIsNull:
      return DataType::kInt64;
    case FuncId::kAbs:
    case FuncId::kCoalesce:
      return args.empty() ? DataType::kNull : args[0]->static_type();
    default:
      return DataType::kNull;
  }
}

Result<BoundExprPtr> BindImpl(const ExprPtr& expr, const Schema& schema) {
  switch (expr->kind()) {
    case ExprKind::kColumn: {
      const std::string& name = *AsColumnName(*expr);
      SWIFT_ASSIGN_OR_RETURN(std::size_t idx, schema.IndexOf(name));
      return BoundExprPtr(std::make_shared<BoundColumn>(
          idx, name, schema.field(idx).type));
    }
    case ExprKind::kLiteral:
      return BoundExprPtr(std::make_shared<BoundLiteral>(
          *AsLiteralValue(*expr)));
    case ExprKind::kBinary: {
      const BinaryParts parts = *AsBinary(expr);
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr lhs, BindImpl(parts.lhs, schema));
      if (parts.op == BinaryOp::kAnd || parts.op == BinaryOp::kOr) {
        // A dominating constant lhs folds the node before rhs is even
        // bound: the interpreter short-circuits past rhs on every row,
        // so rhs must not be able to raise errors here either.
        if (const Value* lv = lhs->literal()) {
          const int lt = Truth(*lv);
          if (parts.op == BinaryOp::kAnd && lt == 0) {
            return BoundExprPtr(
                std::make_shared<BoundLiteral>(Value(int64_t{0})));
          }
          if (parts.op == BinaryOp::kOr && lt == 1) {
            return BoundExprPtr(
                std::make_shared<BoundLiteral>(Value(int64_t{1})));
          }
        }
        SWIFT_ASSIGN_OR_RETURN(BoundExprPtr rhs, BindImpl(parts.rhs, schema));
        const bool both_const = IsConstNode(lhs) && IsConstNode(rhs);
        return FoldIfConst(std::make_shared<BoundAndOr>(
                               parts.op, std::move(lhs), std::move(rhs)),
                           both_const);
      }
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr rhs, BindImpl(parts.rhs, schema));
      const bool both_const = IsConstNode(lhs) && IsConstNode(rhs);
      const bool numeric_children = IsNumericType(lhs->static_type()) &&
                                    IsNumericType(rhs->static_type());
      BoundExprPtr node;
      if (IsArithOp(parts.op) && numeric_children) {
        const DataType t = ArithStaticType(parts.op, lhs, rhs);
        node = std::make_shared<BoundNumericArith>(parts.op, t,
                                                   std::move(lhs),
                                                   std::move(rhs));
      } else if (IsCompareOp(parts.op) && numeric_children) {
        node = std::make_shared<BoundNumericCompare>(parts.op, std::move(lhs),
                                                     std::move(rhs));
      } else {
        const DataType t = IsArithOp(parts.op)
                               ? ArithStaticType(parts.op, lhs, rhs)
                               : DataType::kInt64;
        node = std::make_shared<BoundBinary>(parts.op, t, std::move(lhs),
                                             std::move(rhs));
      }
      return FoldIfConst(std::move(node), both_const);
    }
    case ExprKind::kUnary: {
      const UnaryParts parts = *AsUnary(expr);
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr operand,
                             BindImpl(parts.operand, schema));
      const bool operand_const = IsConstNode(operand);
      const DataType t = parts.op == UnaryOp::kNot ? DataType::kInt64
                                                   : operand->static_type();
      return FoldIfConst(
          std::make_shared<BoundUnary>(parts.op, t, std::move(operand)),
          operand_const);
    }
    case ExprKind::kFunction: {
      const FunctionParts parts = *AsFunction(expr);
      std::vector<BoundExprPtr> args;
      args.reserve(parts.args.size());
      bool all_const = true;
      for (const ExprPtr& a : parts.args) {
        SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, BindImpl(a, schema));
        all_const = all_const && IsConstNode(b);
        args.push_back(std::move(b));
      }
      const FuncId id = expr_eval::ResolveFunction(parts.name);
      const DataType t = FunctionStaticType(id, args);
      return FoldIfConst(std::make_shared<BoundFunction>(id, parts.name, t,
                                                         std::move(args)),
                         all_const);
    }
  }
  return Status::Internal("unhandled expression kind in Bind");
}

}  // namespace

Status BoundExpr::EvaluateColumn(const std::vector<Row>& rows,
                                 std::vector<Value>* out) const {
  out->clear();
  out->reserve(rows.size());
  for (const Row& r : rows) {
    SWIFT_ASSIGN_OR_RETURN(Value v, Evaluate(r));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

Status BoundExpr::EvaluateVector(const ColumnBatch& in,
                                 ColumnVector* out) const {
  // Generic fallback: box each logical row and evaluate row-at-a-time.
  // Semantics (including short-circuiting and error order) are exactly
  // the row path's; only the layout differs.
  *out = ColumnVector::OfType(static_type_);
  const std::size_t n = in.num_rows();
  out->Reserve(n);
  Row row;
  for (std::size_t i = 0; i < n; ++i) {
    in.MaterializeRow(i, &row);
    SWIFT_ASSIGN_OR_RETURN(Value v, Evaluate(row));
    out->Append(v);
  }
  return Status::OK();
}

Result<BoundExprPtr> Bind(const ExprPtr& expr, const Schema& schema) {
  if (expr == nullptr) {
    return Status::InvalidArgument("cannot bind a null expression");
  }
  return BindImpl(expr, schema);
}

Result<std::vector<BoundExprPtr>> BindAll(const std::vector<ExprPtr>& exprs,
                                          const Schema& schema) {
  std::vector<BoundExprPtr> out;
  out.reserve(exprs.size());
  for (const ExprPtr& e : exprs) {
    SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(e, schema));
    out.push_back(std::move(b));
  }
  return out;
}

Result<bool> EvaluateBoundPredicate(const BoundExpr& expr, const Row& row) {
  SWIFT_ASSIGN_OR_RETURN(Value v, expr.Evaluate(row));
  if (v.is_null()) return false;
  if (v.is_int64()) return v.int64() != 0;
  if (v.is_float64()) return v.float64() != 0.0;
  return !v.str().empty();
}

Status EvalBoundKeys(const std::vector<BoundExprPtr>& keys, const Row& row,
                     Row* key) {
  key->clear();
  key->reserve(keys.size());
  for (const BoundExprPtr& e : keys) {
    SWIFT_ASSIGN_OR_RETURN(Value v, e->Evaluate(row));
    key->push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace swift
