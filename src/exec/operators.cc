#include "exec/operators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string_view>
#include <utility>

#include "common/hash64.h"
#include "common/macros.h"
#include "exec/bound_expr.h"
#include "exec/hash_table.h"
#include "exec/key_encoder.h"

namespace swift {
namespace {

// Predicate truthiness of one cell without boxing the common reps
// (EvaluatePredicate semantics: NULL is false, numeric nonzero /
// non-empty string true).
bool TruthyAt(const ColumnVector& col, std::size_t i) {
  switch (col.rep()) {
    case ColumnRep::kNull:
      return false;
    case ColumnRep::kInt64:
      return !col.IsNull(i) && col.Int64At(i) != 0;
    case ColumnRep::kFloat64:
      return !col.IsNull(i) && col.Float64At(i) != 0.0;
    case ColumnRep::kString:
      return !col.IsNull(i) && !col.StrAt(i).empty();
    case ColumnRep::kBoxed: {
      const Value& v = col.BoxedAt(i);
      if (v.is_null()) return false;
      if (v.is_int64()) return v.int64() != 0;
      if (v.is_float64()) return v.float64() != 0.0;
      return !v.str().empty();
    }
  }
  return false;
}

std::string_view KindName(AggKind k) {
  switch (k) {
    case AggKind::kSum:
      return "sum";
    case AggKind::kCount:
      return "count";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
  }
  return "?";
}

// Cell-level comparison with Value::Compare semantics exactly — NULLs
// first (and equal to each other), int64/int64 exact, mixed numerics by
// double value, strings lexicographic, numbers before strings — but
// reading typed storage directly, so the comparators never box the
// common reps.
int CompareCells(const ColumnVector& a, std::size_t i, const ColumnVector& b,
                 std::size_t j) {
  const bool ln = a.IsNull(i);
  const bool rn = b.IsNull(j);
  if (ln || rn) return ln == rn ? 0 : (ln ? -1 : 1);
  const ColumnRep ra = a.rep();
  const ColumnRep rb = b.rep();
  if (ra == ColumnRep::kInt64 && rb == ColumnRep::kInt64) {
    const int64_t x = a.Int64At(i);
    const int64_t y = b.Int64At(j);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const bool na = ra == ColumnRep::kInt64 || ra == ColumnRep::kFloat64;
  const bool nb = rb == ColumnRep::kInt64 || rb == ColumnRep::kFloat64;
  if (na && nb) {
    const double x =
        ra == ColumnRep::kInt64 ? static_cast<double>(a.Int64At(i))
                                : a.Float64At(i);
    const double y =
        rb == ColumnRep::kInt64 ? static_cast<double>(b.Int64At(j))
                                : b.Float64At(j);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (ra == ColumnRep::kString && rb == ColumnRep::kString) {
    const int c = a.StrAt(i).compare(b.StrAt(j));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Boxed or mixed-rep cells: defer to the boxed comparison.
  return a.GetValue(i).Compare(b.GetValue(j));
}

// An empty dense batch with one column pre-typed per schema field.
ColumnBatch EmptyBatchOf(const Schema& schema) {
  ColumnBatch out;
  out.schema = schema;
  out.columns.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    out.columns.push_back(ColumnVector::OfType(f.type));
  }
  return out;
}

// Drains `child` into one dense batch of its output schema (selections
// are gathered away by the concatenation).
Status DrainColumnar(PhysicalOperator* child, ColumnBatch* out) {
  std::vector<ColumnBatch> parts;
  for (;;) {
    SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> b, child->Next());
    if (!b.has_value()) break;
    parts.push_back(std::move(*b));
  }
  *out = ConcatColumnBatches(child->output_schema(), std::move(parts));
  return Status::OK();
}

// Where one batch's key columns live. Plain column keys (the common
// case) are read in place through the batch's selection; computed keys
// are evaluated with EvaluateVector into a dense batch of their own.
// Either way, key k of logical row i is column(k) at row(i).
class KeyColumns {
 public:
  KeyColumns() = default;
  explicit KeyColumns(std::vector<BoundExprPtr> keys) : keys_(std::move(keys)) {
    if (!KeyEncoder::ColumnOrdinals(keys_, &cols_)) {
      computed_ = true;
      cols_.resize(keys_.size());
      std::iota(cols_.begin(), cols_.end(), 0u);
    }
  }

  // Points the view at `b`'s keys; valid until the next Resolve and only
  // while `b` is alive.
  Status Resolve(const ColumnBatch& b) {
    input_ = &b;
    if (!computed_) {
      for (const uint32_t c : cols_) {
        if (c >= b.columns.size()) {
          return Status::Internal("batch narrower than key schema");
        }
      }
      return Status::OK();
    }
    evaluated_.columns.resize(keys_.size());
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      SWIFT_RETURN_NOT_OK(keys_[k]->EvaluateVector(b, &evaluated_.columns[k]));
    }
    evaluated_.physical_rows = b.num_rows();
    return Status::OK();
  }

  // The batch holding the key columns `cols()`.
  const ColumnBatch& batch() const { return computed_ ? evaluated_ : *input_; }
  const std::vector<uint32_t>& cols() const { return cols_; }
  std::size_t size() const { return cols_.size(); }
  const ColumnVector& column(std::size_t k) const {
    return batch().columns[cols_[k]];
  }
  std::size_t row(std::size_t i) const { return batch().PhysicalIndex(i); }

  bool HasNull(std::size_t i) const {
    for (std::size_t k = 0; k < cols_.size(); ++k) {
      if (column(k).IsNull(row(i))) return true;
    }
    return false;
  }

  // Lexicographic CompareCells of logical row i here against logical
  // row j of `other` (which may be this view).
  int Compare(std::size_t i, const KeyColumns& other, std::size_t j) const {
    for (std::size_t k = 0; k < cols_.size(); ++k) {
      const int c = CompareCells(column(k), row(i), other.column(k), other.row(j));
      if (c != 0) return c;
    }
    return 0;
  }

  // Calls fn(i, encoded_key, hash, has_null) for every logical row: one
  // vectorized encode pass, or per-row encoding when the batch carries
  // more than 4 GiB of key bytes.
  template <typename Fn>
  void ForEachEncoded(KeyEncoder::BatchKeys* bk, Fn fn) const {
    const ColumnBatch& kb = batch();
    const std::size_t n = kb.num_rows();
    if (KeyEncoder::EncodeBatchColumns(kb, cols_, bk)) {
      for (std::size_t i = 0; i < n; ++i) {
        fn(i, bk->key(i), bk->hashes[i], bk->null_key[i] != 0);
      }
      return;
    }
    KeyEncoder enc;
    Row row;
    for (std::size_t i = 0; i < n; ++i) {
      kb.MaterializeRow(i, &row);
      bool has_null = false;
      std::string_view bytes;
      enc.EncodeColumns(row, cols_, &bytes, &has_null);  // ordinals checked
      fn(i, bytes, KeyEncoder::HashEncoded(bytes), has_null);
    }
  }

 private:
  std::vector<BoundExprPtr> keys_;
  std::vector<uint32_t> cols_;
  bool computed_ = false;
  ColumnBatch evaluated_;
  const ColumnBatch* input_ = nullptr;
};

// Order-preserving uint64 code of a numeric cell: int64 with the sign
// bit flipped, float64 in IEEE order with -0.0 folded into 0.0.
uint64_t NumericCode(const ColumnVector& c, std::size_t i) {
  if (c.rep() == ColumnRep::kInt64) {
    return static_cast<uint64_t>(c.Int64At(i)) ^ (uint64_t{1} << 63);
  }
  double v = c.Float64At(i);
  if (v == 0.0) v = 0.0;  // -0.0 and 0.0 compare equal
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

// Sorts physical row indices by key columns in the order a stable sort
// by CompareCells (negated for DESC keys) gives (DESIGN.md Sec. 19).
// The keys are packed, leading key first, into one order-preserving
// uint64 code per row, so most comparisons are one integer compare:
//  - int64 / float64 without NaN: the cell's NumericCode minus the
//    column's lowest, in as many bits as the column's span needs;
//  - string: the bytes after the prefix all the column's cells share,
//    big-endian and zero-padded (unsigned byte order), then their
//    count, when every cell's rest is at most 8 bytes and fits; else
//    the 8 (or fewer) leading bytes that fit, which end the code;
//  - all-NULL column: no bits.
// A NULL cell is 0, below every value, in a column that has NULLs; a
// DESC key's field is inverted. A key that does not fit is cut to its
// high bits and ends the code, as does a kBoxed column or a float64
// holding NaN (which CompareCells finds equal to everything), which
// gets no bits. Rows whose codes tie compare with CompareCells from the
// first key the code does not hold whole; rows still equal keep their
// input order.
class RowSorter {
 public:
  // Over `keys`, resolved in `cols` against a dense batch.
  RowSorter(const KeyColumns& cols, const std::vector<SortKey>& keys) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      cols_.push_back(&cols.column(k));
      asc_.push_back(keys[k].ascending);
    }
    int free = 64;
    for (std::size_t k = 0; k < cols_.size() && free > 0; ++k) {
      const ColumnVector& c = *cols_[k];
      if (c.rep() == ColumnRep::kNull) {  // every cell ties
        resolved_ = k + 1;
        continue;
      }
      KeyBits f;
      f.key = k;
      f.nullable = c.has_nulls();
      const int null_bit = f.nullable ? 1 : 0;
      if (c.rep() == ColumnRep::kString) {
        std::size_t longest = 0;
        StringShape(c, &f.prefix, &longest);
        const std::size_t rest = longest - f.prefix;
        const int len_bits = std::bit_width(rest);
        // Whole: every cell's bytes after the prefix, zero-padded, then
        // their count order the cells exactly. Otherwise the leading
        // bytes that fit, and the key ends the code.
        const bool whole =
            rest <= 8 &&
            8 * static_cast<int>(rest) + len_bits + null_bit <= free;
        f.bytes = whole ? static_cast<int>(rest)
                        : std::min(8, (free - null_bit) / 8);
        f.len_bits = whole ? len_bits : 0;
        f.bits = 8 * f.bytes + f.len_bits + null_bit;
        if (!whole) {
          if (f.bytes > 0) fields_.push_back(f);
          break;
        }
        fields_.push_back(f);
        free -= f.bits;
        resolved_ = k + 1;
        continue;
      }
      uint64_t span = 0;
      if (!NumericSpan(c, &f.base, &span)) break;
      // Field values run 0..span, or 0 (NULL) and 1..span+1.
      const int need = f.nullable && span == UINT64_MAX
                           ? 65
                           : std::bit_width(span + null_bit);
      f.bits = std::min(need, free);
      f.drop = need - f.bits;
      free -= f.bits;
      fields_.push_back(f);
      if (f.drop > 0) break;
      resolved_ = k + 1;
    }
  }

  // Sorts `rows`, which must hold distinct row indices in ascending
  // order (the input order a stable sort keeps among equal keys).
  void Sort(std::vector<uint32_t>* rows) const {
    if (cols_.empty()) return;
    const std::size_t n = rows->size();
    std::vector<std::pair<uint64_t, uint32_t>> entries(n);
    for (std::size_t i = 0; i < n; ++i) {
      entries[i] = {Code((*rows)[i]), (*rows)[i]};
    }
    if (resolved_ == cols_.size()) {
      // The code is the whole order; the row index breaks ties.
      std::sort(entries.begin(), entries.end());
    } else {
      // Stable: equal keys keep their ascending row order, and
      // CompareCells over NaN (not a strict weak order) answers exactly
      // as it did for a plain stable sort of the rows.
      std::stable_sort(entries.begin(), entries.end(),
                       [this](const std::pair<uint64_t, uint32_t>& a,
                              const std::pair<uint64_t, uint32_t>& b) {
                         if (a.first != b.first) return a.first < b.first;
                         return CompareTail(a.second, b.second) < 0;
                       });
    }
    for (std::size_t i = 0; i < n; ++i) (*rows)[i] = entries[i].second;
  }

 private:
  // One key's bits in the code.
  struct KeyBits {
    std::size_t key = 0;
    bool nullable = false;
    int bits = 0;
    uint64_t base = 0;        // numeric: lowest NumericCode
    int drop = 0;             // numeric: low bits cut off to fit
    std::size_t prefix = 0;   // string: bytes every cell shares
    int bytes = 0;            // string: bytes taken after the prefix
    int len_bits = 0;         // string: bits of their count (0: cut)
  };

  // Lowest NumericCode and span of the column's non-null cells; false
  // for a column the codes cannot order.
  static bool NumericSpan(const ColumnVector& c, uint64_t* base,
                          uint64_t* span) {
    if (c.rep() != ColumnRep::kInt64 && c.rep() != ColumnRep::kFloat64) {
      return false;
    }
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c.IsNull(i)) continue;
      if (c.rep() == ColumnRep::kFloat64 && std::isnan(c.Float64At(i))) {
        return false;
      }
      const uint64_t code = NumericCode(c, i);
      lo = std::min(lo, code);
      hi = std::max(hi, code);
    }
    *base = lo <= hi ? lo : 0;
    *span = lo <= hi ? hi - lo : 0;
    return true;
  }

  // Length of the prefix all non-null cells of a string column share,
  // and of the longest cell (both 0 when every cell is NULL).
  static void StringShape(const ColumnVector& c, std::size_t* prefix,
                          std::size_t* longest) {
    std::string_view first;
    bool seen = false;
    *prefix = 0;
    *longest = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c.IsNull(i)) continue;
      const std::string_view s = c.StrAt(i);
      *longest = std::max(*longest, s.size());
      if (!seen) {
        first = s;
        *prefix = s.size();
        seen = true;
        continue;
      }
      const std::size_t n = std::min(*prefix, s.size());
      *prefix = static_cast<std::size_t>(
          std::mismatch(s.begin(), s.begin() + n, first.begin()).first -
          s.begin());
    }
  }

  uint64_t Code(uint32_t row) const {
    unsigned __int128 code = 0;
    for (const KeyBits& f : fields_) {
      const ColumnVector& c = *cols_[f.key];
      unsigned __int128 x = 0;
      if (!c.IsNull(row)) {
        if (c.rep() == ColumnRep::kString) {
          const std::string_view s = c.StrAt(row).substr(f.prefix);
          uint64_t w = 0;
          for (int i = 0; i < f.bytes; ++i) {
            const std::size_t j = static_cast<std::size_t>(i);
            w = (w << 8) | (j < s.size() ? static_cast<uint8_t>(s[j]) : 0u);
          }
          x = w;
          if (f.len_bits > 0) x = (x << f.len_bits) | s.size();
          if (f.nullable) {
            x |= static_cast<unsigned __int128>(1)
                 << (8 * f.bytes + f.len_bits);
          }
        } else {
          x = static_cast<unsigned __int128>(NumericCode(c, row) - f.base) +
              (f.nullable ? 1 : 0);
          x >>= f.drop;
        }
      }
      const unsigned __int128 mask =
          (static_cast<unsigned __int128>(1) << f.bits) - 1;
      if (!asc_[f.key]) x = mask - x;
      code = (code << f.bits) | x;
    }
    return static_cast<uint64_t>(code);
  }

  int CompareTail(uint32_t a, uint32_t b) const {
    for (std::size_t k = resolved_; k < cols_.size(); ++k) {
      const int c = CompareCells(*cols_[k], a, *cols_[k], b);
      if (c != 0) return asc_[k] ? c : -c;
    }
    return 0;
  }

  std::vector<const ColumnVector*> cols_;
  std::vector<bool> asc_;
  std::vector<KeyBits> fields_;
  std::size_t resolved_ = 0;  // keys [0, resolved_) are whole in the code
};

// Marks a NULL-padded right side in a join's index pairs (left outer).
constexpr uint32_t kPadRow = UINT32_MAX;

// Gathers joined rows into one dense batch, one column at a time:
// output row k is physical row lidx[k] of `l` followed by physical row
// ridx[k] of `r` (all NULL when ridx[k] is kPadRow).
ColumnBatch GatherJoinRows(const Schema& schema, const ColumnBatch& l,
                           const std::vector<uint32_t>& lidx,
                           const ColumnBatch& r,
                           const std::vector<uint32_t>& ridx) {
  ColumnBatch out;
  out.schema = schema;
  out.physical_rows = lidx.size();
  out.columns.reserve(l.columns.size() + r.columns.size());
  const auto gather = [&out](const ColumnBatch& side,
                             const std::vector<uint32_t>& idx) {
    for (const ColumnVector& src : side.columns) {
      ColumnVector v = ColumnVector::OfRep(src.rep());
      v.Reserve(idx.size());
      for (const uint32_t i : idx) {
        if (i == kPadRow) {
          v.AppendNull();
        } else {
          v.AppendFrom(src, i);
        }
      }
      out.columns.push_back(std::move(v));
    }
  };
  gather(l, lidx);
  gather(r, ridx);
  return out;
}

// Opens both join inputs, sets the output schema (left ++ right) and
// binds each side's keys.
Status OpenJoin(PhysicalOperator* left, PhysicalOperator* right,
                const std::vector<ExprPtr>& left_keys,
                const std::vector<ExprPtr>& right_keys, Schema* output_schema,
                KeyColumns* left_cols, KeyColumns* right_cols) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  SWIFT_RETURN_NOT_OK(left->Open());
  SWIFT_RETURN_NOT_OK(right->Open());
  *output_schema = left->output_schema().Concat(right->output_schema());
  SWIFT_ASSIGN_OR_RETURN(std::vector<BoundExprPtr> bound_left,
                         BindAll(left_keys, left->output_schema()));
  SWIFT_ASSIGN_OR_RETURN(std::vector<BoundExprPtr> bound_right,
                         BindAll(right_keys, right->output_schema()));
  *left_cols = KeyColumns(std::move(bound_left));
  *right_cols = KeyColumns(std::move(bound_right));
  return Status::OK();
}

class BatchSource final : public PhysicalOperator {
 public:
  BatchSource(Schema schema, std::vector<Batch> batches)
      : batches_(std::move(batches)) {
    output_schema_ = std::move(schema);
  }
  Status Open() override { return Status::OK(); }
  Result<std::optional<ColumnBatch>> Next() override {
    if (idx_ >= batches_.size()) return std::optional<ColumnBatch>();
    Batch b = std::move(batches_[idx_++]);
    b.schema = output_schema_;
    SWIFT_ASSIGN_OR_RETURN(ColumnBatch cb, ToColumnBatch(b));
    return std::optional<ColumnBatch>(std::move(cb));
  }

 private:
  std::vector<Batch> batches_;
  std::size_t idx_ = 0;
};

class ColumnBatchSource final : public PhysicalOperator {
 public:
  ColumnBatchSource(Schema schema, std::vector<ColumnBatch> batches)
      : batches_(std::move(batches)) {
    output_schema_ = std::move(schema);
  }
  Status Open() override { return Status::OK(); }
  Result<std::optional<ColumnBatch>> Next() override {
    if (idx_ >= batches_.size()) return std::optional<ColumnBatch>();
    ColumnBatch b = std::move(batches_[idx_++]);
    b.schema = output_schema_;
    return std::optional<ColumnBatch>(std::move(b));
  }

 private:
  std::vector<ColumnBatch> batches_;
  std::size_t idx_ = 0;
};

class FilterOp final : public PhysicalOperator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}
  Status Open() override {
    SWIFT_RETURN_NOT_OK(child_->Open());
    output_schema_ = child_->output_schema();
    SWIFT_ASSIGN_OR_RETURN(bound_predicate_, Bind(predicate_, output_schema_));
    return Status::OK();
  }
  // The predicate evaluates column-at-a-time and survivors become a
  // selection vector over the input's physical storage — no row copies,
  // no column gathers.
  Result<std::optional<ColumnBatch>> Next() override {
    for (;;) {
      SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> in, child_->Next());
      if (!in.has_value()) return in;
      SWIFT_RETURN_NOT_OK(ApplyPredicate(*bound_predicate_, &pred_col_, &*in));
      if (in->num_rows() > 0) {
        in->schema = output_schema_;
        return in;
      }
      // Fully-filtered batch: keep pulling.
    }
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  BoundExprPtr bound_predicate_;
  ColumnVector pred_col_;
};

class ProjectOp final : public PhysicalOperator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        names_(std::move(names)) {}
  Status Open() override {
    if (exprs_.size() != names_.size()) {
      return Status::InvalidArgument("project exprs/names size mismatch");
    }
    SWIFT_RETURN_NOT_OK(child_->Open());
    const Schema& in = child_->output_schema();
    std::vector<Field> fields;
    fields.reserve(exprs_.size());
    for (std::size_t i = 0; i < exprs_.size(); ++i) {
      SWIFT_ASSIGN_OR_RETURN(DataType t, exprs_[i]->OutputType(in));
      fields.push_back(Field{names_[i], t});
    }
    output_schema_ = Schema(std::move(fields));
    SWIFT_ASSIGN_OR_RETURN(bound_exprs_, BindAll(exprs_, in));
    return Status::OK();
  }
  // Each output column is one EvaluateVector call (typed loops for the
  // numeric kernels); output is dense.
  Result<std::optional<ColumnBatch>> Next() override {
    SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> in, child_->Next());
    if (!in.has_value()) return in;
    ColumnBatch out;
    out.schema = output_schema_;
    out.physical_rows = in->num_rows();
    out.columns.resize(bound_exprs_.size());
    for (std::size_t i = 0; i < bound_exprs_.size(); ++i) {
      SWIFT_RETURN_NOT_OK(bound_exprs_[i]->EvaluateVector(*in, &out.columns[i]));
    }
    return std::optional<ColumnBatch>(std::move(out));
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  std::vector<std::string> names_;
  std::vector<BoundExprPtr> bound_exprs_;
};

class LimitOp final : public PhysicalOperator {
 public:
  LimitOp(OperatorPtr child, int64_t limit)
      : child_(std::move(child)), remaining_(limit) {}
  Status Open() override {
    if (remaining_ < 0) {
      return Status::InvalidArgument("negative LIMIT");
    }
    SWIFT_RETURN_NOT_OK(child_->Open());
    output_schema_ = child_->output_schema();
    return Status::OK();
  }
  Result<std::optional<ColumnBatch>> Next() override {
    if (remaining_ == 0) return std::optional<ColumnBatch>();
    SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> in, child_->Next());
    if (!in.has_value()) return in;
    // Counts are LOGICAL rows — a filtered batch's selection, not its
    // physical storage extent.
    if (static_cast<int64_t>(in->num_rows()) > remaining_) {
      in->TruncateLogical(static_cast<std::size_t>(remaining_));
    }
    remaining_ -= static_cast<int64_t>(in->num_rows());
    return in;
  }

 private:
  OperatorPtr child_;
  int64_t remaining_;
};

// Base of the pipeline breakers that build their whole output once and
// emit it as one batch.
class BlockingOperator : public PhysicalOperator {
 public:
  Result<std::optional<ColumnBatch>> Next() final {
    SWIFT_RETURN_NOT_OK(Materialize());
    if (emitted_ || out_.num_rows() == 0) return std::optional<ColumnBatch>();
    emitted_ = true;
    out_.schema = output_schema_;
    return std::optional<ColumnBatch>(std::move(out_));
  }

 protected:
  virtual Result<ColumnBatch> Build() = 0;

  // Runs Build() once: on the first pull, or from Open() for operators
  // that consume their input there.
  Status Materialize() {
    if (built_) return Status::OK();
    built_ = true;
    SWIFT_ASSIGN_OR_RETURN(out_, Build());
    return Status::OK();
  }

 private:
  bool built_ = false;
  bool emitted_ = false;
  ColumnBatch out_;
};

// Build side drained into one dense columnar arena, keys encoded batch
// at a time (KeyEncoder::EncodeBatchColumns); each probe batch yields
// (probe, build) index pairs that are gathered one column at a time.
class HashJoinOp final : public PhysicalOperator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::vector<ExprPtr> lk,
             std::vector<ExprPtr> rk, JoinType join_type)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(lk)),
        right_keys_(std::move(rk)),
        join_type_(join_type) {}

  Status Open() override {
    return OpenJoin(left_.get(), right_.get(), left_keys_, right_keys_,
                    &output_schema_, &probe_keys_, &build_keys_);
  }

  Result<std::optional<ColumnBatch>> Next() override {
    if (!built_) {
      built_ = true;
      SWIFT_RETURN_NOT_OK(Build());
    }
    std::vector<uint32_t> lidx, ridx;
    for (;;) {
      SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> pb, left_->Next());
      if (!pb.has_value()) return pb;
      SWIFT_RETURN_NOT_OK(probe_keys_.Resolve(*pb));
      lidx.clear();
      ridx.clear();
      probe_keys_.ForEachEncoded(
          &bk_, [&](std::size_t i, std::string_view bytes, uint64_t hash,
                    bool has_null) {
            const uint32_t phys = static_cast<uint32_t>(pb->PhysicalIndex(i));
            bool matched = false;
            if (!has_null) {
              const int64_t dense = table_->Find(bytes, hash);
              if (dense >= 0) {
                for (int32_t r = chain_head_[static_cast<std::size_t>(dense)];
                     r >= 0; r = next_row_[r]) {
                  lidx.push_back(phys);
                  ridx.push_back(static_cast<uint32_t>(r));
                }
                matched = true;
              }
            }
            if (!matched && join_type_ == JoinType::kLeftOuter) {
              lidx.push_back(phys);
              ridx.push_back(kPadRow);
            }
          });
      if (!lidx.empty()) {
        return std::optional<ColumnBatch>(
            GatherJoinRows(output_schema_, *pb, lidx, build_, ridx));
      }
    }
  }

 private:
  // Encoded keys go into the flat table and duplicate keys chain through
  // next_row_ in build order — no per-row map nodes.
  Status Build() {
    SWIFT_RETURN_NOT_OK(DrainColumnar(right_.get(), &build_));
    SWIFT_RETURN_NOT_OK(build_keys_.Resolve(build_));
    const std::size_t n = build_.physical_rows;
    table_.emplace(n);
    next_row_.assign(n, -1);
    build_keys_.ForEachEncoded(
        &bk_, [&](std::size_t i, std::string_view bytes, uint64_t hash,
                  bool has_null) {
          if (has_null) return;  // NULL keys never match
          const FlatKeyTable::FindResult r = table_->FindOrInsert(bytes, hash);
          const int32_t row = static_cast<int32_t>(i);
          if (r.inserted) {
            chain_head_.push_back(row);
            chain_tail_.push_back(row);
          } else {
            next_row_[chain_tail_[r.index]] = row;
            chain_tail_[r.index] = row;
          }
        });
    return Status::OK();
  }

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  JoinType join_type_;
  KeyColumns probe_keys_;
  KeyColumns build_keys_;
  bool built_ = false;
  ColumnBatch build_;
  std::optional<FlatKeyTable> table_;
  std::vector<int32_t> chain_head_;  // per dense key: first build row
  std::vector<int32_t> chain_tail_;  // per dense key: last build row
  std::vector<int32_t> next_row_;
  KeyEncoder::BatchKeys bk_;
};

// Both inputs drain into dense batches and the merge walk over their
// key columns emits (left, right) index pairs, gathered one column at a
// time.
class MergeJoinOp final : public BlockingOperator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right, std::vector<ExprPtr> lk,
              std::vector<ExprPtr> rk, JoinType join_type)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(lk)),
        right_keys_(std::move(rk)),
        join_type_(join_type) {}

  Status Open() override {
    return OpenJoin(left_.get(), right_.get(), left_keys_, right_keys_,
                    &output_schema_, &lk_, &rk_);
  }

 private:
  Result<ColumnBatch> Build() override {
    ColumnBatch l, r;
    SWIFT_RETURN_NOT_OK(DrainColumnar(left_.get(), &l));
    SWIFT_RETURN_NOT_OK(DrainColumnar(right_.get(), &r));
    SWIFT_RETURN_NOT_OK(lk_.Resolve(l));
    SWIFT_RETURN_NOT_OK(rk_.Resolve(r));
    const std::size_t ln = l.physical_rows;
    const std::size_t rn = r.physical_rows;
    for (std::size_t i = 1; i < ln; ++i) {
      if (lk_.Compare(i - 1, lk_, i) > 0) {
        return Status::Internal("MergeJoin left input not sorted");
      }
    }
    for (std::size_t i = 1; i < rn; ++i) {
      if (rk_.Compare(i - 1, rk_, i) > 0) {
        return Status::Internal("MergeJoin right input not sorted");
      }
    }

    std::vector<uint32_t> lidx, ridx;
    auto emit_padded = [&](std::size_t i) {
      lidx.push_back(static_cast<uint32_t>(i));
      ridx.push_back(kPadRow);
    };
    std::size_t li = 0, ri = 0;
    while (li < ln && ri < rn) {
      if (lk_.HasNull(li)) {
        if (join_type_ == JoinType::kLeftOuter) emit_padded(li);
        ++li;
        continue;
      }
      if (rk_.HasNull(ri)) {
        ++ri;
        continue;
      }
      const int c = lk_.Compare(li, rk_, ri);
      if (c < 0) {
        if (join_type_ == JoinType::kLeftOuter) emit_padded(li);
        ++li;
      } else if (c > 0) {
        ++ri;
      } else {
        // Emit the cross product of the equal-key runs.
        std::size_t lend = li;
        while (lend < ln && lk_.Compare(lend, lk_, li) == 0) ++lend;
        std::size_t rend = ri;
        while (rend < rn && rk_.Compare(rend, rk_, ri) == 0) ++rend;
        for (std::size_t i = li; i < lend; ++i) {
          for (std::size_t j = ri; j < rend; ++j) {
            lidx.push_back(static_cast<uint32_t>(i));
            ridx.push_back(static_cast<uint32_t>(j));
          }
        }
        li = lend;
        ri = rend;
      }
    }
    if (join_type_ == JoinType::kLeftOuter) {
      for (; li < ln; ++li) emit_padded(li);
    }
    return GatherJoinRows(output_schema_, l, lidx, r, ridx);
  }

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  JoinType join_type_;
  KeyColumns lk_;
  KeyColumns rk_;
};

// Drains dense, sorts an index permutation with RowSorter, and emits the
// input storage UNCHANGED under a selection vector — the sorted batch is
// a permutation view, zero gathers.
class SortOp final : public BlockingOperator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  Status Open() override {
    SWIFT_RETURN_NOT_OK(child_->Open());
    output_schema_ = child_->output_schema();
    std::vector<BoundExprPtr> bound;
    bound.reserve(keys_.size());
    for (const SortKey& key : keys_) {
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(key.expr, output_schema_));
      bound.push_back(std::move(b));
    }
    key_cols_ = KeyColumns(std::move(bound));
    return Status::OK();
  }

 private:
  Result<ColumnBatch> Build() override {
    ColumnBatch in;
    SWIFT_RETURN_NOT_OK(DrainColumnar(child_.get(), &in));
    SWIFT_RETURN_NOT_OK(key_cols_.Resolve(in));
    std::vector<uint32_t> perm(in.physical_rows);
    std::iota(perm.begin(), perm.end(), 0u);
    RowSorter(key_cols_, keys_).Sort(&perm);
    in.selection = std::move(perm);
    return in;
  }

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  KeyColumns key_cols_;
};

// Incremental aggregate state shared by hash and streamed variants.
struct AggState {
  double sum = 0.0;
  int64_t count = 0;
  bool all_int = true;
  Value min;
  Value max;

  void Update(AggKind kind, const Value& v) {
    if (kind == AggKind::kCount) {
      // COUNT(*) passes a non-null marker; COUNT(x) skips nulls upstream.
      ++count;
      return;
    }
    if (v.is_null()) return;
    ++count;
    if (v.is_numeric()) {
      sum += v.AsDouble();
      if (!v.is_int64()) all_int = false;
    } else {
      all_int = false;
    }
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }

  Value Finish(AggKind kind) const {
    switch (kind) {
      case AggKind::kCount:
        return Value(count);
      case AggKind::kSum:
        if (count == 0) return Value::Null();
        return all_int ? Value(static_cast<int64_t>(sum)) : Value(sum);
      case AggKind::kMin:
        return min;
      case AggKind::kMax:
        return max;
      case AggKind::kAvg:
        if (count == 0) return Value::Null();
        return Value(sum / static_cast<double>(count));
    }
    return Value::Null();
  }
};

// Shared binding and per-row folding of the two GROUP BY operators.
// Output: group key columns (each group's key cells appended when the
// group starts), then one column per aggregate finished from its state.
class AggregateOp : public BlockingOperator {
 public:
  AggregateOp(OperatorPtr child, std::vector<ExprPtr> groups,
              std::vector<std::string> group_names, std::vector<AggSpec> aggs)
      : child_(std::move(child)),
        groups_(std::move(groups)),
        group_names_(std::move(group_names)),
        aggs_(std::move(aggs)) {}

  Status Open() override {
    if (groups_.size() != group_names_.size()) {
      return Status::InvalidArgument("group exprs/names size mismatch");
    }
    SWIFT_RETURN_NOT_OK(child_->Open());
    const Schema& in = child_->output_schema();
    SWIFT_ASSIGN_OR_RETURN(output_schema_, OutputSchema(in));
    args_.assign(aggs_.size(), ArgColumn{});
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].arg == nullptr) continue;  // COUNT(*)
      SWIFT_ASSIGN_OR_RETURN(args_[a].expr, Bind(aggs_[a].arg, in));
    }
    SWIFT_ASSIGN_OR_RETURN(std::vector<BoundExprPtr> bound_groups,
                           BindAll(groups_, in));
    keys_ = KeyColumns(std::move(bound_groups));
    // Aggregates consume their whole input at Open().
    return Materialize();
  }

 protected:
  struct ArgColumn {
    BoundExprPtr expr;  // null for COUNT(*)
    ColumnVector scratch;
    const ColumnVector* col = nullptr;
    const std::vector<uint32_t>* sel = nullptr;  // null: dense
  };

  Result<Schema> OutputSchema(const Schema& in) const {
    std::vector<Field> fields;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      SWIFT_ASSIGN_OR_RETURN(DataType t, groups_[i]->OutputType(in));
      fields.push_back(Field{group_names_[i], t});
    }
    for (const AggSpec& a : aggs_) {
      DataType t = DataType::kFloat64;
      if (a.kind == AggKind::kCount) {
        t = DataType::kInt64;
      } else if (a.arg != nullptr) {
        SWIFT_ASSIGN_OR_RETURN(DataType at, a.arg->OutputType(in));
        if (a.kind != AggKind::kAvg) t = at;
      }
      fields.push_back(Field{a.output_name, t});
    }
    return Schema(std::move(fields));
  }

  // Points every aggregate argument at `b`: a plain column reference is
  // read in place through the selection, anything else is evaluated
  // into a dense scratch column.
  Status ResolveArgs(const ColumnBatch& b) {
    for (ArgColumn& a : args_) {
      if (a.expr == nullptr) continue;  // COUNT(*)
      const int64_t ord = a.expr->column_ordinal();
      if (ord >= 0 && static_cast<std::size_t>(ord) < b.columns.size()) {
        a.col = &b.columns[static_cast<std::size_t>(ord)];
        a.sel = b.selection ? &*b.selection : nullptr;
      } else {
        SWIFT_RETURN_NOT_OK(a.expr->EvaluateVector(b, &a.scratch));
        a.col = &a.scratch;
        a.sel = nullptr;
      }
    }
    return Status::OK();
  }

  // Folds logical row i of the resolved arguments into `slot`.
  void Accumulate(std::size_t i, AggState* slot) const {
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      const ArgColumn& arg = args_[a];
      if (arg.col == nullptr) {
        slot[a].Update(aggs_[a].kind, Value(int64_t{1}));  // COUNT(*)
        continue;
      }
      const Value v = arg.col->GetValue(arg.sel ? (*arg.sel)[i] : i);
      if (aggs_[a].kind == AggKind::kCount && v.is_null()) continue;
      slot[a].Update(aggs_[a].kind, v);
    }
  }

  // Appends logical row i's key cells as a new output group.
  void AppendGroupKey(std::size_t i, ColumnBatch* out) const {
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      out->columns[k].AppendFrom(keys_.column(k), keys_.row(i));
    }
  }

  // Appends one finished aggregate row per state group.
  void FinishAggs(const std::vector<AggState>& states, std::size_t ngroups,
                  ColumnBatch* out) const {
    const std::size_t naggs = aggs_.size();
    for (std::size_t a = 0; a < naggs; ++a) {
      ColumnVector& col = out->columns[keys_.size() + a];
      col.Reserve(col.size() + ngroups);
      for (std::size_t g = 0; g < ngroups; ++g) {
        col.Append(states[g * naggs + a].Finish(aggs_[a].kind));
      }
    }
  }

  OperatorPtr child_;
  std::vector<ExprPtr> groups_;
  std::vector<std::string> group_names_;
  std::vector<AggSpec> aggs_;
  std::vector<ArgColumn> args_;
  KeyColumns keys_;
};

// Group keys encode + hash in column-at-a-time passes
// (KeyEncoder::EncodeBatchColumns); the flat table's dense index is the
// group id, and dense order IS first-seen order, so output determinism
// is free.
class HashAggregateOp final : public AggregateOp {
 public:
  using AggregateOp::AggregateOp;

 private:
  Result<ColumnBatch> Build() override {
    const std::size_t naggs = aggs_.size();
    ColumnBatch out = EmptyBatchOf(output_schema_);
    FlatKeyTable table;
    std::vector<AggState> states;  // table.size() * naggs, dense-major
    KeyEncoder::BatchKeys bk;
    for (;;) {
      SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> b, child_->Next());
      if (!b.has_value()) break;
      if (b->num_rows() == 0) continue;
      SWIFT_RETURN_NOT_OK(ResolveArgs(*b));
      SWIFT_RETURN_NOT_OK(keys_.Resolve(*b));
      keys_.ForEachEncoded(&bk, [&](std::size_t i, std::string_view bytes,
                                    uint64_t hash, bool /*has_null*/) {
        // NULL group keys form real groups.
        const FlatKeyTable::FindResult fr = table.FindOrInsert(bytes, hash);
        if (fr.inserted) {
          states.resize(states.size() + naggs);
          AppendGroupKey(i, &out);
        }
        Accumulate(i, states.data() + std::size_t{fr.index} * naggs);
      });
    }
    std::size_t ngroups = table.size();
    if (groups_.empty() && ngroups == 0) {
      // Global aggregate over empty input: one all-default row.
      states.resize(naggs);
      ngroups = 1;
    }
    FinishAggs(states, ngroups, &out);
    out.physical_rows = ngroups;
    return out;
  }
};

// One running group over sorted input: each row's key is compared with
// the current group's key (the last appended key row) via CompareCells,
// reading the input in place through its selection — a sort's
// permutation view is never gathered into a second dense copy.
class StreamedAggregateOp final : public AggregateOp {
 public:
  using AggregateOp::AggregateOp;

 private:
  Result<ColumnBatch> Build() override {
    const std::size_t naggs = aggs_.size();
    ColumnBatch out = EmptyBatchOf(output_schema_);
    std::vector<AggState> states;  // ngroups * naggs, dense-major
    std::size_t ngroups = 0;       // the last group is the open one
    for (;;) {
      SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> b, child_->Next());
      if (!b.has_value()) break;
      SWIFT_RETURN_NOT_OK(ResolveArgs(*b));
      SWIFT_RETURN_NOT_OK(keys_.Resolve(*b));
      const std::size_t n = b->num_rows();
      for (std::size_t i = 0; i < n; ++i) {
        int c = 0;
        for (std::size_t k = 0; ngroups > 0 && c == 0 && k < keys_.size();
             ++k) {
          c = CompareCells(out.columns[k], ngroups - 1, keys_.column(k),
                           keys_.row(i));
        }
        if (c > 0) {
          return Status::Internal(
              "StreamedAggregate input not sorted by group keys");
        }
        if (ngroups == 0 || c != 0) {
          AppendGroupKey(i, &out);
          states.resize(states.size() + naggs);
          ++ngroups;
        }
        Accumulate(i, states.data() + (ngroups - 1) * naggs);
      }
    }
    if (groups_.empty() && ngroups == 0) {
      // Global aggregate over empty input: one all-default row.
      states.resize(naggs);
      ngroups = 1;
    }
    FinishAggs(states, ngroups, &out);
    out.physical_rows = ngroups;
    return out;
  }
};

// The frame evaluation (partition grouping, per-group ordering, running
// function state) runs over key columns with typed cell comparisons; the
// output reuses the drained input storage under an emission-order
// selection vector, plus one dense window column scattered back to
// physical positions — no input gathers at all.
class WindowOp final : public BlockingOperator {
 public:
  WindowOp(OperatorPtr child, std::vector<ExprPtr> partition_by,
           std::vector<SortKey> order_by, WindowFunc func, ExprPtr arg,
           std::string output_name)
      : child_(std::move(child)),
        partition_by_(std::move(partition_by)),
        order_by_(std::move(order_by)),
        func_(func),
        arg_(std::move(arg)),
        output_name_(std::move(output_name)) {}

  Status Open() override {
    SWIFT_RETURN_NOT_OK(child_->Open());
    const Schema in = child_->output_schema();
    std::vector<Field> fields = in.fields();
    fields.push_back(Field{output_name_, func_ == WindowFunc::kSum
                                             ? DataType::kFloat64
                                             : DataType::kInt64});
    output_schema_ = Schema(std::move(fields));

    SWIFT_ASSIGN_OR_RETURN(std::vector<BoundExprPtr> bound_partition,
                           BindAll(partition_by_, in));
    part_ = KeyColumns(std::move(bound_partition));
    std::vector<BoundExprPtr> bound_order;
    bound_order.reserve(order_by_.size());
    for (const SortKey& sk : order_by_) {
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(sk.expr, in));
      bound_order.push_back(std::move(b));
    }
    order_ = KeyColumns(std::move(bound_order));
    if (arg_ != nullptr) {
      SWIFT_ASSIGN_OR_RETURN(bound_arg_, Bind(arg_, in));
    }
    return Status::OK();
  }

 private:
  Result<ColumnBatch> Build() override {
    ColumnBatch in;
    SWIFT_RETURN_NOT_OK(DrainColumnar(child_.get(), &in));
    const std::size_t n = in.physical_rows;
    if (n == 0) return in;

    SWIFT_RETURN_NOT_OK(part_.Resolve(in));
    SWIFT_RETURN_NOT_OK(order_.Resolve(in));
    ColumnVector arg_col;
    if (func_ == WindowFunc::kSum) {
      if (bound_arg_ == nullptr) {
        return Status::InvalidArgument("window sum requires an argument");
      }
      SWIFT_RETURN_NOT_OK(bound_arg_->EvaluateVector(in, &arg_col));
    }

    // Group rows per partition through the flat table (one hash lookup
    // per row instead of partition-key comparisons inside a global
    // sort), then order the groups by key and sort only within each
    // group — the same order as one global stable sort.
    FlatKeyTable table;
    std::vector<std::vector<uint32_t>> groups;     // dense -> row idxs
    std::vector<std::size_t> group_first;          // dense -> first row
    KeyEncoder::BatchKeys bk;
    part_.ForEachEncoded(&bk, [&](std::size_t i, std::string_view bytes,
                                  uint64_t hash, bool /*has_null*/) {
      // NULL partition keys form real partitions.
      const FlatKeyTable::FindResult fr = table.FindOrInsert(bytes, hash);
      if (fr.inserted) {
        groups.emplace_back();
        group_first.push_back(i);
      }
      groups[fr.index].push_back(static_cast<uint32_t>(i));
    });
    std::vector<uint32_t> gorder(groups.size());
    std::iota(gorder.begin(), gorder.end(), 0u);
    std::sort(gorder.begin(), gorder.end(), [&](uint32_t a, uint32_t b) {
      const int c = part_.Compare(group_first[a], part_, group_first[b]);
      if (c != 0) return c < 0;
      return a < b;  // tie across distinct encodings: first-seen order
    });

    const RowSorter sorter(order_, order_by_);
    std::vector<uint32_t> emit_order;
    emit_order.reserve(n);
    std::vector<int64_t> win_i64;
    std::vector<double> win_f64;
    if (func_ == WindowFunc::kSum) {
      win_f64.resize(n);
    } else {
      win_i64.resize(n);
    }
    for (const uint32_t g : gorder) {
      std::vector<uint32_t>& idxs = groups[g];
      sorter.Sort(&idxs);  // rows with equal order keys keep input order
      int64_t row_number = 0;
      int64_t rank = 0;
      double running_sum = 0.0;
      for (std::size_t j = 0; j < idxs.size(); ++j) {
        const std::size_t row = idxs[j];
        ++row_number;
        if (j == 0 || order_.Compare(row, order_, idxs[j - 1]) != 0) {
          rank = row_number;
        }
        switch (func_) {
          case WindowFunc::kRowNumber:
            win_i64[row] = row_number;
            break;
          case WindowFunc::kRank:
            win_i64[row] = rank;
            break;
          case WindowFunc::kSum: {
            if (!arg_col.IsNull(row)) {
              switch (arg_col.rep()) {
                case ColumnRep::kInt64:
                  running_sum += static_cast<double>(arg_col.Int64At(row));
                  break;
                case ColumnRep::kFloat64:
                  running_sum += arg_col.Float64At(row);
                  break;
                default:
                  running_sum += arg_col.GetValue(row).AsDouble();
                  break;
              }
            }
            win_f64[row] = running_sum;
            break;
          }
        }
        emit_order.push_back(static_cast<uint32_t>(row));
      }
    }

    ColumnVector win = ColumnVector::OfType(
        func_ == WindowFunc::kSum ? DataType::kFloat64 : DataType::kInt64);
    win.Reserve(n);
    if (func_ == WindowFunc::kSum) {
      for (std::size_t i = 0; i < n; ++i) win.AppendFloat64(win_f64[i]);
    } else {
      for (std::size_t i = 0; i < n; ++i) win.AppendInt64(win_i64[i]);
    }
    in.columns.push_back(std::move(win));
    in.selection = std::move(emit_order);
    return in;
  }

  OperatorPtr child_;
  std::vector<ExprPtr> partition_by_;
  std::vector<SortKey> order_by_;
  WindowFunc func_;
  ExprPtr arg_;
  std::string output_name_;
  KeyColumns part_;
  KeyColumns order_;
  BoundExprPtr bound_arg_;
};

}  // namespace

std::string_view AggKindToString(AggKind kind) { return KindName(kind); }

OperatorPtr MakeBatchSource(Schema schema, std::vector<Batch> batches) {
  return std::make_unique<BatchSource>(std::move(schema), std::move(batches));
}
OperatorPtr MakeColumnBatchSource(Schema schema,
                                  std::vector<ColumnBatch> batches) {
  return std::make_unique<ColumnBatchSource>(std::move(schema),
                                             std::move(batches));
}
OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(child), std::move(predicate));
}
OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names) {
  return std::make_unique<ProjectOp>(std::move(child), std::move(exprs),
                                     std::move(names));
}
OperatorPtr MakeLimit(OperatorPtr child, int64_t limit) {
  return std::make_unique<LimitOp>(std::move(child), limit);
}
OperatorPtr MakeHashJoin(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys,
                         JoinType join_type) {
  return std::make_unique<HashJoinOp>(std::move(left), std::move(right),
                                      std::move(left_keys),
                                      std::move(right_keys), join_type);
}
OperatorPtr MakeMergeJoin(OperatorPtr left, OperatorPtr right,
                          std::vector<ExprPtr> left_keys,
                          std::vector<ExprPtr> right_keys,
                          JoinType join_type) {
  return std::make_unique<MergeJoinOp>(std::move(left), std::move(right),
                                       std::move(left_keys),
                                       std::move(right_keys), join_type);
}
OperatorPtr MakeSort(OperatorPtr child, std::vector<SortKey> keys) {
  return std::make_unique<SortOp>(std::move(child), std::move(keys));
}
OperatorPtr MakeHashAggregate(OperatorPtr child, std::vector<ExprPtr> groups,
                              std::vector<std::string> group_names,
                              std::vector<AggSpec> aggs) {
  return std::make_unique<HashAggregateOp>(std::move(child), std::move(groups),
                                           std::move(group_names),
                                           std::move(aggs));
}
OperatorPtr MakeStreamedAggregate(OperatorPtr child,
                                  std::vector<ExprPtr> groups,
                                  std::vector<std::string> group_names,
                                  std::vector<AggSpec> aggs) {
  return std::make_unique<StreamedAggregateOp>(
      std::move(child), std::move(groups), std::move(group_names),
      std::move(aggs));
}
OperatorPtr MakeWindow(OperatorPtr child, std::vector<ExprPtr> partition_by,
                       std::vector<SortKey> order_by, WindowFunc func,
                       ExprPtr arg, std::string output_name) {
  return std::make_unique<WindowOp>(std::move(child), std::move(partition_by),
                                    std::move(order_by), func, std::move(arg),
                                    std::move(output_name));
}

Status ApplyPredicate(const BoundExpr& predicate, ColumnVector* scratch,
                      ColumnBatch* batch) {
  SWIFT_RETURN_NOT_OK(predicate.EvaluateVector(*batch, scratch));
  const std::size_t n = batch->num_rows();
  std::vector<uint32_t> sel;
  sel.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (TruthyAt(*scratch, i)) {
      sel.push_back(static_cast<uint32_t>(batch->PhysicalIndex(i)));
    }
  }
  batch->selection = std::move(sel);
  return Status::OK();
}

Result<ColumnBatch> CollectAllColumnar(PhysicalOperator* op) {
  SWIFT_RETURN_NOT_OK(op->Open());
  ColumnBatch out;
  SWIFT_RETURN_NOT_OK(DrainColumnar(op, &out));
  return out;
}

Result<Batch> CollectAll(PhysicalOperator* op) {
  SWIFT_ASSIGN_OR_RETURN(ColumnBatch out, CollectAllColumnar(op));
  return ToRowBatch(out);
}

Result<std::vector<ColumnBatch>> HashPartitionColumnar(
    const ColumnBatch& batch, const std::vector<ExprPtr>& keys,
    int num_partitions) {
  if (num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  SWIFT_ASSIGN_OR_RETURN(std::vector<BoundExprPtr> bound,
                         BindAll(keys, batch.schema));
  const std::size_t nparts = static_cast<std::size_t>(num_partitions);
  const uint32_t n32 = static_cast<uint32_t>(num_partitions);
  const std::size_t n = batch.num_rows();
  std::vector<std::size_t> dest(n, 0);
  if (!bound.empty()) {
    // Normalized hashing + multiply-shift range reduction: strided and
    // sequential keys spread uniformly; NULL keys stay at partition 0.
    KeyColumns key_cols(std::move(bound));
    SWIFT_RETURN_NOT_OK(key_cols.Resolve(batch));
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> nulls;
    if (!KeyEncoder::HashBatchColumns(key_cols.batch(), key_cols.cols(),
                                      &hashes, &nulls)) {
      return Status::Internal("batch narrower than partition key schema");
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (nulls[i] == 0) dest[i] = RangeReduce(hashes[i], n32);
    }
  }
  std::vector<std::size_t> counts(nparts, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[dest[i]];
  std::vector<ColumnBatch> out(nparts);
  const std::size_t ncols = batch.columns.size();
  for (std::size_t p = 0; p < nparts; ++p) {
    out[p].schema = batch.schema;
    out[p].physical_rows = counts[p];
    out[p].columns.reserve(ncols);
    for (const ColumnVector& col : batch.columns) {
      ColumnVector c = ColumnVector::OfRep(col.rep());
      c.Reserve(counts[p]);
      out[p].columns.push_back(std::move(c));
    }
  }
  // Column-at-a-time scatter: each source column streams once.
  for (std::size_t c = 0; c < ncols; ++c) {
    const ColumnVector& src = batch.columns[c];
    for (std::size_t i = 0; i < n; ++i) {
      out[dest[i]].columns[c].AppendFrom(src, batch.PhysicalIndex(i));
    }
  }
  return out;
}

}  // namespace swift
