#ifndef SWIFT_TESTS_REFERENCE_EVAL_H_
#define SWIFT_TESTS_REFERENCE_EVAL_H_

// Test-only reference evaluator: the naive, obviously-correct semantics
// the columnar operators are checked against. Everything here works on
// row batches with per-row BoundExpr::Evaluate and Value::Compare —
// nested-loop joins, a linear first-seen group list, std::stable_sort —
// and shares no code with the operators beyond expression binding.
// Shuffle partitioning is the one exception: a partition's destination
// is defined by the scalar key hash (KeyEncoder::HashNormalized).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/hash64.h"
#include "exec/bound_expr.h"
#include "exec/key_encoder.h"
#include "exec/operators.h"

namespace swift {
namespace ref {

inline std::vector<BoundExprPtr> BindOrDie(const std::vector<ExprPtr>& exprs,
                                           const Schema& schema) {
  return *BindAll(exprs, schema);
}

inline Row EvalRow(const std::vector<BoundExprPtr>& exprs, const Row& row) {
  Row out;
  out.reserve(exprs.size());
  for (const BoundExprPtr& e : exprs) out.push_back(*e->Evaluate(row));
  return out;
}

inline bool HasNull(const Row& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

// Lexicographic Value::Compare (NULLs first and equal to each other).
inline int CompareRows(const Row& a, const Row& b) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  return 0;
}

inline bool Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int64()) return v.int64() != 0;
  if (v.is_float64()) return v.float64() != 0.0;
  return !v.str().empty();
}

inline Batch Filter(const Batch& in, const ExprPtr& predicate) {
  const BoundExprPtr p = *Bind(predicate, in.schema);
  Batch out;
  out.schema = in.schema;
  for (const Row& r : in.rows) {
    if (Truthy(*p->Evaluate(r))) out.rows.push_back(r);
  }
  return out;
}

inline Batch Project(const Batch& in, const std::vector<ExprPtr>& exprs,
                     const std::vector<std::string>& names) {
  std::vector<Field> fields;
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    fields.push_back(Field{names[i], *exprs[i]->OutputType(in.schema)});
  }
  const std::vector<BoundExprPtr> bound = BindOrDie(exprs, in.schema);
  Batch out;
  out.schema = Schema(std::move(fields));
  for (const Row& r : in.rows) out.rows.push_back(EvalRow(bound, r));
  return out;
}

inline Batch Limit(const Batch& in, std::size_t n) {
  Batch out = in;
  if (out.rows.size() > n) out.rows.resize(n);
  return out;
}

// The rows of `parts`, one after another, under `schema`.
inline Batch Concat(const Schema& schema, const std::vector<Batch>& parts) {
  Batch out;
  out.schema = schema;
  for (const Batch& b : parts) {
    out.rows.insert(out.rows.end(), b.rows.begin(), b.rows.end());
  }
  return out;
}

// The ORDER BY reference: a stable sort of (sort key, payload) pairs by
// Value::Compare key by key, negated for DESC keys. Sort and Window's
// per-partition ordering must reproduce its order exactly, ties
// included.
template <typename Payload>
void StableSortByKeys(std::vector<std::pair<Row, Payload>>* rows,
                      const std::vector<SortKey>& keys) {
  std::stable_sort(rows->begin(), rows->end(),
                   [&](const auto& a, const auto& b) {
                     for (std::size_t k = 0; k < keys.size(); ++k) {
                       int c = a.first[k].Compare(b.first[k]);
                       if (!keys[k].ascending) c = -c;
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
}

inline Batch Sort(const Batch& in, const std::vector<SortKey>& keys) {
  std::vector<ExprPtr> exprs;
  for (const SortKey& k : keys) exprs.push_back(k.expr);
  const std::vector<BoundExprPtr> bound = BindOrDie(exprs, in.schema);
  std::vector<std::pair<Row, Row>> rows;  // (sort key, row)
  for (const Row& r : in.rows) rows.emplace_back(EvalRow(bound, r), r);
  StableSortByKeys(&rows, keys);
  Batch out;
  out.schema = in.schema;
  for (auto& kr : rows) out.rows.push_back(std::move(kr.second));
  return out;
}

// Nested-loop equi-join: every left row in order, its matches in right
// order. NULL keys never match; left outer pads unmatched left rows.
inline Batch Join(const Batch& left, const Batch& right,
                  const std::vector<ExprPtr>& left_keys,
                  const std::vector<ExprPtr>& right_keys, JoinType join_type) {
  const std::vector<BoundExprPtr> lb = BindOrDie(left_keys, left.schema);
  const std::vector<BoundExprPtr> rb = BindOrDie(right_keys, right.schema);
  Batch out;
  out.schema = left.schema.Concat(right.schema);
  for (const Row& l : left.rows) {
    const Row lk = EvalRow(lb, l);
    bool matched = false;
    for (const Row& r : right.rows) {
      const Row rk = EvalRow(rb, r);
      if (HasNull(lk) || HasNull(rk) || CompareRows(lk, rk) != 0) continue;
      Row o = l;
      o.insert(o.end(), r.begin(), r.end());
      out.rows.push_back(std::move(o));
      matched = true;
    }
    if (!matched && join_type == JoinType::kLeftOuter) {
      Row o = l;
      o.resize(o.size() + right.schema.num_fields(), Value::Null());
      out.rows.push_back(std::move(o));
    }
  }
  return out;
}

// Aggregate state in input row order (so float sums are bit-exact).
struct AggRef {
  double sum = 0.0;
  int64_t count = 0;
  bool all_int = true;
  Value min;
  Value max;

  void Update(AggKind kind, const Value& v) {
    if (kind == AggKind::kCount) {
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

// GROUP BY through a linear first-seen group list: a row joins the first
// group whose key compares equal cell by cell (NULL keys form groups).
// With no group keys, an empty input still yields one row.
inline Batch Aggregate(const Batch& in, const std::vector<ExprPtr>& groups,
                       const std::vector<std::string>& names,
                       const std::vector<AggSpec>& aggs) {
  std::vector<Field> fields;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    fields.push_back(Field{names[i], *groups[i]->OutputType(in.schema)});
  }
  std::vector<BoundExprPtr> args;
  for (const AggSpec& a : aggs) {
    DataType t = DataType::kFloat64;
    if (a.kind == AggKind::kCount) {
      t = DataType::kInt64;
    } else if (a.arg != nullptr && a.kind != AggKind::kAvg) {
      t = *a.arg->OutputType(in.schema);
    }
    fields.push_back(Field{a.output_name, t});
    args.push_back(a.arg == nullptr ? nullptr : *Bind(a.arg, in.schema));
  }
  const std::vector<BoundExprPtr> bound = BindOrDie(groups, in.schema);
  std::vector<Row> keys;
  std::vector<std::vector<AggRef>> states;
  for (const Row& r : in.rows) {
    const Row key = EvalRow(bound, r);
    std::size_t g = 0;
    while (g < keys.size() && CompareRows(keys[g], key) != 0) ++g;
    if (g == keys.size()) {
      keys.push_back(key);
      states.emplace_back(aggs.size());
    }
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const Value v = args[a] == nullptr ? Value(int64_t{1})
                                         : *args[a]->Evaluate(r);
      if (aggs[a].kind == AggKind::kCount && v.is_null()) continue;
      states[g][a].Update(aggs[a].kind, v);
    }
  }
  if (groups.empty() && keys.empty()) {
    keys.emplace_back();
    states.emplace_back(aggs.size());
  }
  Batch out;
  out.schema = Schema(std::move(fields));
  for (std::size_t g = 0; g < keys.size(); ++g) {
    Row o = keys[g];
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      o.push_back(states[g][a].Finish(aggs[a].kind));
    }
    out.rows.push_back(std::move(o));
  }
  return out;
}

// Partitions (first-seen groups of equal keys) emitted in key order,
// ties in first-seen order; rows within a partition stable-sorted by the
// order keys; the window value appended as the last column.
inline Batch Window(const Batch& in, const std::vector<ExprPtr>& partition_by,
                    const std::vector<SortKey>& order_by, WindowFunc func,
                    const ExprPtr& arg, const std::string& output_name) {
  std::vector<ExprPtr> order_exprs;
  for (const SortKey& k : order_by) order_exprs.push_back(k.expr);
  const std::vector<BoundExprPtr> pb = BindOrDie(partition_by, in.schema);
  const std::vector<BoundExprPtr> ob = BindOrDie(order_exprs, in.schema);
  const BoundExprPtr ab = arg == nullptr ? nullptr : *Bind(arg, in.schema);

  std::vector<Row> part_keys;
  std::vector<std::vector<std::size_t>> parts;
  for (std::size_t i = 0; i < in.rows.size(); ++i) {
    const Row key = EvalRow(pb, in.rows[i]);
    std::size_t g = 0;
    while (g < part_keys.size() && CompareRows(part_keys[g], key) != 0) ++g;
    if (g == part_keys.size()) {
      part_keys.push_back(key);
      parts.emplace_back();
    }
    parts[g].push_back(i);
  }
  std::vector<std::size_t> porder(parts.size());
  for (std::size_t g = 0; g < porder.size(); ++g) porder[g] = g;
  std::stable_sort(porder.begin(), porder.end(),
                   [&](std::size_t a, std::size_t b) {
                     return CompareRows(part_keys[a], part_keys[b]) < 0;
                   });

  std::vector<Field> fields = in.schema.fields();
  fields.push_back(Field{output_name, func == WindowFunc::kSum
                                          ? DataType::kFloat64
                                          : DataType::kInt64});
  Batch out;
  out.schema = Schema(std::move(fields));
  for (const std::size_t g : porder) {
    std::vector<std::pair<Row, std::size_t>> rows;  // (order key, row idx)
    for (const std::size_t i : parts[g]) {
      rows.emplace_back(EvalRow(ob, in.rows[i]), i);
    }
    StableSortByKeys(&rows, order_by);
    int64_t rank = 0;
    double running_sum = 0.0;
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const Row& r = in.rows[rows[j].second];
      if (j == 0 || CompareRows(rows[j].first, rows[j - 1].first) != 0) {
        rank = static_cast<int64_t>(j) + 1;
      }
      Row o = r;
      switch (func) {
        case WindowFunc::kRowNumber:
          o.push_back(Value(static_cast<int64_t>(j) + 1));
          break;
        case WindowFunc::kRank:
          o.push_back(Value(rank));
          break;
        case WindowFunc::kSum: {
          const Value v = *ab->Evaluate(r);
          if (!v.is_null()) running_sum += v.AsDouble();
          o.push_back(Value(running_sum));
          break;
        }
      }
      out.rows.push_back(std::move(o));
    }
  }
  return out;
}

// Shuffle partitioning: a row goes to RangeReduce of its scalar key hash
// (partition 0 when any key cell is NULL); rows keep input order.
inline std::vector<Batch> Partition(const Batch& in,
                                    const std::vector<ExprPtr>& keys,
                                    int num_partitions) {
  const std::vector<BoundExprPtr> bound = BindOrDie(keys, in.schema);
  std::vector<Batch> out(static_cast<std::size_t>(num_partitions));
  for (Batch& p : out) p.schema = in.schema;
  for (const Row& r : in.rows) {
    std::size_t p = 0;
    if (!bound.empty()) {
      bool has_null = false;
      const uint64_t h = KeyEncoder::HashNormalized(EvalRow(bound, r), &has_null);
      if (!has_null) p = RangeReduce(h, static_cast<uint32_t>(num_partitions));
    }
    out[p].rows.push_back(r);
  }
  return out;
}

}  // namespace ref
}  // namespace swift

#endif  // SWIFT_TESTS_REFERENCE_EVAL_H_
