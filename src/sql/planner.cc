#include "sql/planner.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"
#include "dag/dag_builder.h"
#include "sql/parser.h"

namespace swift {

namespace {

// True when every column referenced by `expr` resolves in `schema`.
bool Resolves(const ExprPtr& expr, const Schema& schema) {
  std::vector<std::string> cols;
  expr->CollectColumns(&cols);
  for (const std::string& c : cols) {
    if (!schema.IndexOf(c).ok()) return false;
  }
  return true;
}

// Last dot-separated segment of a column name, lowercased: the part a
// table column and every (qualified or bare) reference to it share.
std::string BaseName(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  return ToLower(dot == std::string::npos ? name : name.substr(dot + 1));
}

// Adds the base name of every column `stmt` references, in any clause
// and in FROM/JOIN subqueries, to `*out`. Returns false when a SELECT *
// appears anywhere: a star reads every column, so nothing is pruned.
bool CollectReferencedColumns(const SelectStmt& stmt,
                              std::set<std::string>* out) {
  std::vector<std::string> cols;
  const auto add = [&cols](const ExprPtr& e) {
    if (e != nullptr) e->CollectColumns(&cols);
  };
  for (const SelectItem& it : stmt.items) {
    if (it.star) return false;
    add(it.expr);
    add(it.agg_arg);
    if (it.window.has_value()) {
      add(it.window->arg);
      for (const ExprPtr& e : it.window->partition_by) add(e);
      for (const auto& oi : it.window->order_by) add(oi->expr);
    }
  }
  if (stmt.from.subquery != nullptr &&
      !CollectReferencedColumns(*stmt.from.subquery, out)) {
    return false;
  }
  for (const JoinClause& jc : stmt.joins) {
    if (jc.table.subquery != nullptr &&
        !CollectReferencedColumns(*jc.table.subquery, out)) {
      return false;
    }
    add(jc.on);
  }
  add(stmt.where);
  for (const ExprPtr& e : stmt.group_by) add(e);
  add(stmt.having);
  for (const OrderItem& oi : stmt.order_by) add(oi.expr);
  for (const std::string& c : cols) out->insert(BaseName(c));
  return true;
}

// Output column name of a SELECT item.
std::string ItemName(const SelectItem& item, std::size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.window.has_value()) {
    switch (item.window->func) {
      case WindowFunc::kRowNumber:
        return "row_number" + std::to_string(index);
      case WindowFunc::kRank:
        return "rank" + std::to_string(index);
      case WindowFunc::kSum:
        return "winsum" + std::to_string(index);
    }
  }
  const ExprPtr& e = item.agg.has_value() ? item.agg_arg : item.expr;
  if (e != nullptr) {
    if (const std::string* col = AsColumnName(*e)) {
      const std::size_t dot = col->rfind('.');
      std::string base = dot == std::string::npos ? *col : col->substr(dot + 1);
      if (item.agg.has_value()) {
        return std::string(AggKindToString(*item.agg)) + "_" + base;
      }
      return base;
    }
  }
  if (item.agg.has_value()) {
    return std::string(AggKindToString(*item.agg)) + std::to_string(index);
  }
  return "col" + std::to_string(index);
}

class PlanBuilder {
 public:
  PlanBuilder(const Catalog& catalog, const PlannerConfig& config)
      : catalog_(catalog), config_(config) {}

  Result<DistributedPlan> Build(const SelectStmt& stmt) {
    prune_ = CollectReferencedColumns(stmt, &referenced_);
    SWIFT_ASSIGN_OR_RETURN(StageId current, PlanSelect(stmt));
    // Final gather stage: single task, marked as the client sink.
    StageProgram sink;
    sink.stage = AllocId();
    sink.name = "R" + std::to_string(sink.stage + 1);
    sink.task_count = 1;
    sink.inputs = {current};
    sink.output_schema = stages_.at(current).output_schema;
    is_sink_[sink.stage] = true;
    const StageId sink_id = sink.stage;
    stages_[sink_id] = std::move(sink);
    return Finalize(sink_name_, sink_id);
  }

 private:
  StageId AllocId() { return static_cast<StageId>(next_id_++); }

  // ---- FROM operands -------------------------------------------------
  Result<StageId> PlanFrom(const TableRef& ref) {
    if (ref.subquery != nullptr) {
      SWIFT_ASSIGN_OR_RETURN(StageId sub, PlanSelect(*ref.subquery));
      if (!ref.alias.empty()) {
        // Qualify the subquery's output columns with its alias.
        StageProgram& p = stages_.at(sub);
        std::vector<Field> fields;
        for (const Field& f : p.output_schema.fields()) {
          fields.push_back(Field{ref.alias + "." + f.name, f.type});
        }
        Schema qualified(fields);
        // Rename via projection (column order is unchanged).
        LocalOpDesc proj;
        proj.kind = LocalOpDesc::Kind::kProject;
        for (const Field& f : p.output_schema.fields()) {
          proj.exprs.push_back(Expr::Column(f.name));
        }
        for (const Field& f : qualified.fields()) proj.names.push_back(f.name);
        p.ops.push_back(std::move(proj));
        p.output_schema = qualified;
      }
      return sub;
    }

    SWIFT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                           catalog_.Lookup(ref.table_name));
    StageProgram scan;
    scan.stage = AllocId();
    scan.name = "M" + std::to_string(scan.stage + 1);
    scan.scan_table = table->name;
    const int64_t rows = static_cast<int64_t>(table->rows.size());
    scan.task_count = static_cast<int>(std::clamp<int64_t>(
        (rows + config_.rows_per_scan_task - 1) / config_.rows_per_scan_task,
        1, config_.max_scan_tasks));
    // Projection pushdown: read only the columns some clause references.
    // Matching on base names keeps `col` for every `x.col`, so each side
    // of an alias self-join keeps it, and name resolution against the
    // pruned schema finds exactly what it found against the full one.
    const Schema& full = table->schema;
    for (std::size_t c = 0; c < full.num_fields(); ++c) {
      if (!prune_ || referenced_.count(BaseName(full.field(c).name)) > 0) {
        scan.scan_columns.push_back(c);
      }
    }
    // count(*) alone references nothing; the rows still need a carrier.
    if (scan.scan_columns.empty() && full.num_fields() > 0) {
      scan.scan_columns.push_back(0);
    }
    std::vector<Field> fields;
    for (std::size_t c : scan.scan_columns) {
      const Field& f = full.field(c);
      fields.push_back(ref.alias.empty()
                           ? f
                           : Field{ref.alias + "." + f.name, f.type});
    }
    scan.output_schema = Schema(std::move(fields));
    scan.scan_schema = scan.output_schema;
    StageId id = scan.stage;
    stages_[id] = std::move(scan);
    pushdown_candidates_.push_back(id);
    return id;
  }

  // ---- SELECT core -----------------------------------------------------
  Result<StageId> PlanSelect(const SelectStmt& stmt) {
    if (sink_name_.empty()) sink_name_ = "query";

    SWIFT_ASSIGN_OR_RETURN(StageId current, PlanFrom(stmt.from));

    // WHERE conjuncts: push into the widest-reaching scan that resolves
    // them; the rest waits for a join schema.
    std::vector<ExprPtr> pending = SplitConjuncts(stmt.where);
    std::vector<ExprPtr> unplaced;
    for (ExprPtr& conjunct : pending) {
      bool placed = false;
      for (StageId sid : pushdown_candidates_) {
        if (Resolves(conjunct, stages_.at(sid).output_schema)) {
          AppendFilter(sid, conjunct);
          placed = true;
          break;
        }
      }
      if (!placed && stages_.count(current) > 0 &&
          Resolves(conjunct, stages_.at(current).output_schema)) {
        AppendFilter(current, conjunct);
        placed = true;
      }
      if (!placed) unplaced.push_back(std::move(conjunct));
    }

    // Left-deep join chain.
    for (const JoinClause& jc : stmt.joins) {
      SWIFT_ASSIGN_OR_RETURN(StageId rhs, PlanFrom(jc.table));
      SWIFT_ASSIGN_OR_RETURN(current,
                             PlanJoin(current, rhs, jc.on, jc.left_outer));
      // Any unplaced WHERE conjunct that now resolves attaches here.
      std::vector<ExprPtr> still;
      for (ExprPtr& c : unplaced) {
        if (Resolves(c, stages_.at(current).output_schema)) {
          AppendFilter(current, c);
        } else {
          still.push_back(std::move(c));
        }
      }
      unplaced = std::move(still);
    }
    if (!unplaced.empty()) {
      return Status::PlanError(StrFormat(
          "predicate '%s' references columns not available in the plan",
          unplaced[0]->ToString().c_str()));
    }

    // Aggregation / projection.
    if (stmt.HasWindows()) {
      if (stmt.HasAggregates() || !stmt.group_by.empty()) {
        return Status::Unimplemented(
            "window functions cannot be combined with GROUP BY/aggregates");
      }
      SWIFT_ASSIGN_OR_RETURN(current, PlanWindowStage(stmt, current));
    } else if (stmt.HasAggregates() || !stmt.group_by.empty()) {
      SWIFT_ASSIGN_OR_RETURN(current, PlanAggregate(stmt, current));
    } else {
      if (stmt.having != nullptr) {
        return Status::PlanError("HAVING requires GROUP BY or aggregates");
      }
      SWIFT_RETURN_NOT_OK(PlanProjection(stmt, current));
    }

    // ORDER BY / LIMIT within this (sub)query: dedicated 1-task stage so
    // the ordering is global.
    if (!stmt.order_by.empty() || stmt.limit.has_value()) {
      SWIFT_ASSIGN_OR_RETURN(current, PlanOrderLimit(stmt, current));
    }
    return current;
  }

  void AppendFilter(StageId stage, ExprPtr predicate) {
    LocalOpDesc f;
    f.kind = LocalOpDesc::Kind::kFilter;
    f.predicate = std::move(predicate);
    stages_.at(stage).ops.push_back(std::move(f));
  }

  Result<StageId> PlanJoin(StageId left, StageId right, const ExprPtr& on,
                           bool left_outer) {
    const Schema& ls = stages_.at(left).output_schema;
    const Schema& rs = stages_.at(right).output_schema;
    std::vector<ExprPtr> lkeys, rkeys, residual;
    for (const ExprPtr& c : SplitConjuncts(on)) {
      auto parts = AsBinary(c);
      bool matched = false;
      if (parts.has_value() && parts->op == BinaryOp::kEq) {
        if (Resolves(parts->lhs, ls) && Resolves(parts->rhs, rs)) {
          lkeys.push_back(parts->lhs);
          rkeys.push_back(parts->rhs);
          matched = true;
        } else if (Resolves(parts->rhs, ls) && Resolves(parts->lhs, rs)) {
          lkeys.push_back(parts->rhs);
          rkeys.push_back(parts->lhs);
          matched = true;
        }
      }
      if (!matched) residual.push_back(c);
    }
    if (lkeys.empty()) {
      return Status::Unimplemented(StrFormat(
          "join without equi-condition: '%s'",
          on == nullptr ? "<none>" : on->ToString().c_str()));
    }

    StageProgram join;
    join.stage = AllocId();
    join.name = "J" + std::to_string(join.stage + 1);
    join.task_count = config_.shuffle_tasks;
    join.inputs = {left, right};
    LocalOpDesc jd;
    jd.kind = config_.sort_mode ? LocalOpDesc::Kind::kMergeJoin
                                : LocalOpDesc::Kind::kHashJoin;
    jd.left_keys = lkeys;
    jd.right_keys = rkeys;
    jd.left_outer = left_outer;
    join.ops.push_back(std::move(jd));
    join.output_schema = ls.Concat(rs);
    for (const ExprPtr& c : residual) {
      if (left_outer) {
        // A LEFT JOIN's extra ON conditions restrict *matching*, never
        // the preserved side. A right-side-only conjunct is equivalent
        // to pre-filtering the right input; anything else would need a
        // match-time predicate, which the runtime's joins do not take.
        if (Resolves(c, rs)) {
          AppendFilter(right, c);
          continue;
        }
        return Status::Unimplemented(StrFormat(
            "LEFT JOIN ON predicate '%s' must reference only the right "
            "side", c->ToString().c_str()));
      }
      if (!Resolves(c, join.output_schema)) {
        return Status::PlanError(StrFormat(
            "ON predicate '%s' references unknown columns",
            c->ToString().c_str()));
      }
      LocalOpDesc f;
      f.kind = LocalOpDesc::Kind::kFilter;
      f.predicate = c;
      join.ops.push_back(std::move(f));
    }

    stages_.at(left).output_partition_keys = lkeys;
    stages_.at(right).output_partition_keys = rkeys;
    StageId id = join.stage;
    stages_[id] = std::move(join);
    return id;
  }

  Result<StageId> PlanAggregate(const SelectStmt& stmt, StageId input) {
    const Schema& in = stages_.at(input).output_schema;

    // Alias substitution for GROUP BY entries that name a SELECT alias
    // not present in the input schema.
    auto substitute = [&](const ExprPtr& e) -> ExprPtr {
      const std::string* name = AsColumnName(*e);
      if (name == nullptr || in.IndexOf(*name).ok()) return e;
      for (std::size_t i = 0; i < stmt.items.size(); ++i) {
        const SelectItem& it = stmt.items[i];
        if (!it.agg.has_value() && it.expr != nullptr &&
            EqualsIgnoreCase(ItemName(it, i), *name)) {
          return it.expr;
        }
      }
      return e;
    };

    std::vector<ExprPtr> groups;
    for (const ExprPtr& g : stmt.group_by) groups.push_back(substitute(g));

    // Group output names come from matching SELECT items when possible.
    std::vector<std::string> group_names;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      std::string name = "g" + std::to_string(gi);
      for (std::size_t i = 0; i < stmt.items.size(); ++i) {
        const SelectItem& it = stmt.items[i];
        if (it.agg.has_value() || it.expr == nullptr) continue;
        if (it.expr->ToString() == groups[gi]->ToString() ||
            substitute(it.expr)->ToString() == groups[gi]->ToString()) {
          name = ItemName(it, i);
          break;
        }
      }
      group_names.push_back(std::move(name));
    }

    std::vector<AggSpec> aggs;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (!it.agg.has_value()) continue;
      AggSpec spec;
      spec.kind = *it.agg;
      spec.arg = it.agg_arg;
      spec.output_name = ItemName(it, i);
      aggs.push_back(std::move(spec));
    }

    // Every non-aggregate SELECT item must be a grouping expression.
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (it.agg.has_value()) continue;
      if (it.star) {
        return Status::PlanError("'*' not allowed with aggregates");
      }
      const std::string want = substitute(it.expr)->ToString();
      bool found = false;
      for (const ExprPtr& g : groups) {
        if (g->ToString() == want) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::PlanError(StrFormat(
            "SELECT item '%s' is neither aggregated nor grouped",
            it.expr->ToString().c_str()));
      }
    }

    StageProgram agg;
    agg.stage = AllocId();
    agg.name = "R" + std::to_string(agg.stage + 1);
    agg.task_count = groups.empty() ? 1 : config_.shuffle_tasks;
    agg.inputs = {input};
    LocalOpDesc ad;
    ad.kind = config_.sort_mode ? LocalOpDesc::Kind::kStreamedAggregate
                                : LocalOpDesc::Kind::kHashAggregate;
    ad.exprs = groups;
    ad.names = group_names;
    ad.aggs = aggs;
    agg.ops.push_back(std::move(ad));

    // Aggregate output: groups then aggs; reorder to SELECT order when
    // they differ.
    std::vector<std::string> natural;
    for (const std::string& g : group_names) natural.push_back(g);
    for (const AggSpec& a : aggs) natural.push_back(a.output_name);
    std::vector<std::string> want_names;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (it.agg.has_value()) {
        want_names.push_back(ItemName(it, i));
      } else {
        const std::string w = substitute(it.expr)->ToString();
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
          if (groups[gi]->ToString() == w) {
            want_names.push_back(group_names[gi]);
            break;
          }
        }
      }
    }

    // Compute the natural output schema types.
    std::vector<Field> natural_fields;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      auto t = groups[gi]->OutputType(in);
      natural_fields.push_back(
          Field{group_names[gi], t.ok() ? *t : DataType::kNull});
    }
    for (const AggSpec& a : aggs) {
      DataType t = DataType::kFloat64;
      if (a.kind == AggKind::kCount) {
        t = DataType::kInt64;
      } else if (a.arg != nullptr) {
        auto at = a.arg->OutputType(in);
        if (at.ok() && (a.kind == AggKind::kMin || a.kind == AggKind::kMax ||
                        a.kind == AggKind::kSum)) {
          t = *at;
        }
      }
      natural_fields.push_back(Field{a.output_name, t});
    }
    Schema natural_schema(natural_fields);

    if (want_names != natural) {
      LocalOpDesc proj;
      proj.kind = LocalOpDesc::Kind::kProject;
      for (const std::string& n : want_names) {
        proj.exprs.push_back(Expr::Column(n));
        proj.names.push_back(n);
      }
      agg.ops.push_back(std::move(proj));
      std::vector<Field> fields;
      for (const std::string& n : want_names) {
        auto idx = natural_schema.IndexOf(n);
        fields.push_back(idx.ok() ? natural_schema.field(*idx)
                                  : Field{n, DataType::kNull});
      }
      agg.output_schema = Schema(std::move(fields));
    } else {
      agg.output_schema = natural_schema;
    }

    // HAVING filters on the aggregate's output names (aliases).
    if (stmt.having != nullptr) {
      if (!Resolves(stmt.having, agg.output_schema)) {
        return Status::PlanError(StrFormat(
            "HAVING '%s' must reference SELECT output names",
            stmt.having->ToString().c_str()));
      }
      LocalOpDesc f;
      f.kind = LocalOpDesc::Kind::kFilter;
      f.predicate = stmt.having;
      agg.ops.push_back(std::move(f));
    }

    stages_.at(input).output_partition_keys = groups;
    StageId id = agg.stage;
    stages_[id] = std::move(agg);
    return id;
  }

  // Window stage: hash-partition by PARTITION BY, compute each window
  // column (the paper's Window operator, a global-sort op -> barrier
  // output edges), then project to SELECT order.
  Result<StageId> PlanWindowStage(const SelectStmt& stmt, StageId input) {
    const Schema in = stages_.at(input).output_schema;

    // All window items must share one PARTITION BY (one shuffle).
    const WindowSpec* first = nullptr;
    for (const SelectItem& it : stmt.items) {
      if (!it.window.has_value()) continue;
      if (first == nullptr) {
        first = &*it.window;
        continue;
      }
      if (it.window->partition_by.size() != first->partition_by.size()) {
        return Status::Unimplemented(
            "window functions with different PARTITION BY clauses");
      }
      for (std::size_t i = 0; i < first->partition_by.size(); ++i) {
        if (it.window->partition_by[i]->ToString() !=
            first->partition_by[i]->ToString()) {
          return Status::Unimplemented(
              "window functions with different PARTITION BY clauses");
        }
      }
    }

    StageProgram win;
    win.stage = AllocId();
    win.name = "W" + std::to_string(win.stage + 1);
    win.task_count =
        first->partition_by.empty() ? 1 : config_.shuffle_tasks;
    win.inputs = {input};

    std::vector<Field> fields = in.fields();
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (!it.window.has_value()) continue;
      const WindowSpec& spec = *it.window;
      for (const ExprPtr& e : spec.partition_by) {
        if (!Resolves(e, in)) {
          return Status::PlanError(StrFormat(
              "PARTITION BY '%s' references unknown columns",
              e->ToString().c_str()));
        }
      }
      LocalOpDesc w;
      w.kind = LocalOpDesc::Kind::kWindow;
      w.partition_by = spec.partition_by;
      for (const auto& oi : spec.order_by) {
        if (!Resolves(oi->expr, in)) {
          return Status::PlanError(StrFormat(
              "window ORDER BY '%s' references unknown columns",
              oi->expr->ToString().c_str()));
        }
        w.sort_keys.push_back(SortKey{oi->expr, oi->ascending});
      }
      w.window_func = spec.func;
      w.window_arg = spec.arg;
      if (spec.func == WindowFunc::kSum &&
          (spec.arg == nullptr || !Resolves(spec.arg, in))) {
        return Status::PlanError("window sum() argument unresolvable");
      }
      w.output_name = ItemName(it, i);
      fields.push_back(Field{w.output_name,
                             spec.func == WindowFunc::kSum
                                 ? DataType::kFloat64
                                 : DataType::kInt64});
      win.ops.push_back(std::move(w));
    }
    const Schema extended(fields);

    // Project to SELECT order.
    LocalOpDesc proj;
    proj.kind = LocalOpDesc::Kind::kProject;
    std::vector<Field> out_fields;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (it.star) {
        return Status::Unimplemented("'*' mixed with window functions");
      }
      const std::string name = ItemName(it, i);
      ExprPtr e = it.window.has_value() ? Expr::Column(name) : it.expr;
      if (!Resolves(e, extended)) {
        return Status::PlanError(StrFormat(
            "SELECT item '%s' references unknown columns",
            e->ToString().c_str()));
      }
      auto t = e->OutputType(extended);
      out_fields.push_back(Field{name, t.ok() ? *t : DataType::kNull});
      proj.exprs.push_back(std::move(e));
      proj.names.push_back(name);
    }
    win.ops.push_back(std::move(proj));
    win.output_schema = Schema(std::move(out_fields));

    stages_.at(input).output_partition_keys = first->partition_by;
    StageId id = win.stage;
    stages_[id] = std::move(win);
    return id;
  }

  Status PlanProjection(const SelectStmt& stmt, StageId current) {
    if (stmt.items.size() == 1 && stmt.items[0].star) {
      return Status::OK();  // identity
    }
    for (const SelectItem& it : stmt.items) {
      if (it.star) {
        return Status::Unimplemented("'*' mixed with other SELECT items");
      }
    }
    StageProgram& p = stages_.at(current);
    LocalOpDesc proj;
    proj.kind = LocalOpDesc::Kind::kProject;
    std::vector<Field> fields;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (!Resolves(it.expr, p.output_schema)) {
        return Status::PlanError(StrFormat(
            "SELECT item '%s' references unknown columns",
            it.expr->ToString().c_str()));
      }
      proj.exprs.push_back(it.expr);
      const std::string name = ItemName(it, i);
      proj.names.push_back(name);
      auto t = it.expr->OutputType(p.output_schema);
      fields.push_back(Field{name, t.ok() ? *t : DataType::kNull});
    }
    p.ops.push_back(std::move(proj));
    p.output_schema = Schema(std::move(fields));
    return Status::OK();
  }

  Result<StageId> PlanOrderLimit(const SelectStmt& stmt, StageId input) {
    StageProgram fin;
    fin.stage = AllocId();
    fin.name = "R" + std::to_string(fin.stage + 1);
    fin.task_count = 1;
    fin.inputs = {input};
    fin.output_schema = stages_.at(input).output_schema;
    if (!stmt.order_by.empty()) {
      LocalOpDesc sort;
      sort.kind = LocalOpDesc::Kind::kSort;
      for (const OrderItem& oi : stmt.order_by) {
        if (!Resolves(oi.expr, fin.output_schema)) {
          return Status::PlanError(StrFormat(
              "ORDER BY '%s' references unknown columns",
              oi.expr->ToString().c_str()));
        }
        sort.sort_keys.push_back(SortKey{oi.expr, oi.ascending});
      }
      fin.ops.push_back(std::move(sort));
    }
    if (stmt.limit.has_value()) {
      LocalOpDesc lim;
      lim.kind = LocalOpDesc::Kind::kLimit;
      lim.limit = *stmt.limit;
      fin.ops.push_back(std::move(lim));
    }
    StageId id = fin.stage;
    stages_[id] = std::move(fin);
    return id;
  }

  // ---- DAG assembly ----------------------------------------------------
  static std::vector<OperatorKind> OperatorKinds(const StageProgram& p,
                                                 bool is_sink) {
    std::vector<OperatorKind> kinds;
    kinds.push_back(p.scan_table.empty() ? OperatorKind::kShuffleRead
                                         : OperatorKind::kTableScan);
    for (const LocalOpDesc& op : p.ops) {
      switch (op.kind) {
        case LocalOpDesc::Kind::kFilter:
          kinds.push_back(OperatorKind::kFilter);
          break;
        case LocalOpDesc::Kind::kProject:
          kinds.push_back(OperatorKind::kProject);
          break;
        case LocalOpDesc::Kind::kHashJoin:
          kinds.push_back(OperatorKind::kHashJoin);
          break;
        case LocalOpDesc::Kind::kMergeJoin:
          kinds.push_back(OperatorKind::kMergeJoin);
          kinds.push_back(OperatorKind::kMergeSort);
          break;
        case LocalOpDesc::Kind::kSort:
          kinds.push_back(OperatorKind::kSortBy);
          break;
        case LocalOpDesc::Kind::kHashAggregate:
          kinds.push_back(OperatorKind::kHashAggregate);
          break;
        case LocalOpDesc::Kind::kStreamedAggregate:
          kinds.push_back(OperatorKind::kStreamedAggregate);
          break;
        case LocalOpDesc::Kind::kLimit:
          kinds.push_back(OperatorKind::kLimit);
          break;
        case LocalOpDesc::Kind::kWindow:
          kinds.push_back(OperatorKind::kWindow);
          break;
      }
    }
    kinds.push_back(is_sink ? OperatorKind::kAdhocSink
                            : OperatorKind::kShuffleWrite);
    return kinds;
  }

  Result<DistributedPlan> Finalize(const std::string& job_name,
                                   StageId final_stage) {
    std::vector<StageDef> defs;
    std::vector<EdgeDef> edges;
    for (const auto& [id, p] : stages_) {
      StageDef def;
      def.id = id;
      def.name = p.name;
      def.task_count = p.task_count;
      def.operators = OperatorKinds(p, is_sink_.count(id) > 0);
      // Hash-based operators make output order input-arrival dependent:
      // the paper's non-idempotent class (Sec. IV-B).
      def.idempotent = true;
      for (const LocalOpDesc& op : p.ops) {
        if (op.kind == LocalOpDesc::Kind::kHashJoin ||
            op.kind == LocalOpDesc::Kind::kHashAggregate) {
          def.idempotent = false;
        }
      }
      defs.push_back(std::move(def));
      for (StageId in : p.inputs) {
        edges.push_back(EdgeDef{in, id, std::nullopt});
      }
    }
    SWIFT_ASSIGN_OR_RETURN(JobDag dag,
                           JobDag::Create(job_name, defs, edges));
    DistributedPlan plan;
    plan.dag = std::move(dag);
    plan.stages = std::move(stages_);
    plan.final_stage = final_stage;
    return plan;
  }

  const Catalog& catalog_;
  const PlannerConfig& config_;
  std::map<StageId, StageProgram> stages_;
  std::map<StageId, bool> is_sink_;
  std::vector<StageId> pushdown_candidates_;
  // Base names of every column the statement references; scans read
  // only matching columns unless a SELECT * turned pruning off.
  std::set<std::string> referenced_;
  bool prune_ = true;
  std::string sink_name_;
  int next_id_ = 0;
};

}  // namespace

std::string DistributedPlan::ToString() const {
  std::ostringstream os;
  os << dag.ToString();
  for (const auto& [id, p] : stages) {
    os << "  program " << p.name << ": ";
    if (!p.scan_table.empty()) os << "scan(" << p.scan_table << ") ";
    os << "tasks=" << p.task_count << " schema=" << p.output_schema.ToString()
       << "\n";
  }
  return os.str();
}

Result<DistributedPlan> PlanQuery(const SelectStmt& stmt,
                                  const Catalog& catalog,
                                  const PlannerConfig& config) {
  PlanBuilder builder(catalog, config);
  return builder.Build(stmt);
}

Result<DistributedPlan> PlanSql(const std::string& sql, const Catalog& catalog,
                                const PlannerConfig& config) {
  SWIFT_ASSIGN_OR_RETURN(std::shared_ptr<SelectStmt> stmt, ParseSelect(sql));
  return PlanQuery(*stmt, catalog, config);
}

}  // namespace swift
