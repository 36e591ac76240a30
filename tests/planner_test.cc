#include "sql/planner.h"

#include <gtest/gtest.h>

#include "exec/tpch.h"
#include "partition/partitioners.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.scale_factor = 0.001;
    ASSERT_TRUE(GenerateTpch(cfg, &catalog_).ok());
  }
  Catalog catalog_;
};

TEST_F(PlannerTest, SimpleScanPlan) {
  auto plan = PlanSql("select l_orderkey from tpch_lineitem", catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Scan stage + final sink.
  EXPECT_EQ(plan->stages.size(), 2u);
  const StageProgram& sink = plan->program(plan->final_stage);
  EXPECT_EQ(sink.task_count, 1);
  EXPECT_TRUE(plan->dag.outputs(plan->final_stage).empty());
}

TEST_F(PlannerTest, UnknownTableFails) {
  EXPECT_EQ(PlanSql("select * from nope", catalog_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(PlannerTest, UnknownColumnFails) {
  auto st = PlanSql("select zzz from tpch_nation", catalog_).status();
  EXPECT_EQ(st.code(), StatusCode::kPlanError);
}

TEST_F(PlannerTest, FilterPushdownIntoScan) {
  auto plan = PlanSql(
      "select n_name from tpch_nation where n_regionkey = 3", catalog_);
  ASSERT_TRUE(plan.ok());
  // Find the scan stage; its ops must contain the filter.
  bool found = false;
  for (const auto& [id, p] : plan->stages) {
    if (p.scan_table == "tpch_nation") {
      ASSERT_FALSE(p.ops.empty());
      EXPECT_EQ(p.ops[0].kind, LocalOpDesc::Kind::kFilter);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PlannerTest, JoinProducesJoinStageWithKeys) {
  auto plan = PlanSql(
      "select n_name, r_name from tpch_nation n "
      "join tpch_region r on n.n_regionkey = r.r_regionkey",
      catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool join_found = false;
  for (const auto& [id, p] : plan->stages) {
    if (!p.ops.empty() &&
        (p.ops[0].kind == LocalOpDesc::Kind::kMergeJoin ||
         p.ops[0].kind == LocalOpDesc::Kind::kHashJoin)) {
      join_found = true;
      EXPECT_EQ(p.inputs.size(), 2u);
      EXPECT_EQ(p.ops[0].left_keys.size(), 1u);
      // Producers are partitioned by their join keys.
      for (StageId in : p.inputs) {
        EXPECT_FALSE(plan->program(in).output_partition_keys.empty());
      }
    }
  }
  EXPECT_TRUE(join_found);
}

TEST_F(PlannerTest, SortModeUsesMergeJoinAndBarrierEdges) {
  PlannerConfig cfg;
  cfg.sort_mode = true;
  auto plan = PlanSql(
      "select n_name, r_name from tpch_nation n "
      "join tpch_region r on n.n_regionkey = r.r_regionkey",
      catalog_, cfg);
  ASSERT_TRUE(plan.ok());
  // The join stage contains MergeJoin + MergeSort, so its outgoing edge
  // is a barrier edge.
  bool checked = false;
  for (const auto& [id, p] : plan->stages) {
    if (!p.ops.empty() && p.ops[0].kind == LocalOpDesc::Kind::kMergeJoin) {
      for (StageId out : plan->dag.outputs(id)) {
        EXPECT_EQ(plan->dag.EdgeKindOf(id, out), EdgeKind::kBarrier);
        checked = true;
      }
    }
  }
  EXPECT_TRUE(checked);
}

TEST_F(PlannerTest, HashModeKeepsPipelineEdges) {
  PlannerConfig cfg;
  cfg.sort_mode = false;
  auto plan = PlanSql(
      "select n_name, r_name from tpch_nation n "
      "join tpch_region r on n.n_regionkey = r.r_regionkey",
      catalog_, cfg);
  ASSERT_TRUE(plan.ok());
  for (const EdgeDef& e : plan->dag.edges()) {
    EXPECT_EQ(plan->dag.EdgeKindOf(e.src, e.dst), EdgeKind::kPipeline);
  }
  // Hash joins make the stage non-idempotent (Sec. IV-B distinction).
  bool nonidem = false;
  for (const StageDef& s : plan->dag.stages()) {
    if (!s.idempotent) nonidem = true;
  }
  EXPECT_TRUE(nonidem);
}

TEST_F(PlannerTest, AggregatePlanShapes) {
  auto plan = PlanSql(
      "select n_regionkey, count(*) as n from tpch_nation group by "
      "n_regionkey",
      catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool agg_found = false;
  for (const auto& [id, p] : plan->stages) {
    for (const LocalOpDesc& op : p.ops) {
      if (op.kind == LocalOpDesc::Kind::kStreamedAggregate ||
          op.kind == LocalOpDesc::Kind::kHashAggregate) {
        agg_found = true;
        EXPECT_EQ(op.exprs.size(), 1u);
        EXPECT_EQ(op.aggs.size(), 1u);
        EXPECT_EQ(op.aggs[0].output_name, "n");
        // Upstream partitions by the group key.
        EXPECT_FALSE(plan->program(p.inputs[0]).output_partition_keys.empty());
      }
    }
  }
  EXPECT_TRUE(agg_found);
  // Output schema is in SELECT order.
  const Schema& out = plan->program(plan->final_stage).output_schema;
  ASSERT_EQ(out.num_fields(), 2u);
  EXPECT_EQ(out.field(0).name, "n_regionkey");
  EXPECT_EQ(out.field(1).name, "n");
}

TEST_F(PlannerTest, GlobalAggregateSingleTask) {
  auto plan = PlanSql("select count(*) from tpch_orders", catalog_);
  ASSERT_TRUE(plan.ok());
  for (const auto& [id, p] : plan->stages) {
    for (const LocalOpDesc& op : p.ops) {
      if (op.kind == LocalOpDesc::Kind::kStreamedAggregate ||
          op.kind == LocalOpDesc::Kind::kHashAggregate) {
        EXPECT_EQ(p.task_count, 1);
      }
    }
  }
}

TEST_F(PlannerTest, NonGroupedSelectItemRejected) {
  auto st = PlanSql(
      "select n_name, count(*) from tpch_nation group by n_regionkey",
      catalog_).status();
  EXPECT_EQ(st.code(), StatusCode::kPlanError);
}

TEST_F(PlannerTest, OrderByStageIsSingleTask) {
  auto plan = PlanSql(
      "select n_name from tpch_nation order by n_name desc limit 5",
      catalog_);
  ASSERT_TRUE(plan.ok());
  bool sort_found = false;
  for (const auto& [id, p] : plan->stages) {
    for (const LocalOpDesc& op : p.ops) {
      if (op.kind == LocalOpDesc::Kind::kSort) {
        sort_found = true;
        EXPECT_EQ(p.task_count, 1);
        EXPECT_FALSE(op.sort_keys[0].ascending);
      }
    }
  }
  EXPECT_TRUE(sort_found);
}

TEST_F(PlannerTest, ScanTaskCountScalesWithRows) {
  PlannerConfig cfg;
  cfg.rows_per_scan_task = 100;
  cfg.max_scan_tasks = 8;
  auto plan = PlanSql("select o_orderkey from tpch_orders", catalog_, cfg);
  ASSERT_TRUE(plan.ok());
  for (const auto& [id, p] : plan->stages) {
    if (p.scan_table == "tpch_orders") {
      EXPECT_EQ(p.task_count, 8);  // clamped to max
    }
  }
  cfg.rows_per_scan_task = 1000000;
  auto small = PlanSql("select o_orderkey from tpch_orders", catalog_, cfg);
  ASSERT_TRUE(small.ok());
  for (const auto& [id, p] : small->stages) {
    if (p.scan_table == "tpch_orders") {
      EXPECT_EQ(p.task_count, 1);
    }
  }
}

TEST_F(PlannerTest, Q9PlanPartitionsIntoManyGraphlets) {
  const char* q9 =
      "select nation, o_year, sum(amount) as sum_profit from ("
      " select n_name as nation, substr(o_orderdate, 1, 4) as o_year,"
      "  l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity as amount"
      " from tpch_supplier s"
      " join tpch_lineitem l on s.s_suppkey = l.l_suppkey"
      " join tpch_partsupp ps on ps.ps_suppkey = l.l_suppkey and "
      "   ps.ps_partkey = l.l_partkey"
      " join tpch_part p on p.p_partkey = l.l_partkey"
      " join tpch_orders o on o.o_orderkey = l.l_orderkey"
      " join tpch_nation n on s.s_nationkey = n.n_nationkey"
      " where p_name like '%green%'"
      ") group by nation, o_year order by nation, o_year desc limit 999999";
  PlannerConfig cfg;
  cfg.sort_mode = true;
  auto plan = PlanSql(q9, catalog_, cfg);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // 6 scans + 5 joins + agg + order-by + sink = 14 stages.
  EXPECT_EQ(plan->stages.size(), 14u);

  ShuffleModeAwarePartitioner partitioner;
  auto graphlets = partitioner.Partition(plan->dag);
  ASSERT_TRUE(graphlets.ok());
  // In sort mode every join/agg stage emits barrier edges, so each of
  // the 5 joins starts a new graphlet boundary, like the paper's Fig. 4.
  EXPECT_GE(graphlets->graphlets.size(), 5u);

  PlannerConfig hash;
  hash.sort_mode = false;
  auto hplan = PlanSql(q9, catalog_, hash);
  ASSERT_TRUE(hplan.ok());
  auto hgraphlets = partitioner.Partition(hplan->dag);
  ASSERT_TRUE(hgraphlets.ok());
  // Hash joins pipeline everything; only the global ORDER BY stage
  // (SortBy) still cuts before the sink: 2 graphlets.
  EXPECT_EQ(hgraphlets->graphlets.size(), 2u);
}

TEST_F(PlannerTest, PlanToStringMentionsStages) {
  auto plan = PlanSql("select n_name from tpch_nation", catalog_);
  ASSERT_TRUE(plan.ok());
  const std::string s = plan->ToString();
  EXPECT_NE(s.find("tpch_nation"), std::string::npos);
  EXPECT_NE(s.find("tasks="), std::string::npos);
}

// ---- Projection pushdown ----------------------------------------------

// The scan stages of `table`, in stage order.
std::vector<const StageProgram*> ScansOf(const DistributedPlan& plan,
                                         const std::string& table) {
  std::vector<const StageProgram*> scans;
  for (const auto& [id, p] : plan.stages) {
    if (p.scan_table == table) scans.push_back(&p);
  }
  return scans;
}

// A scan's field names, after checking each matches the table column its
// ordinal in scan_columns names.
std::vector<std::string> ScanFields(const Catalog& catalog,
                                    const StageProgram& scan) {
  const Schema& full = (*catalog.Lookup(scan.scan_table))->schema;
  EXPECT_EQ(scan.scan_columns.size(), scan.scan_schema.num_fields());
  std::vector<std::string> names;
  for (std::size_t i = 0; i < scan.scan_schema.num_fields(); ++i) {
    const std::string& name = scan.scan_schema.field(i).name;
    const std::string& column = full.field(scan.scan_columns[i]).name;
    EXPECT_TRUE(name == column ||
                (name.size() > column.size() &&
                 name.compare(name.size() - column.size() - 1,
                              std::string::npos, "." + column) == 0))
        << name << " vs table column " << column;
    names.push_back(name);
  }
  return names;
}

TEST_F(PlannerTest, Q6ScanReadsOnlyItsFourColumns) {
  auto plan = PlanSql(*TpchQuerySql(6), catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto scans = ScansOf(*plan, "tpch_lineitem");
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_EQ(ScanFields(catalog_, *scans[0]),
            (std::vector<std::string>{"l_quantity", "l_extendedprice",
                                      "l_discount", "l_shipdate"}));
  EXPECT_EQ(scans[0]->scan_columns, (std::vector<std::size_t>{4, 5, 6, 10}));
}

TEST_F(PlannerTest, SelectStarKeepsEveryColumn) {
  const std::size_t width =
      (*catalog_.Lookup("tpch_nation"))->schema.num_fields();
  for (const char* sql :
       {"select * from tpch_nation where n_regionkey = 1",
        // A star anywhere, here inside a FROM subquery, turns pruning off.
        "select t.n_name from (select * from tpch_nation) t"}) {
    auto plan = PlanSql(sql, catalog_);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    const auto scans = ScansOf(*plan, "tpch_nation");
    ASSERT_EQ(scans.size(), 1u) << sql;
    EXPECT_EQ(ScanFields(catalog_, *scans[0]).size(), width) << sql;
  }
}

TEST_F(PlannerTest, AliasSelfJoinKeepsReferencedColumnOnBothSides) {
  // Only n1.n_name and n2.n_nationkey are named, but base-name matching
  // keeps n_name and n_nationkey on both sides; n_comment goes.
  auto plan = PlanSql(
      "select n1.n_name from tpch_nation n1 "
      "join tpch_nation n2 on n1.n_regionkey = n2.n_regionkey "
      "where n2.n_nationkey = 3",
      catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto scans = ScansOf(*plan, "tpch_nation");
  ASSERT_EQ(scans.size(), 2u);
  EXPECT_EQ(ScanFields(catalog_, *scans[0]),
            (std::vector<std::string>{"n1.n_nationkey", "n1.n_name",
                                      "n1.n_regionkey"}));
  EXPECT_EQ(ScanFields(catalog_, *scans[1]),
            (std::vector<std::string>{"n2.n_nationkey", "n2.n_name",
                                      "n2.n_regionkey"}));
}

TEST_F(PlannerTest, CountStarScanKeepsOneColumn) {
  // The count itself is checked end to end by RuntimeTest.GlobalAggregate.
  auto plan = PlanSql("select count(*) from tpch_lineitem", catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto scans = ScansOf(*plan, "tpch_lineitem");
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_EQ(ScanFields(catalog_, *scans[0]).size(), 1u);
}

TEST_F(PlannerTest, FromSubqueryPrunesItsInnerScan) {
  auto plan = PlanSql(
      "select t.total from (select o_custkey, sum(o_totalprice) as total "
      "from tpch_orders group by o_custkey) t where t.total > 0",
      catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto scans = ScansOf(*plan, "tpch_orders");
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_EQ(ScanFields(catalog_, *scans[0]),
            (std::vector<std::string>{"o_custkey", "o_totalprice"}));
}

}  // namespace
}  // namespace swift
