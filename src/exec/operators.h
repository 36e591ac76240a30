#ifndef SWIFT_EXEC_OPERATORS_H_
#define SWIFT_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/column_batch.h"
#include "exec/expression.h"
#include "exec/schema.h"

namespace swift {

class BoundExpr;

/// \brief Pull-based physical operator: Open() then Next() until
/// std::nullopt. Output schema is valid after Open().
///
/// There is one execution path: every operator consumes and produces
/// ColumnBatches. Row batches exist only at the API edge — MakeBatchSource
/// converts rows in (ToColumnBatch) and CollectAll boxes rows out
/// (ToRowBatch).
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual Status Open() = 0;

  /// \brief Next output batch, or nullopt at end of stream. Batches may
  /// carry selection vectors; consumers must go through
  /// num_rows()/PhysicalIndex(), never a column's size().
  virtual Result<std::optional<ColumnBatch>> Next() = 0;

  const Schema& output_schema() const { return output_schema_; }

 protected:
  Schema output_schema_;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

/// \brief One ORDER BY key.
struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

/// \brief Aggregate functions of the runtime.
enum class AggKind : int { kSum, kCount, kMin, kMax, kAvg };

std::string_view AggKindToString(AggKind kind);

/// \brief One aggregate in a GROUP BY: kind(arg) AS output_name; a null
/// arg means COUNT(*).
struct AggSpec {
  AggKind kind = AggKind::kCount;
  ExprPtr arg;
  std::string output_name;
};

// ---- Sources --------------------------------------------------------

/// \brief API-edge source over row batches: each batch is converted with
/// ToColumnBatch when pulled, so a ragged batch (a row whose width does
/// not match the schema) fails that pull with InvalidArgument.
OperatorPtr MakeBatchSource(Schema schema, std::vector<Batch> batches);

/// \brief Emits pre-built columnar batches.
OperatorPtr MakeColumnBatchSource(Schema schema,
                                  std::vector<ColumnBatch> batches);

// ---- Streaming transforms -------------------------------------------

/// \brief Keeps rows where `predicate` is true: survivors become a
/// selection vector over the input's storage.
OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate);

/// \brief Computes one output column per (expr, name) pair.
OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names);

/// \brief Emits at most `limit` rows.
OperatorPtr MakeLimit(OperatorPtr child, int64_t limit);

// ---- Joins ----------------------------------------------------------

/// \brief Join flavors of the runtime.
enum class JoinType : int { kInner = 0, kLeftOuter = 1 };

/// \brief Equi-join: builds a hash table on `right`, probes with
/// `left` one batch at a time. Output schema = left ++ right; output
/// order is probe order, then build order within one probe row's
/// matches. NULL keys never match; with kLeftOuter, unmatched (and
/// NULL-key) left rows are emitted padded with NULLs.
OperatorPtr MakeHashJoin(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys,
                         JoinType join_type = JoinType::kInner);

/// \brief Equi-join over inputs already sorted ascending by their keys
/// (the paper's MergeJoin / sort-merge-join operator). Inputs that are
/// not sorted yield Status::Internal. kLeftOuter pads unmatched left
/// rows with NULLs.
OperatorPtr MakeMergeJoin(OperatorPtr left, OperatorPtr right,
                          std::vector<ExprPtr> left_keys,
                          std::vector<ExprPtr> right_keys,
                          JoinType join_type = JoinType::kInner);

// ---- Sorting & aggregation ------------------------------------------

/// \brief Full materializing sort (the paper's SortBy / MergeSort):
/// emits the drained input storage unchanged under a stable permutation
/// selection vector.
OperatorPtr MakeSort(OperatorPtr child, std::vector<SortKey> keys);

/// \brief Hash GROUP BY. Output schema: group columns then aggregates.
/// With no group keys emits exactly one global-aggregate row.
OperatorPtr MakeHashAggregate(OperatorPtr child, std::vector<ExprPtr> groups,
                              std::vector<std::string> group_names,
                              std::vector<AggSpec> aggs);

/// \brief GROUP BY over input sorted by the group keys (the paper's
/// StreamedAggregate): one running group, read in place through the
/// input's selection (e.g. a sort's permutation view); emits groups in
/// key order. Input that is not sorted yields Status::Internal.
OperatorPtr MakeStreamedAggregate(OperatorPtr child,
                                  std::vector<ExprPtr> groups,
                                  std::vector<std::string> group_names,
                                  std::vector<AggSpec> aggs);

// ---- Window ---------------------------------------------------------

/// \brief Window functions computable per partition.
enum class WindowFunc : int { kRowNumber, kRank, kSum };

/// \brief Appends one column `output_name` computed over partitions of
/// `partition_by`, ordered by `order_by` (the paper's Window operator).
/// kSum computes a running (cumulative) sum of `arg`.
OperatorPtr MakeWindow(OperatorPtr child, std::vector<ExprPtr> partition_by,
                       std::vector<SortKey> order_by, WindowFunc func,
                       ExprPtr arg, std::string output_name);

// ---- Helpers --------------------------------------------------------

/// \brief Narrows `batch` to the logical rows where `predicate` is true
/// (NULL is false; numeric nonzero and non-empty strings are true) by
/// composing a selection vector over its storage. `scratch` receives
/// the evaluated predicate column.
Status ApplyPredicate(const BoundExpr& predicate, ColumnVector* scratch,
                      ColumnBatch* batch);

/// \brief Drains an operator tree into one dense ColumnBatch (columns
/// pre-typed from the output schema, so the result always conforms for
/// SerializeColumnBatch's fast path).
Result<ColumnBatch> CollectAllColumnar(PhysicalOperator* op);

/// \brief API-edge adapter: CollectAllColumnar boxed into rows.
Result<Batch> CollectAll(PhysicalOperator* op);

/// \brief Hash-partitions `batch` into `num_partitions` by key columns
/// (shuffle-write partitioning): one vectorized hash pass over the key
/// columns (KeyEncoder::HashBatchColumns), exact per-partition counts,
/// then a column-at-a-time scatter into dense output batches. NULL keys
/// go to partition 0; computed key expressions are evaluated with
/// EvaluateVector first.
Result<std::vector<ColumnBatch>> HashPartitionColumnar(
    const ColumnBatch& batch, const std::vector<ExprPtr>& keys,
    int num_partitions);

}  // namespace swift

#endif  // SWIFT_EXEC_OPERATORS_H_
