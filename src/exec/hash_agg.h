// HashAggNode: grouped aggregation (SUM / COUNT / MIN / MAX / AVG),
// materialized on first pull. Groups live in an open-addressing table
// keyed by the combined 64-bit key hash (HashColumn's combine), with the
// distinct keys materialized as typed columns — no per-row key
// serialization or allocation.
//
// The key layout is chosen once per batch, not per row:
//   dictionary  every key column is dictionary-coded and the product of
//               the dictionary sizes is at most a quarter of the batch's
//               row count, so combinations repeat (a global aggregation
//               qualifies: the empty product is 1).
//               A memo indexed by the row's code combination maps it to
//               its group, so hashing, probing and key verification run
//               once per distinct combination. The memo lives for one
//               batch only — codes belong to their chunk's StringDict
//               and mean nothing in the next batch. A new combination's
//               hash is combined from StringDict::hashes, bit-equal to
//               HashColumn's, so groups found here and by the other
//               layouts share one table.
//   int64       a single int64 key: bulk HashColumn, then an inline
//               typed compare against the stored key column instead of
//               CompareAt's per-call type dispatch.
//   generic     bulk HashColumn per key column, verify-on-collision via
//               typed CompareAt.
// Accumulation is one row-major pass updating the count and every
// SUM/AVG accumulator of a row together, so the per-accumulator
// dependency chains overlap; each accumulator still sees its rows in
// input order, so sums are bit-identical to one pass per aggregate.
// MIN/MAX keep one typed pass each. Groups appear in first-appearance
// order whatever the layout.
//
// The aggregation core lives in AggregationState so the parallel
// pipeline (exec/pipeline.h) can run one instance per worker as a
// thread-local pre-aggregation table and merge them at finalize; the
// serial HashAggNode drives a single instance. Both charge table growth
// to the query's memory budget (util/mem_budget.h) with the same
// per-group estimate (AggregationState::ChargeGrowth).
#ifndef PDTSTORE_EXEC_HASH_AGG_H_
#define PDTSTORE_EXEC_HASH_AGG_H_

#include <memory>
#include <vector>

#include "columnstore/batch.h"
#include "util/mem_budget.h"

namespace pdtstore {

/// Aggregate function kinds.
enum class AggKind { kSum, kCount, kMin, kMax, kAvg };

/// One aggregate: fn over input column `input_idx` (ignored for COUNT).
struct AggSpec {
  AggKind kind;
  size_t input_idx = 0;
};

/// The grouped-aggregation core: an open-addressing table keyed by the
/// combined key hash, a per-batch key-layout dispatch and a row-major
/// accumulate pass (see the file comment). Not thread-safe;
/// parallel aggregation gives each worker its own instance and merges
/// them (MergeFrom) under the runner's serialization.
class AggregationState {
 public:
  AggregationState(std::vector<size_t> group_by, std::vector<AggSpec> aggs);

  /// Folds one input batch into the table (groups created in order of
  /// first appearance).
  Status Absorb(const Batch& in);

  /// Partial-aggregation merge: folds `other`'s groups into this table
  /// (SUM/AVG/COUNT add, MIN/MAX fold; AVG merges exactly because sum
  /// and count are both carried).
  Status MergeFrom(const AggregationState& other);

  /// Charges `lease` for the groups created since the last call, at a
  /// fixed per-group estimate (key values + hash + slot + count + one
  /// accumulator per aggregate): budgets account growth, not exact heap
  /// bytes.
  Status ChargeGrowth(BudgetLease* lease);

  /// Assembles the result batch — the group-by key columns (first-
  /// appearance order) followed by one column per aggregate (COUNT ->
  /// int64, others -> double); a global aggregation over zero rows
  /// yields a single all-zero row. Leaves this state empty.
  Batch TakeResult();

 private:
  // Maps each row of `in` to its group id (creating groups), choosing
  // the key layout once for the whole batch (see the file comment).
  void AssignGroups(const Batch& in, uint32_t* gids);
  // The dictionary layout's memo size: the product of the key columns'
  // dictionary sizes, or 0 when some key is not dictionary-coded or the
  // product is too large for the batch's row count (n == 0 included).
  size_t DictComboCount(const Batch& in) const;
  // Whether group `gid`'s stored key equals row `row` of the source key
  // columns `src` (one per group-by key), by typed CompareAt.
  bool KeysEqual(uint32_t gid, const ColumnVector* const* src,
                 size_t row) const;
  // Returns the group whose combined hash is `h` and whose key satisfies
  // `key_equal(gid)`, creating it from row `row` of the source key
  // columns `src` when absent. The one probe / insert loop for every key
  // layout and for MergeFrom.
  template <typename KeyEqual>
  uint32_t FindOrAddGroup(uint64_t h, const ColumnVector* const* src,
                          size_t row, KeyEqual key_equal);
  // Folds the batch's values into the accumulators of groups `gids`.
  void Accumulate(const Batch& in, const uint32_t* gids);
  // Grows the open-addressing table (one rehash) so it can hold
  // `min_groups` groups under the 50% load cap.
  void GrowTable(size_t min_groups);

  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  bool key_cols_init_ = false;
  std::vector<ColumnVector> key_cols_;   // one value per group
  std::vector<uint64_t> group_hashes_;   // combined hash per group
  std::vector<uint32_t> slots_;          // open addressing: group id + 1
  size_t slot_mask_ = 0;
  std::vector<int64_t> counts_;          // per group
  std::vector<std::vector<double>> acc_;  // per agg, per group
  // Scratch reused across Absorb calls, refilled per batch so the
  // steady state allocates nothing: per-row hashes and group ids, the
  // source key columns, the dictionary layout's per-key codes and its
  // memo (code combination -> group id + 1, 0 = unseen), and the
  // accumulate lanes (accumulator + input column per SUM/AVG).
  struct DictKey {
    const uint32_t* codes;
    const uint64_t* hashes;  // StringDict::hashes
    size_t size;             // dictionary entries
  };
  struct DoubleLane {
    double* acc;
    const double* in;
  };
  struct IntLane {
    double* acc;
    const int64_t* in;
  };
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> gids_;
  std::vector<const ColumnVector*> key_src_;
  std::vector<DictKey> dict_keys_;
  std::vector<uint32_t> memo_;
  std::vector<DoubleLane> double_lanes_;
  std::vector<IntLane> int_lanes_;
  size_t charged_groups_ = 0;  // groups ChargeGrowth has billed
  // New groups the previous batch contributed — the carried estimate that
  // pre-sizes the table before each batch, so high-cardinality inputs do
  // one predicted rehash per batch at most instead of repeated
  // mid-AssignGroups doubling (SIZE_MAX until a batch has been seen: the
  // first batch pre-sizes for the worst case, every row a new group).
  size_t prev_batch_new_groups_ = static_cast<size_t>(-1);
};

/// Grouped aggregation. Output columns: the group-by columns (in the
/// given order) followed by one double/int64 column per aggregate
/// (COUNT -> int64, others -> double). Groups are emitted in order of
/// first appearance.
class HashAggNode : public BatchSource {
 public:
  HashAggNode(std::unique_ptr<BatchSource> input,
              std::vector<size_t> group_by, std::vector<AggSpec> aggs)
      : input_(std::move(input)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  Status BuildResult();

  std::unique_ptr<BatchSource> input_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  bool built_ = false;
  // Memory-budget charge for the group table, captured from the query
  // context at construction (query thread) and released when the node
  // dies — error paths included.
  BudgetLease lease_{CurrentBudget()};
  std::unique_ptr<BatchSource> emitter_;
};

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_HASH_AGG_H_
