// HashJoinNode: in-memory equi-join. The build side is fully materialized
// into a flat chained hash table keyed by a combined 64-bit key hash
// (verify-on-collision against the materialized build columns); probe
// batches are hashed with one bulk HashColumn pass per key column and
// matches are compacted with selection-vector gathers. Inner or
// left-semi/anti.
//
// The build side is factored into an immutable PartitionedJoinTable —
// P >= 1 independent JoinTable partitions addressed by a hash-derived
// partition function — behind a JoinBuildHandle (the publish barrier).
// The parallel pipeline (exec/pipeline.h) partitions build rows by hash
// inside the collect workers and finalizes the P partitions in
// parallel; probes route each row by the same partition function and
// share the whole structure lock-free. The serial HashJoinNode builds a
// single partition, byte-identical to the pre-partitioned behavior.
#ifndef PDTSTORE_EXEC_HASH_JOIN_H_
#define PDTSTORE_EXEC_HASH_JOIN_H_

#include <functional>
#include <memory>
#include <vector>

#include "columnstore/batch.h"
#include "util/mem_budget.h"

namespace pdtstore {

/// Join flavor.
enum class JoinKind { kInner, kLeftSemi, kLeftAnti };

/// One partition of the materialized build side: build rows plus a flat
/// chained hash table over them. Immutable once built, so probe workers
/// share it without locks.
///
/// Layout (three flat arrays, no per-key allocation):
///   heads_  power-of-two slot array with >= 2n slots, indexed by the
///           low bits of the combined key hash; entry = 1 + first build
///           row of the slot's chain, 0 = empty slot.
///   next_   per build row: 1 + next row in the same slot's chain, 0 =
///           end of chain.
///   hashes_ per build row: its combined key hash. A probe compares it
///           before the typed key check, so a slot collision costs one
///           integer compare.
/// Rows are linked in reverse, so every chain walks in ascending build-
/// row order: duplicate matches come out in build order.
///
/// That is 12 bytes per build row plus 8-16 for heads_ (20-28 in all),
/// built with three allocations. The node-per-key map it replaces
/// (hash -> vector of rows) cost ~88 bytes and two heap allocations per
/// distinct key: a 48-byte node chunk holding the vector header, a
/// 32-byte chunk for the vector's buffer, and an 8-byte bucket pointer.
class JoinTable {
 public:
  static JoinTable Build(Batch build_rows, std::vector<size_t> keys);
  /// Build with the combined key hashes already computed (hashes[i] for
  /// row i) — the partitioned collect path hashes rows once to route
  /// them and reuses the values here.
  static JoinTable BuildWithHashes(Batch build_rows,
                                   std::vector<size_t> keys,
                                   std::vector<uint64_t> hashes);

  const Batch& rows() const { return rows_; }
  size_t num_rows() const { return rows_.num_rows(); }

  /// Appends (probe_row, b) to (*probe_sel, *build_sel) for every build
  /// row b whose keys equal probe row `probe_row` of `probe`, in build
  /// order. `hash` is the probe row's combined key hash.
  void AppendMatches(const std::vector<size_t>& probe_keys,
                     const Batch& probe, uint32_t probe_row, uint64_t hash,
                     SelVector* probe_sel, SelVector* build_sel) const;
  /// Whether any build row's keys equal the probe row's.
  bool HasMatch(const std::vector<size_t>& probe_keys, const Batch& probe,
                uint32_t probe_row, uint64_t hash) const;

 private:
  /// The one chain walk: calls on_match(b) for each build row b with
  /// the probe row's hash and keys, in build order, until it returns
  /// false.
  template <typename OnMatch>
  void ForEachMatch(const std::vector<size_t>& probe_keys,
                    const Batch& probe, uint32_t probe_row, uint64_t hash,
                    OnMatch on_match) const;
  /// Typed key equality between a probe row and a build row (the
  /// verify-on-collision step).
  bool KeysEqual(const std::vector<size_t>& probe_keys, const Batch& probe,
                 size_t probe_row, size_t build_row) const;

  Batch rows_;
  std::vector<size_t> key_cols_;
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
  std::vector<uint64_t> hashes_;
  uint64_t slot_mask_ = 0;
};

/// The partition function both the build collect and the probe use.
/// High hash bits, so the choice is independent of the low bits the
/// per-partition slot arrays index on; P == 1 short-circuits.
inline size_t JoinPartitionOf(uint64_t hash, size_t num_partitions) {
  return num_partitions == 1 ? 0 : (hash >> 32) % num_partitions;
}

/// The published build side: P >= 1 hash partitions. Build and probe
/// agree on PartitionOf, so a probe row only ever touches one
/// partition's chains. P == 1 (every serial join) behaves exactly like
/// the single-table join.
struct PartitionedJoinTable {
  std::vector<JoinTable> parts;

  size_t num_partitions() const { return parts.size(); }
  size_t TotalRows() const;

  size_t PartitionOf(uint64_t hash) const {
    return JoinPartitionOf(hash, parts.size());
  }
};

/// Per-thread probe scratch (allocation-free steady state).
struct JoinProbeScratch {
  std::vector<uint64_t> hashes;
  SelVector probe_sel;
  SelVector build_sel;
  KeepBitmap keep;  // semi/anti survivor bits, 1 bit per probe row
  std::vector<SelVector> part_rows;  // probe rows routed per partition
  Batch out_proto;  // output layout, built once, reused via ResetLike
  bool proto_init = false;
};

/// Probes `in` against `table`, filling `*out` (reset to the output
/// layout): inner gathers probe then build columns; semi/anti compact
/// surviving probe rows (each probe row emitted at most once no matter
/// how many build rows match). Thread-safe across distinct scratch
/// objects. Inner matches for one probe row come out in that row's
/// partition's build order.
void ProbeJoinBatch(const PartitionedJoinTable& table,
                    const std::vector<size_t>& probe_keys, JoinKind kind,
                    const Batch& in, Batch* out, JoinProbeScratch* scratch);

/// Deferred join build side: resolves to an immutable
/// PartitionedJoinTable on first use and caches it — the pipeline's
/// build barrier. Resolution happens on the probing consumer's thread
/// before probe workers start (see PipelineOp::Prepare); the handle
/// itself is not thread-safe, sharing one across concurrently-starting
/// probes requires external order.
class JoinBuildHandle {
 public:
  /// Build side drained from a serial source (MaterializeAll) into a
  /// single partition — the serial join's unchanged shape.
  JoinBuildHandle(std::unique_ptr<BatchSource> build_source,
                  std::vector<size_t> build_keys);
  /// Build side produced by an arbitrary producer (the parallel
  /// partitioned build pipeline; see Pipeline::IntoJoinBuild).
  explicit JoinBuildHandle(
      std::function<StatusOr<PartitionedJoinTable>()> producer);

  /// Runs the build on first call; later calls return the cached table
  /// (or the cached failure).
  StatusOr<const PartitionedJoinTable*> Resolve();

  /// Ties `lease` (the build side's memory-budget charges) to this
  /// handle: the bytes stay charged exactly as long as the cached table
  /// they cover is alive.
  void RetainLease(std::shared_ptr<BudgetLease> lease) {
    lease_ = std::move(lease);
  }

 private:
  std::function<StatusOr<PartitionedJoinTable>()> producer_;
  std::shared_ptr<BudgetLease> lease_;
  bool resolved_ = false;
  Status error_ = Status::OK();
  PartitionedJoinTable table_;
};

/// Equi-join on (probe_keys[i] == build_keys[i]). Output columns: all
/// probe columns, then (inner only) all build columns. Duplicate build
/// matches are emitted in build-row order.
class HashJoinNode : public BatchSource {
 public:
  HashJoinNode(std::unique_ptr<BatchSource> probe,
               std::unique_ptr<BatchSource> build,
               std::vector<size_t> probe_keys,
               std::vector<size_t> build_keys,
               JoinKind kind = JoinKind::kInner);

  /// Probe against a deferred (possibly pipeline-built) build side.
  HashJoinNode(std::unique_ptr<BatchSource> probe,
               std::shared_ptr<JoinBuildHandle> build,
               std::vector<size_t> probe_keys,
               JoinKind kind = JoinKind::kInner);

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  std::unique_ptr<BatchSource> probe_;
  std::shared_ptr<JoinBuildHandle> build_;
  std::vector<size_t> probe_keys_;
  JoinKind kind_;
  const PartitionedJoinTable* table_ = nullptr;  // resolved on first Next
  JoinProbeScratch scratch_;
  Batch in_;  // probe batch, reused across pulls
};

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_HASH_JOIN_H_
