#include "exec/hash_agg.h"

#include <algorithm>
#include <limits>

#include "exec/operator.h"

namespace pdtstore {

namespace {

constexpr size_t kInitialSlots = 1024;  // power of two

// The dictionary layout's memo pays only when code combinations repeat
// within a batch: it needs at least this many rows per possible
// combination. Near one row per combination (1000-entry dictionaries
// over 1024-row batches) the memo's per-row branch cost more than the
// per-row probes it saved.
constexpr size_t kMinRowsPerCombo = 4;

double InitAcc(AggKind kind) {
  switch (kind) {
    case AggKind::kMin:
      return std::numeric_limits<double>::infinity();
    case AggKind::kMax:
      return -std::numeric_limits<double>::infinity();
    default:
      return 0.0;
  }
}

}  // namespace

AggregationState::AggregationState(std::vector<size_t> group_by,
                                   std::vector<AggSpec> aggs)
    : group_by_(std::move(group_by)), aggs_(std::move(aggs)) {
  acc_.resize(aggs_.size());
  GrowTable(0);
}

void AggregationState::GrowTable(size_t min_groups) {
  // Power-of-two capacity keeping the table at most half full once
  // `min_groups` groups exist.
  size_t cap = std::max(kInitialSlots, slots_.size());
  while (cap < 2 * (min_groups + 1)) cap *= 2;
  if (cap == slots_.size()) return;
  slots_.assign(cap, 0);
  slot_mask_ = cap - 1;
  for (uint32_t gid = 0; gid < group_hashes_.size(); ++gid) {
    size_t pos = group_hashes_[gid] & slot_mask_;
    while (slots_[pos] != 0) pos = (pos + 1) & slot_mask_;
    slots_[pos] = gid + 1;
  }
}

size_t AggregationState::DictComboCount(const Batch& in) const {
  const size_t n = in.num_rows();
  size_t combos = 1;
  for (size_t c : group_by_) {
    const ColumnVector& col = in.column(c);
    if (!col.is_dict()) return 0;
    combos *= col.dict()->values.size();
    if (combos > n) return 0;  // also stops the product overflowing
  }
  return combos * kMinRowsPerCombo <= n ? combos : 0;
}

bool AggregationState::KeysEqual(uint32_t gid, const ColumnVector* const* src,
                                 size_t row) const {
  for (size_t c = 0; c < key_cols_.size(); ++c) {
    if (key_cols_[c].CompareAt(gid, *src[c], row) != 0) return false;
  }
  return true;
}

template <typename KeyEqual>
uint32_t AggregationState::FindOrAddGroup(uint64_t h,
                                          const ColumnVector* const* src,
                                          size_t row, KeyEqual key_equal) {
  // Safety net when the pre-sizing estimate under-predicted: keep the
  // table at most half full so probe chains stay short.
  if ((group_hashes_.size() + 1) * 2 > slots_.size()) {
    GrowTable(group_hashes_.size() + 1);
  }
  size_t pos = h & slot_mask_;
  while (true) {
    const uint32_t slot = slots_[pos];
    if (slot == 0) break;
    const uint32_t gid = slot - 1;
    if (group_hashes_[gid] == h && key_equal(gid)) return gid;
    pos = (pos + 1) & slot_mask_;
  }
  // New group: materialize its key values and init accumulators.
  const uint32_t gid = static_cast<uint32_t>(group_hashes_.size());
  slots_[pos] = gid + 1;
  group_hashes_.push_back(h);
  for (size_t c = 0; c < key_cols_.size(); ++c) {
    key_cols_[c].AppendFrom(*src[c], row);
  }
  counts_.push_back(0);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    acc_[a].push_back(InitAcc(aggs_[a].kind));
  }
  return gid;
}

void AggregationState::AssignGroups(const Batch& in, uint32_t* gids) {
  const size_t n = in.num_rows();
  key_src_.clear();
  for (size_t c : group_by_) key_src_.push_back(&in.column(c));
  const ColumnVector* const* src = key_src_.data();

  if (const size_t combos = DictComboCount(in); combos != 0) {
    // Dictionary layout: one probe per distinct code combination. The
    // memo is refilled here, so no code survives its batch.
    dict_keys_.clear();
    for (const ColumnVector* col : key_src_) {
      dict_keys_.push_back({col->codes_data(), col->dict()->hashes.data(),
                            col->dict()->values.size()});
    }
    memo_.assign(combos, 0);
    for (size_t row = 0; row < n; ++row) {
      size_t combo = 0;
      for (size_t c = dict_keys_.size(); c-- > 0;) {
        combo = combo * dict_keys_[c].size + dict_keys_[c].codes[row];
      }
      uint32_t& memo = memo_[combo];
      if (memo == 0) {
        uint64_t h = kHashSeed;
        for (const DictKey& d : dict_keys_) {
          h = CombineHash(h, d.hashes[d.codes[row]]);
        }
        memo = 1 + FindOrAddGroup(h, src, row, [&](uint32_t gid) {
                 return KeysEqual(gid, src, row);
               });
      }
      gids[row] = memo - 1;
    }
    return;
  }

  hashes_.assign(n, kHashSeed);
  for (const ColumnVector* col : key_src_) col->HashColumn(hashes_.data());

  if (key_src_.size() == 1 && key_src_[0]->type() == TypeId::kInt64) {
    // Single int64 key: verify with an inline typed compare instead of
    // CompareAt's per-call type dispatch.
    const int64_t* keys = key_src_[0]->ints_data();
    const ColumnVector& stored = key_cols_[0];
    for (size_t row = 0; row < n; ++row) {
      gids[row] = FindOrAddGroup(hashes_[row], src, row, [&](uint32_t gid) {
        return stored.ints_data()[gid] == keys[row];
      });
    }
    return;
  }

  for (size_t row = 0; row < n; ++row) {
    gids[row] = FindOrAddGroup(hashes_[row], src, row, [&](uint32_t gid) {
      return KeysEqual(gid, src, row);
    });
  }
}

void AggregationState::Accumulate(const Batch& in, const uint32_t* gids) {
  const size_t n = in.num_rows();
  // Row-major pass: the count and every SUM/AVG accumulator of a row
  // update together, so their store-to-load chains overlap instead of
  // running one aggregate after another. Each accumulator still adds
  // its rows in input order (bit-identical sums).
  double_lanes_.clear();
  int_lanes_.clear();
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].kind != AggKind::kSum && aggs_[a].kind != AggKind::kAvg) {
      continue;
    }
    const ColumnVector& col = in.column(aggs_[a].input_idx);
    if (col.type() == TypeId::kInt64) {
      int_lanes_.push_back({acc_[a].data(), col.ints_data()});
    } else {
      double_lanes_.push_back({acc_[a].data(), col.doubles_data()});
    }
  }
  int64_t* counts = counts_.data();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t g = gids[i];
    ++counts[g];
    for (const DoubleLane& l : double_lanes_) l.acc[g] += l.in[i];
    for (const IntLane& l : int_lanes_) {
      l.acc[g] += static_cast<double>(l.in[i]);
    }
  }

  // MIN/MAX: one typed pass per aggregate (type and kind dispatched per
  // batch, not per row).
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const AggKind kind = aggs_[a].kind;
    if (kind != AggKind::kMin && kind != AggKind::kMax) continue;
    double* acc = acc_[a].data();
    const ColumnVector& col = in.column(aggs_[a].input_idx);
    auto update = [&](auto value_at) {
      if (kind == AggKind::kMin) {
        for (size_t i = 0; i < n; ++i) {
          double v = value_at(i);
          if (v < acc[gids[i]]) acc[gids[i]] = v;
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          double v = value_at(i);
          if (v > acc[gids[i]]) acc[gids[i]] = v;
        }
      }
    };
    if (col.type() == TypeId::kInt64) {
      const int64_t* v = col.ints_data();
      update([v](size_t i) { return static_cast<double>(v[i]); });
    } else {
      const double* v = col.doubles_data();
      update([v](size_t i) { return v[i]; });
    }
  }
}

Status AggregationState::Absorb(const Batch& in) {
  if (!key_cols_init_) {
    for (size_t c : group_by_) {
      key_cols_.emplace_back(in.column(c).type());
    }
    key_cols_init_ = true;
  }
  const size_t n = in.num_rows();
  gids_.resize(n);

  // Pre-size from the carried estimate (see header) with 25% headroom,
  // capped at the worst case of n all-new groups, so doubling/rehash
  // churn moves out of the per-row path on high-cardinality inputs.
  size_t est_new =
      prev_batch_new_groups_ == static_cast<size_t>(-1)
          ? n
          : prev_batch_new_groups_ + prev_batch_new_groups_ / 4 + 8;
  est_new = std::min(est_new, n);
  const size_t groups_before = group_hashes_.size();
  GrowTable(groups_before + est_new);
  group_hashes_.reserve(groups_before + est_new);
  counts_.reserve(groups_before + est_new);
  for (auto& a : acc_) a.reserve(groups_before + est_new);

  AssignGroups(in, gids_.data());
  prev_batch_new_groups_ = group_hashes_.size() - groups_before;
  Accumulate(in, gids_.data());
  return Status::OK();
}

Status AggregationState::ChargeGrowth(BudgetLease* lease) {
  const size_t groups = group_hashes_.size();
  if (groups <= charged_groups_) return Status::OK();
  const size_t bytes_per_group = 48 + 16 * aggs_.size();
  PDT_RETURN_NOT_OK(
      lease->Charge((groups - charged_groups_) * bytes_per_group));
  charged_groups_ = groups;
  return Status::OK();
}

Status AggregationState::MergeFrom(const AggregationState& other) {
  const size_t other_groups = other.group_hashes_.size();
  if (other_groups == 0) return Status::OK();
  if (!key_cols_init_) {
    for (size_t c = 0; c < group_by_.size(); ++c) {
      key_cols_.emplace_back(other.key_cols_[c].type());
    }
    key_cols_init_ = true;
  }
  GrowTable(group_hashes_.size() + other_groups);
  group_hashes_.reserve(group_hashes_.size() + other_groups);
  counts_.reserve(counts_.size() + other_groups);
  for (auto& a : acc_) a.reserve(a.size() + other_groups);

  key_src_.clear();
  for (const ColumnVector& col : other.key_cols_) key_src_.push_back(&col);
  const ColumnVector* const* src = key_src_.data();
  for (uint32_t g = 0; g < other_groups; ++g) {
    const uint32_t gid =
        FindOrAddGroup(other.group_hashes_[g], src, g, [&](uint32_t cand) {
          return KeysEqual(cand, src, g);
        });
    counts_[gid] += other.counts_[g];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      switch (aggs_[a].kind) {
        case AggKind::kSum:
        case AggKind::kAvg:
          acc_[a][gid] += other.acc_[a][g];
          break;
        case AggKind::kMin:
          acc_[a][gid] = std::min(acc_[a][gid], other.acc_[a][g]);
          break;
        case AggKind::kMax:
          acc_[a][gid] = std::max(acc_[a][gid], other.acc_[a][g]);
          break;
        case AggKind::kCount:
          break;
      }
    }
  }
  return Status::OK();
}

Batch AggregationState::TakeResult() {
  // Assemble the result batch: key columns (already in first-appearance
  // order) then aggregates.
  const size_t num_groups = group_hashes_.size();
  Batch result;
  std::vector<ColumnId> ids;
  for (size_t c = 0; c < group_by_.size(); ++c) {
    ids.push_back(static_cast<ColumnId>(c));
    result.columns().push_back(key_cols_init_ ? std::move(key_cols_[c])
                                              : ColumnVector());
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    ids.push_back(static_cast<ColumnId>(group_by_.size() + a));
    ColumnVector col(aggs_[a].kind == AggKind::kCount ? TypeId::kInt64
                                                      : TypeId::kDouble);
    switch (aggs_[a].kind) {
      case AggKind::kCount:
        col.ints().assign(counts_.begin(), counts_.end());
        break;
      case AggKind::kAvg:
        col.doubles().resize(num_groups);
        for (size_t g = 0; g < num_groups; ++g) {
          col.doubles()[g] =
              counts_[g] > 0
                  ? acc_[a][g] / static_cast<double>(counts_[g])
                  : 0.0;
        }
        break;
      default:
        col.doubles() = std::move(acc_[a]);
        break;
    }
    // Global aggregation with zero input rows: emit a single all-zero row.
    if (num_groups == 0 && group_by_.empty()) {
      if (aggs_[a].kind == AggKind::kCount) {
        col.ints().push_back(0);
      } else {
        col.doubles().push_back(0.0);
      }
    }
    result.columns().push_back(std::move(col));
  }
  result.set_column_ids(std::move(ids));
  // Release aggregation state.
  key_cols_.clear();
  key_cols_init_ = false;
  group_hashes_.clear();
  slots_.clear();
  counts_.clear();
  acc_.clear();
  charged_groups_ = 0;
  return result;
}

Status HashAggNode::BuildResult() {
  // A fresh state (and charge) per build so a retried Next() after an
  // input or budget error restarts cleanly instead of aggregating into
  // stale groups.
  AggregationState state(group_by_, aggs_);
  lease_.ReleaseAll();
  Batch in;
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, input_->Next(&in, kDefaultBatchSize));
    if (!more) break;
    PDT_RETURN_NOT_OK(state.Absorb(in));
    PDT_RETURN_NOT_OK(state.ChargeGrowth(&lease_));
  }
  emitter_ = std::make_unique<VectorSource>(state.TakeResult());
  built_ = true;
  return Status::OK();
}

StatusOr<bool> HashAggNode::Next(Batch* out, size_t max_rows) {
  if (!built_) {
    PDT_RETURN_NOT_OK(BuildResult());
  }
  return emitter_->Next(out, max_rows);
}

}  // namespace pdtstore
