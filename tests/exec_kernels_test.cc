// Property tests for the selection-vector kernels (AppendGather /
// AppendFiltered / HashColumn / SetFrom / AppendRun) against naive
// GetValue-based references, plus equivalence tests asserting that the
// kernelized FilterNode / HashJoinNode / HashAggNode produce row-for-row
// the same results as straightforward row-at-a-time reference
// implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "columnstore/batch.h"
#include "columnstore/sel_vector.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "util/random.h"

namespace pdtstore {
namespace {

const TypeId kAllTypes[] = {TypeId::kInt64, TypeId::kDouble,
                            TypeId::kString};

ColumnVector RandomColumn(TypeId type, size_t n, Random* rng) {
  ColumnVector col(type);
  for (size_t i = 0; i < n; ++i) {
    // Small cardinality so hash tests see duplicates.
    int64_t v = static_cast<int64_t>(rng->Uniform(16));
    switch (type) {
      case TypeId::kInt64:
        col.Append(Value(v));
        break;
      case TypeId::kDouble:
        col.Append(Value(static_cast<double>(v) * 1.5));
        break;
      case TypeId::kString:
        col.Append(Value("s" + std::to_string(v)));
        break;
    }
  }
  return col;
}

void ExpectColumnsEqual(const ColumnVector& a, const ColumnVector& b) {
  ASSERT_EQ(a.type(), b.type());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.GetValue(i), b.GetValue(i)) << "at index " << i;
  }
}

TEST(KernelTest, AppendGatherMatchesNaive) {
  Random rng(1);
  for (TypeId type : kAllTypes) {
    ColumnVector src = RandomColumn(type, 100, &rng);
    for (size_t sel_size : {size_t{0}, size_t{1}, size_t{37}, size_t{100}}) {
      SelVector sel;
      for (size_t i = 0; i < sel_size; ++i) {
        sel.push_back(static_cast<uint32_t>(rng.Uniform(src.size())));
      }
      ColumnVector fast(type);
      fast.Append(src.GetValue(0));  // non-empty destination: appends
      fast.AppendGather(src, sel);
      ColumnVector ref(type);
      ref.Append(src.GetValue(0));
      for (size_t i = 0; i < sel.size(); ++i) ref.AppendFrom(src, sel[i]);
      ExpectColumnsEqual(fast, ref);
    }
  }
}

TEST(KernelTest, AppendFilteredMatchesNaive) {
  Random rng(2);
  for (TypeId type : kAllTypes) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{129}}) {
      ColumnVector src = RandomColumn(type, n, &rng);
      // Random, none-kept and all-kept bitmaps.
      std::vector<std::vector<uint8_t>> keeps;
      keeps.emplace_back(n, 0);
      keeps.emplace_back(n, 1);
      std::vector<uint8_t> random_keep(n);
      for (size_t i = 0; i < n; ++i) random_keep[i] = rng.Uniform(2);
      keeps.push_back(std::move(random_keep));
      for (const auto& keep : keeps) {
        ColumnVector fast(type);
        fast.AppendFiltered(src, keep.data(), n);
        ColumnVector ref(type);
        for (size_t i = 0; i < n; ++i) {
          if (keep[i]) ref.AppendFrom(src, i);
        }
        ExpectColumnsEqual(fast, ref);
      }
    }
  }
}

TEST(KernelTest, HashColumnBulkMatchesPerRowAndRespectsEquality) {
  Random rng(3);
  for (TypeId type : kAllTypes) {
    ColumnVector col = RandomColumn(type, 200, &rng);
    std::vector<uint64_t> bulk(col.size(), kHashSeed);
    col.HashColumn(bulk.data());
    for (size_t i = 0; i < col.size(); ++i) {
      // Hashing a single-row column must agree with the bulk pass.
      ColumnVector one(type);
      one.AppendFrom(col, i);
      uint64_t h = kHashSeed;
      one.HashColumn(&h);
      EXPECT_EQ(h, bulk[i]) << "row " << i;
    }
    // Equal values hash equal; hashes are well-distributed enough that
    // 16 distinct values never all collide.
    std::map<std::string, uint64_t> by_value;
    size_t distinct_hashes = 0;
    std::vector<uint64_t> seen;
    for (size_t i = 0; i < col.size(); ++i) {
      std::string key = col.GetValue(i).ToString();
      auto [it, inserted] = by_value.try_emplace(key, bulk[i]);
      if (inserted) {
        if (std::find(seen.begin(), seen.end(), bulk[i]) == seen.end()) {
          seen.push_back(bulk[i]);
          ++distinct_hashes;
        }
      } else {
        EXPECT_EQ(it->second, bulk[i]) << "value " << key;
      }
    }
    EXPECT_GT(distinct_hashes, by_value.size() / 2);
  }
}

TEST(KernelTest, HashColumnEmptyAndMultiColumnCombine) {
  ColumnVector empty(TypeId::kInt64);
  empty.HashColumn(nullptr);  // zero rows: must not touch the output

  // Combining across columns distinguishes (a,b) from (b,a).
  ColumnVector a(TypeId::kInt64), b(TypeId::kInt64);
  a.Append(Value(1));
  b.Append(Value(2));
  uint64_t ab = kHashSeed, ba = kHashSeed;
  a.HashColumn(&ab);
  b.HashColumn(&ab);
  b.HashColumn(&ba);
  a.HashColumn(&ba);
  EXPECT_NE(ab, ba);
}

TEST(KernelTest, SetFromMatchesSetValue) {
  Random rng(4);
  for (TypeId type : kAllTypes) {
    ColumnVector src = RandomColumn(type, 20, &rng);
    ColumnVector a = RandomColumn(type, 20, &rng);
    ColumnVector b(type);
    b.AppendRange(a, 0, a.size());
    for (int trial = 0; trial < 50; ++trial) {
      size_t i = rng.Uniform(20), j = rng.Uniform(20);
      a.SetFrom(i, src, j);
      b.SetValue(i, src.GetValue(j));
    }
    ExpectColumnsEqual(a, b);
  }
}

TEST(KernelTest, AppendRunMatchesRepeatedAppend) {
  for (TypeId type : kAllTypes) {
    Value v = type == TypeId::kInt64
                  ? Value(42)
                  : (type == TypeId::kDouble ? Value(4.2) : Value("run"));
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}}) {
      ColumnVector fast(type);
      fast.Append(v);
      fast.AppendRun(v, count);
      ColumnVector ref(type);
      ref.Append(v);
      for (size_t i = 0; i < count; ++i) ref.Append(v);
      ExpectColumnsEqual(fast, ref);
    }
  }
}

// ---------------------------------------------------------------------
// Operator equivalence against row-at-a-time references.
// ---------------------------------------------------------------------

Batch RandomBatch(size_t rows, Random* rng) {
  Batch b;
  std::vector<ColumnId> ids;
  TypeId layout[] = {TypeId::kInt64, TypeId::kDouble, TypeId::kString,
                     TypeId::kInt64};
  for (TypeId t : layout) {
    ids.push_back(static_cast<ColumnId>(b.columns().size()));
    b.columns().push_back(RandomColumn(t, rows, rng));
  }
  b.set_column_ids(std::move(ids));
  return b;
}

std::vector<Tuple> BatchRows(const Batch& b) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < b.num_rows(); ++i) rows.push_back(b.RowAsTuple(i));
  return rows;
}

std::vector<Tuple> Drain(BatchSource* src, size_t batch = 7) {
  auto rows = CollectRows(src, batch);
  EXPECT_TRUE(rows.ok());
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

// Yields its batches one per pull, each cut to at most `slice` rows —
// the batch boundaries an aggregation sees are the test's choice.
class SlicedSource : public BatchSource {
 public:
  SlicedSource(std::vector<Batch> batches, size_t slice)
      : batches_(std::move(batches)), slice_(slice) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override {
    while (batch_ < batches_.size() && row_ >= batches_[batch_].num_rows()) {
      ++batch_;
      row_ = 0;
    }
    if (batch_ >= batches_.size()) return false;
    const Batch& b = batches_[batch_];
    const size_t end =
        std::min({b.num_rows(), row_ + slice_, row_ + max_rows});
    out->ResetLike(b);
    for (size_t c = 0; c < b.num_columns(); ++c) {
      out->column(c).AppendRange(b.column(c), row_, end);
    }
    row_ = end;
    return true;
  }

 private:
  std::vector<Batch> batches_;
  size_t slice_;
  size_t batch_ = 0;
  size_t row_ = 0;
};

void ExpectRowsEqual(const std::vector<Tuple>& got,
                     const std::vector<Tuple>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "row " << i;
    for (size_t c = 0; c < got[i].size(); ++c) {
      EXPECT_EQ(got[i][c], want[i][c]) << "row " << i << " col " << c;
    }
  }
}

TEST(OperatorEquivalenceTest, FilterMatchesRowAtATime) {
  Random rng(5);
  for (size_t rows : {size_t{0}, size_t{1}, size_t{200}}) {
    Batch input = RandomBatch(rows, &rng);
    auto predicate = Int64Between(0, 4, 11);

    FilterNode node(std::make_unique<VectorSource>(input), predicate);
    auto got = Drain(&node);

    KeepBitmap keep;
    keep.Reset(rows);
    if (rows > 0) predicate(input, &keep);
    std::vector<Tuple> want;
    for (size_t i = 0; i < rows; ++i) {
      if (keep.Test(i)) want.push_back(input.RowAsTuple(i));
    }
    ExpectRowsEqual(got, want);
  }
}

TEST(OperatorEquivalenceTest, HashJoinMatchesNestedLoop) {
  Random rng(6);
  Batch probe = RandomBatch(120, &rng);
  // Keys (int64 col 0, string col 2) exercise multi-column verify; the
  // lone int64 col 3 (16 values) gives chains of many duplicates.
  const std::vector<std::vector<size_t>> key_sets = {{0, 2}, {3}};
  // 5000 build rows outgrow the table's minimum slot count.
  for (size_t build_rows : {size_t{0}, size_t{1}, size_t{40}, size_t{5000}}) {
    Batch build = RandomBatch(build_rows, &rng);
    for (const std::vector<size_t>& keys : key_sets) {
      SCOPED_TRACE("build_rows=" + std::to_string(build_rows) +
                   " keys=" + std::to_string(keys.size()));
      auto run = [&](JoinKind kind) {
        HashJoinNode node(std::make_unique<VectorSource>(probe),
                          std::make_unique<VectorSource>(build), keys, keys,
                          kind);
        return Drain(&node);
      };
      auto match = [&](size_t p, size_t b) {
        for (size_t k : keys) {
          if (probe.column(k).CompareAt(p, build.column(k), b) != 0)
            return false;
        }
        return true;
      };

      // Nested loop in (probe row, build row) order: the exact order
      // the join must emit.
      std::vector<Tuple> inner, semi, anti;
      for (size_t p = 0; p < probe.num_rows(); ++p) {
        bool any = false;
        for (size_t b = 0; b < build.num_rows(); ++b) {
          if (!match(p, b)) continue;
          any = true;
          Tuple t = probe.RowAsTuple(p);
          Tuple bt = build.RowAsTuple(b);
          t.insert(t.end(), bt.begin(), bt.end());
          inner.push_back(std::move(t));
        }
        (any ? semi : anti).push_back(probe.RowAsTuple(p));
      }
      if (build_rows >= 40) {
        ASSERT_FALSE(inner.empty());  // keys overlap by construction
      }
      ExpectRowsEqual(run(JoinKind::kInner), inner);
      ExpectRowsEqual(run(JoinKind::kLeftSemi), semi);
      ExpectRowsEqual(run(JoinKind::kLeftAnti), anti);
    }
  }
}

// Distinct keys forced onto one full 64-bit hash: every probe walks the
// same chain and the typed key check alone must separate the rows.
TEST(OperatorEquivalenceTest, JoinTableVerifiesKeysBehindEqualHashes) {
  auto int_column = [](std::initializer_list<int64_t> vals) {
    ColumnVector col(TypeId::kInt64);
    for (int64_t v : vals) col.Append(Value(v));
    return col;
  };
  auto make_batch = [](std::vector<ColumnVector> cols) {
    Batch b;
    std::vector<ColumnId> ids;
    for (ColumnVector& col : cols) {
      ids.push_back(static_cast<ColumnId>(b.columns().size()));
      b.columns().push_back(std::move(col));
    }
    b.set_column_ids(std::move(ids));
    return b;
  };
  // Build: (key, build row id).
  Batch build = make_batch({int_column({5, 7, 5, 9, 7, 5}),
                            int_column({0, 1, 2, 3, 4, 5})});
  Batch probe = make_batch({int_column({5, 7, 11, 5, 9})});
  const std::vector<size_t> keys = {0};

  // Every build row gets the hash the probe computes for key 5.
  uint64_t h5 = kHashSeed;
  int_column({5}).HashColumn(&h5);
  PartitionedJoinTable table;
  table.parts.push_back(JoinTable::BuildWithHashes(
      build, keys, std::vector<uint64_t>(build.num_rows(), h5)));

  // Hand the same hash to every probe row too: only equal keys match,
  // duplicates in build order.
  const JoinTable& part = table.parts[0];
  SelVector probe_sel, build_sel;
  for (uint32_t row = 0; row < probe.num_rows(); ++row) {
    part.AppendMatches(keys, probe, row, h5, &probe_sel, &build_sel);
    const bool any = row != 2;  // key 11 is not on the build side
    EXPECT_EQ(part.HasMatch(keys, probe, row, h5), any) << "row " << row;
  }
  const std::vector<uint32_t> want_probe = {0, 0, 0, 1, 1, 3, 3, 3, 4};
  const std::vector<uint32_t> want_build = {0, 2, 5, 1, 4, 0, 2, 5, 3};
  EXPECT_EQ(probe_sel.indices(), want_probe);
  EXPECT_EQ(build_sel.indices(), want_build);

  // Through ProbeJoinBatch the probe hashes its own keys, so only the
  // key-5 rows land on the chain. Semi/anti emit each probe row once.
  auto probe_rows = [&](JoinKind kind) {
    JoinProbeScratch scratch;
    Batch out;
    ProbeJoinBatch(table, keys, kind, probe, &out, &scratch);
    return BatchRows(out);
  };
  auto row = [](int64_t p) { return Tuple{Value(p)}; };
  auto joined = [](int64_t build_row) {
    return Tuple{Value(int64_t{5}), Value(int64_t{5}), Value(build_row)};
  };
  ExpectRowsEqual(probe_rows(JoinKind::kInner),
                  {joined(0), joined(2), joined(5), joined(0), joined(2),
                   joined(5)});
  ExpectRowsEqual(probe_rows(JoinKind::kLeftSemi), {row(5), row(5)});
  ExpectRowsEqual(probe_rows(JoinKind::kLeftAnti),
                  {row(7), row(11), row(9)});
}

TEST(OperatorEquivalenceTest, HashAggMatchesRowAtATime) {
  Random rng(7);
  for (size_t rows : {size_t{0}, size_t{1}, size_t{500}, size_t{2500}}) {
    Batch input = RandomBatch(rows, &rng);
    // Group by (string col 2, int64 col 3); aggregate over cols 0 and 1.
    std::vector<size_t> group_by = {2, 3};
    std::vector<AggSpec> aggs = {{AggKind::kSum, 1},
                                 {AggKind::kCount, 0},
                                 {AggKind::kMin, 0},
                                 {AggKind::kMax, 1},
                                 {AggKind::kAvg, 0}};

    // Reference: first-appearance-ordered groups over row tuples.
    struct Ref {
      Tuple key;
      double sum1 = 0, min0 = 1e300, max1 = -1e300, sum0 = 0;
      int64_t count = 0;
    };
    std::vector<Ref> refs;
    auto numeric = [&](size_t col, size_t row) {
      const ColumnVector& c = input.column(col);
      return c.type() == TypeId::kInt64
                 ? static_cast<double>(c.ints()[row])
                 : c.doubles()[row];
    };
    for (size_t i = 0; i < rows; ++i) {
      Tuple key = {input.column(2).GetValue(i), input.column(3).GetValue(i)};
      Ref* r = nullptr;
      for (auto& cand : refs) {
        if (CompareTuples(cand.key, key) == 0) {
          r = &cand;
          break;
        }
      }
      if (!r) {
        refs.emplace_back();
        r = &refs.back();
        r->key = key;
      }
      ++r->count;
      r->sum1 += numeric(1, i);
      r->sum0 += numeric(0, i);
      r->min0 = std::min(r->min0, numeric(0, i));
      r->max1 = std::max(r->max1, numeric(1, i));
    }
    std::vector<Tuple> want;
    for (const Ref& r : refs) {
      Tuple t = r.key;
      t.emplace_back(r.sum1);
      t.emplace_back(r.count);
      t.emplace_back(r.min0);
      t.emplace_back(r.max1);
      t.emplace_back(r.sum0 / static_cast<double>(r.count));
      want.push_back(std::move(t));
    }
    // The input in one batch, then cut into batches of 1, 7 and 1024
    // rows: the multi-batch path and the table pre-sizing carried from
    // one batch to the next must not change the result.
    for (size_t slice : {rows + 1, size_t{1}, size_t{7}, size_t{1024}}) {
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " slice=" + std::to_string(slice));
      HashAggNode node(std::make_unique<SlicedSource>(
                           std::vector<Batch>{input}, slice),
                       group_by, aggs);
      ExpectRowsEqual(Drain(&node), want);
    }
  }
}

// Groups in first-appearance order with per-group count and SUM / AVG /
// MIN over the value column, accumulated row at a time in input order.
struct AggRef {
  Tuple key;
  int64_t count = 0;
  double sum = 0, min = 1e300;
};

std::vector<AggRef> RowAtATimeAgg(const std::vector<Batch>& batches,
                                  const std::vector<size_t>& group_by,
                                  size_t value_col) {
  std::vector<AggRef> refs;
  for (const Batch& b : batches) {
    for (size_t i = 0; i < b.num_rows(); ++i) {
      Tuple key;
      for (size_t c : group_by) key.push_back(b.column(c).GetValue(i));
      auto it = std::find_if(refs.begin(), refs.end(), [&](const AggRef& r) {
        return CompareTuples(r.key, key) == 0;
      });
      if (it == refs.end()) {
        refs.emplace_back();
        refs.back().key = key;
        it = refs.end() - 1;
      }
      const double v = b.column(value_col).doubles_data()[i];
      ++it->count;
      it->sum += v;
      it->min = std::min(it->min, v);
    }
  }
  return refs;
}

// Aggregates `batches` (one Absorb per batch) and checks every group,
// in order, against the row-at-a-time reference. Sums and averages must
// be bit-identical: each accumulator adds its rows in input order.
void ExpectAggMatchesReference(const std::vector<Batch>& batches,
                               const std::vector<size_t>& group_by,
                               size_t value_col) {
  const std::vector<AggSpec> aggs = {{AggKind::kSum, value_col},
                                     {AggKind::kCount, 0},
                                     {AggKind::kAvg, value_col},
                                     {AggKind::kMin, value_col}};
  HashAggNode node(std::make_unique<SlicedSource>(batches, kDefaultBatchSize),
                   group_by, aggs);
  auto got = MaterializeAll(&node);
  ASSERT_TRUE(got.ok());
  const std::vector<AggRef> want = RowAtATimeAgg(batches, group_by, value_col);
  ASSERT_EQ(got->num_rows(), want.size());
  const size_t k = group_by.size();
  for (size_t g = 0; g < want.size(); ++g) {
    for (size_t c = 0; c < k; ++c) {
      EXPECT_EQ(got->column(c).GetValue(g), want[g].key[c]) << "group " << g;
    }
    EXPECT_EQ(got->column(k).doubles_data()[g], want[g].sum) << "group " << g;
    EXPECT_EQ(got->column(k + 1).ints_data()[g], want[g].count)
        << "group " << g;
    EXPECT_EQ(got->column(k + 2).doubles_data()[g],
              want[g].sum / static_cast<double>(want[g].count))
        << "group " << g;
    EXPECT_EQ(got->column(k + 3).doubles_data()[g], want[g].min)
        << "group " << g;
  }
}

// Values whose sums round differently under any other addition order.
double OrderSensitiveValue(size_t i) {
  static const double kValues[] = {0.1, 1e16, -1e16, 3.3, 1e-3, 7.25, -2.2};
  return kValues[i % 7] * static_cast<double>(1 + i % 5);
}

// Every chunk decodes its strings under its own StringDict, so group
// keys reach the aggregation as codes that mean something different in
// each batch. The per-batch code memo must never carry a code's group
// into the next batch.
TEST(OperatorEquivalenceTest, HashAggDictionaryKeysAcrossBatches) {
  auto dict = [](std::vector<std::string> values) {
    auto d = std::make_shared<StringDict>();
    for (const std::string& v : values) {
      d->hashes.push_back(HashBytes(v.data(), v.size()));
    }
    d->values = std::move(values);
    return std::shared_ptr<const StringDict>(std::move(d));
  };
  auto dict_column = [](std::shared_ptr<const StringDict> d,
                        std::vector<uint32_t> codes) {
    ColumnVector col(TypeId::kString);
    col.AdoptDict(std::move(d));
    col.codes() = std::move(codes);
    return col;
  };
  size_t next_value = 0;
  auto make_batch = [&](ColumnVector k0, ColumnVector k1) {
    Batch b;
    ColumnVector v(TypeId::kDouble);
    for (size_t i = 0; i < k0.size(); ++i) {
      v.Append(Value(OrderSensitiveValue(next_value++)));
    }
    b.columns().push_back(std::move(k0));
    b.columns().push_back(std::move(k1));
    b.columns().push_back(std::move(v));
    b.set_column_ids({0, 1, 2});
    return b;
  };

  Random rng(11);
  auto codes = [&](size_t rows, size_t dict_size) {
    std::vector<uint32_t> out(rows);
    for (uint32_t& c : out) {
      c = static_cast<uint32_t>(rng.Uniform(dict_size));
    }
    return out;
  };

  std::vector<Batch> batches;
  // Batch 1: 3 x 2 codes over 30 rows, so combinations repeat and the
  // memo applies.
  batches.push_back(
      make_batch(dict_column(dict({"a", "b", "c"}), codes(30, 3)),
                 dict_column(dict({"x", "y"}), codes(30, 2))));
  // Batch 2: the same codes now name other strings ("c" under code 0),
  // and "d" exists in this dictionary only ("b" is missing).
  batches.push_back(
      make_batch(dict_column(dict({"c", "a", "d"}), codes(30, 3)),
                 dict_column(dict({"y", "x"}), codes(30, 2))));
  // Batch 3: a dictionary larger than its batch, so the memo is skipped
  // and the rows probe one by one.
  std::vector<std::string> wide;
  for (int i = 0; i < 40; ++i) wide.push_back("w" + std::to_string(i));
  wide[7] = "a";
  wide[30] = "d";
  batches.push_back(make_batch(dict_column(dict(wide), {7, 30, 12, 7, 12}),
                               dict_column(dict({"x", "y", "z"}),
                                           {0, 1, 2, 0, 2})));
  // Batch 4: plain strings.
  ColumnVector p0(TypeId::kString), p1(TypeId::kString);
  for (const char* s : {"b", "d", "w12", "a", "e", "c"}) p0.Append(Value(s));
  for (const char* s : {"y", "y", "z", "x", "x", "x"}) p1.Append(Value(s));
  batches.push_back(make_batch(std::move(p0), std::move(p1)));
  // Batch 5: batch 1's strings under reversed codes.
  batches.push_back(
      make_batch(dict_column(dict({"c", "b", "a"}), codes(24, 3)),
                 dict_column(dict({"y", "x"}), codes(24, 2))));

  ExpectAggMatchesReference(batches, {0, 1}, 2);
  ExpectAggMatchesReference(batches, {1}, 2);
  // Global aggregation: every row lands in the one group.
  ExpectAggMatchesReference(batches, {}, 2);
}

// A single int64 key (the inline-verify layout): repeated runs,
// interleaved keys and runs that continue across a batch boundary.
TEST(OperatorEquivalenceTest, HashAggInt64KeyRepeatsAndInterleaves) {
  size_t next_value = 0;
  auto make_batch = [&](std::initializer_list<int64_t> keys) {
    Batch b;
    ColumnVector k(TypeId::kInt64), v(TypeId::kDouble);
    for (int64_t key : keys) {
      k.Append(Value(key));
      v.Append(Value(OrderSensitiveValue(next_value++)));
    }
    b.columns().push_back(std::move(k));
    b.columns().push_back(std::move(v));
    b.set_column_ids({0, 1});
    return b;
  };
  std::vector<Batch> batches;
  batches.push_back(make_batch({5, 5, 5, 7, 7, 5, 9, 9, 9, 5, -3, 7}));
  batches.push_back(make_batch({7, 7, 11, 5, 11, 11, -3}));
  batches.push_back(make_batch({-3}));
  // Many distinct keys, interleaved, past the table's initial slots.
  Batch wide;
  wide.columns().emplace_back(TypeId::kInt64);
  wide.columns().emplace_back(TypeId::kDouble);
  wide.set_column_ids({0, 1});
  for (int64_t i = 0; i < 3000; ++i) {
    wide.column(0).Append(Value((i * 7919) % 1500));
    wide.column(1).Append(Value(OrderSensitiveValue(next_value++)));
  }
  batches.push_back(std::move(wide));
  ExpectAggMatchesReference(batches, {0}, 1);
}

TEST(OperatorEquivalenceTest, BatchGatherAndFilterHelpers) {
  Random rng(8);
  Batch input = RandomBatch(60, &rng);
  std::vector<uint8_t> keep(60);
  KeepBitmap bitmap;
  bitmap.Reset(60);
  for (size_t i = 0; i < keep.size(); ++i) {
    keep[i] = static_cast<uint8_t>(rng.Uniform(2));
    bitmap.SetTo(i, keep[i] != 0);
  }

  // The byte-keep reference path and the bitmap path must agree.
  Batch filtered;
  filtered.set_column_ids(input.column_ids());
  for (size_t c = 0; c < input.num_columns(); ++c) {
    filtered.columns().emplace_back(input.column(c).type());
  }
  filtered.AppendFiltered(input, keep.data());

  Batch bit_filtered;
  bit_filtered.set_column_ids(input.column_ids());
  for (size_t c = 0; c < input.num_columns(); ++c) {
    bit_filtered.columns().emplace_back(input.column(c).type());
  }
  bit_filtered.AppendFiltered(input, bitmap);

  Batch gathered;
  gathered.set_column_ids(input.column_ids());
  for (size_t c = 0; c < input.num_columns(); ++c) {
    gathered.columns().emplace_back(input.column(c).type());
  }
  gathered.AppendGather(input, SelVector::FromKeep(bitmap));

  std::vector<Tuple> want;
  for (size_t i = 0; i < 60; ++i) {
    if (keep[i]) want.push_back(input.RowAsTuple(i));
  }
  ExpectRowsEqual(BatchRows(filtered), want);
  ExpectRowsEqual(BatchRows(bit_filtered), want);
  ExpectRowsEqual(BatchRows(gathered), want);
}

}  // namespace
}  // namespace pdtstore
