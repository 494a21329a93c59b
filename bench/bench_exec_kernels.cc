// Microbenchmarks for the selection-vector execution kernels: filter
// survivor compaction, selection gather, and hash aggregation, each
// measured against the row-at-a-time baseline the engine used before the
// typed-kernel refactor (per-value TypeId dispatch via Batch::AppendRow,
// string-encoded group keys via std::unordered_map). Emits
// BENCH_exec.json for machine consumption.
//
// Usage: bench_exec_kernels [--rows=1000000] [--reps=5]
//                           [--json=BENCH_exec.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "columnstore/batch.h"
#include "columnstore/keep_bitmap.h"
#include "columnstore/sel_vector.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/operator.h"

namespace pdtstore {
namespace bench {
namespace {

Batch MakeWideBatch(size_t rows, uint64_t seed) {
  // 3 int64 + 3 double payload columns: the "int64/double columns"
  // compaction workload.
  Random rng(seed);
  Batch b;
  std::vector<ColumnId> ids;
  for (int c = 0; c < 3; ++c) {
    ColumnVector col(TypeId::kInt64);
    col.ints().resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      col.ints()[i] = static_cast<int64_t>(rng.Next() & 0xffffff);
    }
    ids.push_back(static_cast<ColumnId>(b.columns().size()));
    b.columns().push_back(std::move(col));
  }
  for (int c = 0; c < 3; ++c) {
    ColumnVector col(TypeId::kDouble);
    col.doubles().resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      col.doubles()[i] = rng.NextDouble() * 1000.0;
    }
    ids.push_back(static_cast<ColumnId>(b.columns().size()));
    b.columns().push_back(std::move(col));
  }
  b.set_column_ids(std::move(ids));
  return b;
}

Batch EmptyLike(const Batch& in) {
  Batch out;
  out.set_column_ids(in.column_ids());
  for (size_t c = 0; c < in.num_columns(); ++c) {
    out.columns().emplace_back(in.column(c).type());
  }
  return out;
}

double BestOf(int reps, double (*fn)(const void*), const void* arg) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) best = std::min(best, fn(arg));
  return best;
}

// All `reps` timings of fn, sorted ascending.
std::vector<double> SortedTimes(int reps, double (*fn)(const void*),
                                const void* arg) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) ms.push_back(fn(arg));
  std::sort(ms.begin(), ms.end());
  return ms;
}

// Nearest-rank quantile of sorted timings.
double Quantile(const std::vector<double>& sorted, double q) {
  return sorted[static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) +
                                    0.5)];
}

// ------------------------------------------------------------------
// Filter survivor compaction, batch-at-a-time as FilterNode runs it:
// each input batch is compacted through its keep bitmap into a reused
// output batch. Baseline = the pre-refactor inner loop (AppendRow per
// surviving row); kernel = selection-vector AppendFiltered.
// ------------------------------------------------------------------

struct FilterArgs {
  const std::vector<Batch>* slices;
  const std::vector<std::vector<uint8_t>>* keeps;
};

double FilterBaselineMs(const void* p) {
  const auto* a = static_cast<const FilterArgs*>(p);
  Stopwatch sw;
  size_t total = 0;
  for (size_t s = 0; s < a->slices->size(); ++s) {
    const Batch& in = (*a->slices)[s];
    const auto& keep = (*a->keeps)[s];
    // Faithful pre-refactor FilterNode::Next: fresh output batch per
    // input batch, then AppendRow (per-value type dispatch) per survivor.
    Batch out = EmptyLike(in);
    for (size_t i = 0; i < in.num_rows(); ++i) {
      if (keep[i]) out.AppendRow(in, i);
    }
    total += out.num_rows();
  }
  double ms = sw.ElapsedMillis();
  if (total == 0) std::abort();
  return ms;
}

double FilterKernelMs(const void* p) {
  const auto* a = static_cast<const FilterArgs*>(p);
  Stopwatch sw;
  Batch out;
  size_t total = 0;
  for (size_t s = 0; s < a->slices->size(); ++s) {
    const Batch& in = (*a->slices)[s];
    out.ResetLike(in);
    out.AppendFiltered(in, (*a->keeps)[s].data());
    total += out.num_rows();
  }
  double ms = sw.ElapsedMillis();
  if (total == 0) std::abort();
  return ms;
}

// ------------------------------------------------------------------
// Keep-bitmap vs byte-keep ablation: the full predicate path as
// FilterNode runs it — evaluate the predicate over each batch, expand
// the keep vector to a selection, compact survivors — with the keep
// vector held as a byte per row (the pre-bitmap engine) vs packed to
// 1 bit per row (KeepBitmap: word stores, word-at-a-time FromKeep).
// Swept across selectivities, since the byte path's cost is flat while
// the bitmap path's expansion cost scales with survivors.
// ------------------------------------------------------------------

struct KeepPathArgs {
  const std::vector<Batch>* slices;
  int64_t threshold;  // keep rows with col0 <= threshold
};

double KeepByteMs(const void* p) {
  const auto* a = static_cast<const KeepPathArgs*>(p);
  Stopwatch sw;
  Batch out;
  std::vector<uint8_t> keep;
  size_t total = 0;
  for (const Batch& in : *a->slices) {
    const auto& v = in.column(0).ints();
    keep.assign(v.size(), 0);
    for (size_t i = 0; i < v.size(); ++i) {
      keep[i] = v[i] <= a->threshold;
    }
    out.ResetLike(in);
    out.AppendFiltered(in, keep.data());
    total += out.num_rows();
  }
  double ms = sw.ElapsedMillis();
  if (total == 0) std::abort();
  return ms;
}

double KeepBitmapMs(const void* p) {
  const auto* a = static_cast<const KeepPathArgs*>(p);
  Stopwatch sw;
  Batch out;
  KeepBitmap keep;
  size_t total = 0;
  for (const Batch& in : *a->slices) {
    const auto& v = in.column(0).ints();
    keep.Reset(v.size());
    const int64_t threshold = a->threshold;
    keep.FillFrom([&](size_t i) { return v[i] <= threshold; });
    out.ResetLike(in);
    out.AppendFiltered(in, keep);
    total += out.num_rows();
  }
  double ms = sw.ElapsedMillis();
  if (total == 0) std::abort();
  return ms;
}

// ------------------------------------------------------------------
// Gather through a selection vector (join/sort compaction shape).
// ------------------------------------------------------------------

struct GatherArgs {
  const Batch* in;
  const SelVector* sel;
};

double GatherBaselineMs(const void* p) {
  const auto* a = static_cast<const GatherArgs*>(p);
  Stopwatch sw;
  Batch out = EmptyLike(*a->in);
  for (size_t i = 0; i < a->sel->size(); ++i) {
    out.AppendRow(*a->in, (*a->sel)[i]);
  }
  double ms = sw.ElapsedMillis();
  if (out.num_rows() != a->sel->size()) std::abort();
  return ms;
}

double GatherKernelMs(const void* p) {
  const auto* a = static_cast<const GatherArgs*>(p);
  Stopwatch sw;
  Batch out = EmptyLike(*a->in);
  out.AppendGather(*a->in, *a->sel);
  double ms = sw.ElapsedMillis();
  if (out.num_rows() != a->sel->size()) std::abort();
  return ms;
}

// ------------------------------------------------------------------
// Hash aggregation: SUM(double), COUNT grouped by an int64 key.
// The baseline replicates the engine's pre-refactor HashAggNode
// faithfully: the same batch-sliced input, per-row group-key string
// encoding into a std::unordered_map, and per-row aggregate updates.
// Both paths pay the same source-slicing cost; the delta is the
// aggregation machinery itself.
// ------------------------------------------------------------------

struct AggArgs {
  const Batch* in;
};

double AggBaselineMs(const void* p) {
  const auto* a = static_cast<const AggArgs*>(p);
  VectorSource src(*a->in);  // input copy not timed for either path
  Stopwatch sw;
  struct GroupState {
    size_t first_row = 0;
    std::vector<double> sums, mins, maxs;
    int64_t count = 0;
  };
  std::unordered_map<std::string, GroupState> groups;
  ColumnVector key_col(TypeId::kInt64);
  Batch in;
  std::string key;
  while (true) {
    auto more = src.Next(&in, kDefaultBatchSize);
    if (!more.ok()) std::abort();
    if (!*more) break;
    for (size_t row = 0; row < in.num_rows(); ++row) {
      key.clear();
      int64_t k = in.column(0).ints()[row];
      key.append(reinterpret_cast<const char*>(&k), 8);
      auto [it, inserted] = groups.try_emplace(key);
      GroupState& g = it->second;
      if (inserted) {
        g.first_row = key_col.size();
        key_col.AppendFrom(in.column(0), row);
        g.sums.assign(2, 0.0);
        g.mins.assign(2, std::numeric_limits<double>::infinity());
        g.maxs.assign(2, -std::numeric_limits<double>::infinity());
      }
      ++g.count;
      double v = in.column(3).doubles()[row];
      g.sums[0] += v;
      g.mins[0] = std::min(g.mins[0], v);
      g.maxs[0] = std::max(g.maxs[0], v);
    }
  }
  // Emit in first-appearance order (as the old node did).
  std::vector<std::pair<size_t, const GroupState*>> ordered;
  ordered.reserve(groups.size());
  for (const auto& [kk, g] : groups) ordered.emplace_back(g.first_row, &g);
  std::sort(ordered.begin(), ordered.end());
  ColumnVector keys_out(TypeId::kInt64), sums_out(TypeId::kDouble);
  ColumnVector counts_out(TypeId::kInt64);
  for (const auto& [pos, g] : ordered) {
    keys_out.AppendFrom(key_col, pos);
    sums_out.doubles().push_back(g->sums[0]);
    counts_out.ints().push_back(g->count);
  }
  double ms = sw.ElapsedMillis();
  if (keys_out.size() == 0) std::abort();
  return ms;
}

double AggKernelMs(const void* p) {
  const auto* a = static_cast<const AggArgs*>(p);
  auto src = std::make_unique<VectorSource>(*a->in);  // copy not timed
  Stopwatch sw;
  HashAggNode agg(std::move(src), {0},
                  {{AggKind::kSum, 3}, {AggKind::kCount, 0}});
  Batch out;
  auto more = agg.Next(&out, std::numeric_limits<size_t>::max());
  double ms = sw.ElapsedMillis();
  if (!more.ok() || !*more || out.num_rows() == 0) std::abort();
  return ms;
}

// ------------------------------------------------------------------
// Compressed-execution ablations: the same data flowing through the
// same operators, stored once with encoded execution on (dictionary
// codes, RLE sidecars, zero-copy borrows) and once decoded to plain
// (the differential-reference path). Baseline = decoded / decode-first,
// kernel = encoded. Tables are pre-warmed so this measures execution,
// not chunk decode.
// ------------------------------------------------------------------

std::shared_ptr<const Schema> CompressedSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64},
                         {"g", TypeId::kString},
                         {"r", TypeId::kInt64},
                         {"v", TypeId::kDouble}},
                        {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::unique_ptr<Table> BuildCompressedTable(size_t rows, bool encoded) {
  TableOptions opts;
  opts.store.chunk_rows = 65536;
  opts.store.encoded_exec = encoded;
  if (encoded) {
    opts.store.forced_encodings = {Encoding::kPlain, Encoding::kDict,
                                   Encoding::kRle, Encoding::kPlain};
  }
  auto t = std::make_unique<Table>("compressed", CompressedSchema(), opts);
  // ~1000 distinct group strings (per-chunk dictionaries stay small) of
  // realistic length, and an int column in runs of 512 (RLE-friendly).
  std::vector<std::string> groups;
  groups.reserve(1000);
  for (int g = 0; g < 1000; ++g) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "segment_%04d_of_catalog", g);
    groups.push_back(buf);
  }
  Random rng(23);
  std::vector<ColumnVector> data;
  data.emplace_back(TypeId::kInt64);
  data.emplace_back(TypeId::kString);
  data.emplace_back(TypeId::kInt64);
  data.emplace_back(TypeId::kDouble);
  for (auto& c : data) c.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    data[0].ints().push_back(static_cast<int64_t>(i));
    data[1].strings().push_back(groups[rng.Uniform(1000)]);
    data[2].ints().push_back(static_cast<int64_t>(i / 512));
    data[3].doubles().push_back(rng.NextDouble() * 100.0);
  }
  Status st = t->LoadColumns(std::move(data));
  if (!st.ok()) std::abort();
  // Warm the pool so the timed loops never decode.
  Batch b;
  auto scan = t->Scan({0, 1, 2, 3});
  while (true) {
    auto more = scan->Next(&b, kDefaultBatchSize);
    if (!more.ok() || !*more) break;
  }
  return t;
}

struct TableArgs {
  const Table* table;
  int64_t lo = 0, hi = 0;  // rle_predicate range
};

double DictGroupByMs(const void* p) {
  const auto* a = static_cast<const TableArgs*>(p);
  Stopwatch sw;
  // Batch layout: 0 = g (string group key), 1 = v.
  HashAggNode agg(a->table->Scan({1, 3}), {0},
                  {{AggKind::kCount, 0}, {AggKind::kSum, 1}});
  Batch out;
  auto more = agg.Next(&out, std::numeric_limits<size_t>::max());
  double ms = sw.ElapsedMillis();
  if (!more.ok() || !*more || out.num_rows() == 0) std::abort();
  return ms;
}

// Q1-shaped aggregation: two low-cardinality string keys (4 live
// groups) under seven SUM/AVG aggregates plus COUNT, scanned straight
// into HashAggNode. Encoded = per-chunk dictionary codes (the
// dictionary key layout), decoded = plain strings (the generic layout).
std::shared_ptr<const Schema> Q1ShapedSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64},
                         {"returnflag", TypeId::kString},
                         {"linestatus", TypeId::kString},
                         {"quantity", TypeId::kDouble},
                         {"price", TypeId::kDouble},
                         {"discount", TypeId::kDouble},
                         {"tax", TypeId::kDouble}},
                        {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::unique_ptr<Table> BuildQ1ShapedTable(size_t rows, bool encoded) {
  TableOptions opts;
  opts.store.encoded_exec = encoded;
  if (encoded) {
    opts.store.forced_encodings = {Encoding::kPlain, Encoding::kDict,
                                   Encoding::kDict,  Encoding::kPlain,
                                   Encoding::kPlain, Encoding::kPlain,
                                   Encoding::kPlain};
  }
  auto t = std::make_unique<Table>("q1_shaped", Q1ShapedSchema(), opts);
  // TPC-H's four (returnflag, linestatus) groups at roughly Q1's mix.
  static const char* const kFlags[][2] = {
      {"A", "F"}, {"N", "F"}, {"N", "O"}, {"R", "F"}};
  static const uint32_t kWeightUpTo[] = {25, 26, 75, 100};
  Random rng(29);
  std::vector<ColumnVector> data;
  data.emplace_back(TypeId::kInt64);
  data.emplace_back(TypeId::kString);
  data.emplace_back(TypeId::kString);
  for (int c = 0; c < 4; ++c) data.emplace_back(TypeId::kDouble);
  for (auto& c : data) c.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const uint32_t w = static_cast<uint32_t>(rng.Uniform(100));
    size_t g = 0;
    while (w >= kWeightUpTo[g]) ++g;
    data[0].ints().push_back(static_cast<int64_t>(i));
    data[1].strings().push_back(kFlags[g][0]);
    data[2].strings().push_back(kFlags[g][1]);
    data[3].doubles().push_back(static_cast<double>(1 + rng.Uniform(50)));
    data[4].doubles().push_back(900.0 + rng.NextDouble() * 100000.0);
    data[5].doubles().push_back(static_cast<double>(rng.Uniform(11)) / 100);
    data[6].doubles().push_back(static_cast<double>(rng.Uniform(9)) / 100);
  }
  Status st = t->LoadColumns(std::move(data));
  if (!st.ok()) std::abort();
  // Warm the pool so the timed loops never decode.
  Batch b;
  auto scan = t->Scan({1, 2, 3, 4, 5, 6});
  while (true) {
    auto more = scan->Next(&b, kDefaultBatchSize);
    if (!more.ok() || !*more) break;
  }
  return t;
}

double Q1ShapedAggMs(const void* p) {
  const auto* a = static_cast<const TableArgs*>(p);
  Stopwatch sw;
  // Batch layout: 0/1 = keys, 2 = quantity, 3 = price, 4 = discount,
  // 5 = tax.
  HashAggNode agg(a->table->Scan({1, 2, 3, 4, 5, 6}), {0, 1},
                  {{AggKind::kSum, 2},
                   {AggKind::kSum, 3},
                   {AggKind::kSum, 4},
                   {AggKind::kSum, 5},
                   {AggKind::kAvg, 2},
                   {AggKind::kAvg, 3},
                   {AggKind::kAvg, 4},
                   {AggKind::kCount, 0}});
  Batch out;
  auto more = agg.Next(&out, std::numeric_limits<size_t>::max());
  double ms = sw.ElapsedMillis();
  if (!more.ok() || !*more || out.num_rows() != 4) std::abort();
  return ms;
}

double RlePredicateMs(const void* p) {
  const auto* a = static_cast<const TableArgs*>(p);
  Stopwatch sw;
  // Batch layout: 0 = k, 1 = r (run-length column).
  FilterNode f(a->table->Scan({0, 2}), Int64Between(1, a->lo, a->hi));
  Batch b;
  size_t survivors = 0;
  while (true) {
    auto more = f.Next(&b, kDefaultBatchSize);
    if (!more.ok()) std::abort();
    if (!*more) break;
    survivors += b.num_rows();
  }
  double ms = sw.ElapsedMillis();
  if (survivors == 0) std::abort();
  return ms;
}

// Zero-copy scan ablation: both paths consume the same encoded table;
// the baseline materializes every batch column to owned-plain storage
// first (what pre-borrow scans effectively did: copy out of the pool,
// decode dictionary codes to strings), the kernel reads the borrowed
// spans in place.
uint64_t ScanChecksum(const Table& table, bool decode_first) {
  Batch b;
  auto scan = table.Scan({0, 1, 2, 3});
  uint64_t sum = 0;
  while (true) {
    auto more = scan->Next(&b, kDefaultBatchSize);
    if (!more.ok() || !*more) break;
    if (decode_first) {
      for (size_t c = 0; c < b.num_columns(); ++c) {
        b.column(c).EnsureOwnedPlain();
      }
    }
    const int64_t* k = b.column(0).ints_data();
    const int64_t* r = b.column(2).ints_data();
    for (size_t i = 0; i < b.num_rows(); ++i) {
      sum += static_cast<uint64_t>(k[i]) + static_cast<uint64_t>(r[i]);
    }
    sum += b.column(1).StringAt(0).size();
  }
  return sum;
}

double ScanDecodeFirstMs(const void* p) {
  const auto* a = static_cast<const TableArgs*>(p);
  Stopwatch sw;
  if (ScanChecksum(*a->table, true) == 0) std::abort();
  return sw.ElapsedMillis();
}

double ScanZeroCopyMs(const void* p) {
  const auto* a = static_cast<const TableArgs*>(p);
  Stopwatch sw;
  if (ScanChecksum(*a->table, false) == 0) std::abort();
  return sw.ElapsedMillis();
}

void Report(JsonResultWriter* json, const char* name, size_t rows,
            double base_ms, double kern_ms) {
  double base_mrps = static_cast<double>(rows) / base_ms / 1e3;
  double kern_mrps = static_cast<double>(rows) / kern_ms / 1e3;
  std::printf("%-24s %10.2f ms -> %8.2f ms   %7.1f -> %7.1f Mrows/s   %5.2fx\n",
              name, base_ms, kern_ms, base_mrps, kern_mrps,
              base_ms / kern_ms);
  json->Metric(name, "rows", static_cast<double>(rows));
  json->Metric(name, "baseline_ms", base_ms);
  json->Metric(name, "kernel_ms", kern_ms);
  json->Metric(name, "baseline_mrps", base_mrps);
  json->Metric(name, "kernel_mrps", kern_mrps);
  json->Metric(name, "speedup", base_ms / kern_ms);
}

}  // namespace
}  // namespace bench
}  // namespace pdtstore

int main(int argc, char** argv) {
  using namespace pdtstore;
  using namespace pdtstore::bench;
  const size_t rows = static_cast<size_t>(
      std::strtoull(FlagValue(argc, argv, "rows", "1000000").c_str(),
                    nullptr, 10));
  const int reps =
      std::atoi(FlagValue(argc, argv, "reps", "5").c_str());
  const std::string json_path =
      FlagValue(argc, argv, "json", "BENCH_exec.json");
  if (rows < 64) {
    // The anti-elision sanity guards assume at least a few survivors.
    std::fprintf(stderr, "error: --rows must be >= 64 (got %zu)\n", rows);
    return 1;
  }

  std::printf(
      "=== Selection-vector execution kernels vs row-at-a-time baseline "
      "(%zu rows) ===\n%-24s %*s\n",
      rows, "bench", 62, "baseline -> kernel");

  Batch input = MakeWideBatch(rows, /*seed=*/11);
  JsonResultWriter json;

  {
    // Engine-shaped input: kDefaultBatchSize slices with ~50%-selective
    // unpredictable keep bitmaps.
    Random rng(13);
    std::vector<Batch> slices;
    std::vector<std::vector<uint8_t>> keeps;
    for (size_t off = 0; off < rows; off += kDefaultBatchSize) {
      size_t end = std::min(rows, off + kDefaultBatchSize);
      Batch slice = EmptyLike(input);
      for (size_t c = 0; c < input.num_columns(); ++c) {
        slice.column(c).AppendRange(input.column(c), off, end);
      }
      std::vector<uint8_t> keep(end - off);
      for (auto& k : keep) k = rng.Uniform(2);
      slices.push_back(std::move(slice));
      keeps.push_back(std::move(keep));
    }
    FilterArgs args{&slices, &keeps};
    (void)FilterBaselineMs(&args);  // warm
    (void)FilterKernelMs(&args);
    Report(&json, "filter_compact", rows,
           BestOf(reps, FilterBaselineMs, &args),
           BestOf(reps, FilterKernelMs, &args));

    // Whole-batch gather through a 50% selection (join/sort shape).
    std::vector<uint8_t> keep(rows);
    for (auto& k : keep) k = rng.Uniform(2);
    SelVector sel = SelVector::FromKeep(keep.data(), rows);
    GatherArgs gargs{&input, &sel};
    (void)GatherBaselineMs(&gargs);
    (void)GatherKernelMs(&gargs);
    Report(&json, "selection_gather", sel.size(),
           BestOf(reps, GatherBaselineMs, &gargs),
           BestOf(reps, GatherKernelMs, &gargs));

    // Keep-bitmap ablation: byte-per-row keep (baseline) vs 1-bit
    // KeepBitmap (kernel) over the same sliced predicate+compaction
    // path, at 1% / 50% / 99% selectivity. Column 0 values are uniform
    // in [0, 2^24), so a threshold at the selectivity quantile keeps
    // roughly that fraction of rows.
    struct { const char* name; double selectivity; } sweeps[] = {
        {"keep_bitmap_sel1", 0.01},
        {"keep_bitmap_sel50", 0.50},
        {"keep_bitmap_sel99", 0.99},
    };
    for (const auto& sweep : sweeps) {
      KeepPathArgs kargs{
          &slices,
          static_cast<int64_t>(sweep.selectivity * double{1 << 24})};
      (void)KeepByteMs(&kargs);  // warm
      (void)KeepBitmapMs(&kargs);
      Report(&json, sweep.name, rows, BestOf(reps, KeepByteMs, &kargs),
             BestOf(reps, KeepBitmapMs, &kargs));
    }
  }

  {
    // Rewrite column 0 to a bounded group domain (64k groups at 1M rows).
    Random rng(17);
    auto& keys = input.column(0).ints();
    for (size_t i = 0; i < rows; ++i) {
      keys[i] = static_cast<int64_t>(rng.Uniform(rows / 16 + 1));
    }
    AggArgs args{&input};
    (void)AggBaselineMs(&args);
    (void)AggKernelMs(&args);
    Report(&json, "hash_agg", rows, BestOf(reps, AggBaselineMs, &args),
           BestOf(reps, AggKernelMs, &args));
  }

  {
    // Compressed-execution ablations (see the section comment above).
    auto encoded = BuildCompressedTable(rows, /*encoded=*/true);
    auto decoded = BuildCompressedTable(rows, /*encoded=*/false);

    TableArgs enc{encoded.get()};
    TableArgs dec{decoded.get()};
    (void)DictGroupByMs(&dec);  // warm
    (void)DictGroupByMs(&enc);
    Report(&json, "dict_group_by", rows, BestOf(reps, DictGroupByMs, &dec),
           BestOf(reps, DictGroupByMs, &enc));

    auto q1_encoded = BuildQ1ShapedTable(rows, /*encoded=*/true);
    auto q1_decoded = BuildQ1ShapedTable(rows, /*encoded=*/false);
    TableArgs q1_enc{q1_encoded.get()};
    TableArgs q1_dec{q1_decoded.get()};
    (void)Q1ShapedAggMs(&q1_dec);  // warm
    (void)Q1ShapedAggMs(&q1_enc);
    const std::vector<double> base_ms =
        SortedTimes(reps, Q1ShapedAggMs, &q1_dec);
    const std::vector<double> kern_ms =
        SortedTimes(reps, Q1ShapedAggMs, &q1_enc);
    Report(&json, "hash_agg_dict_keys", rows, base_ms.front(),
           kern_ms.front());
    // Median over the repeats with the interquartile spread beside it.
    json.Metric("hash_agg_dict_keys", "baseline_median_ms",
                Quantile(base_ms, 0.5));
    json.Metric("hash_agg_dict_keys", "baseline_iqr_ms",
                Quantile(base_ms, 0.75) - Quantile(base_ms, 0.25));
    json.Metric("hash_agg_dict_keys", "kernel_median_ms",
                Quantile(kern_ms, 0.5));
    json.Metric("hash_agg_dict_keys", "kernel_iqr_ms",
                Quantile(kern_ms, 0.75) - Quantile(kern_ms, 0.25));
    json.Metric("hash_agg_dict_keys", "hardware_threads",
                static_cast<double>(std::thread::hardware_concurrency()));

    // ~6% selective range over the run-length column.
    enc.lo = dec.lo = static_cast<int64_t>(rows / 512 / 2);
    enc.hi = dec.hi = enc.lo + static_cast<int64_t>(rows / 512 / 16);
    (void)RlePredicateMs(&dec);
    (void)RlePredicateMs(&enc);
    Report(&json, "rle_predicate", rows, BestOf(reps, RlePredicateMs, &dec),
           BestOf(reps, RlePredicateMs, &enc));

    (void)ScanDecodeFirstMs(&enc);
    (void)ScanZeroCopyMs(&enc);
    Report(&json, "zero_copy_scan", rows,
           BestOf(reps, ScanDecodeFirstMs, &enc),
           BestOf(reps, ScanZeroCopyMs, &enc));

    // Cold scan with a zone-map hint: most chunks are proven dead by
    // their k min/max and never leave "disk". Reported as I/O bytes,
    // the paper's cold-scan currency.
    BufferPool* pool = encoded->buffer_pool();
    pool->EvictAll();
    pool->ResetStats();
    const int64_t klo = static_cast<int64_t>(rows / 2);
    const int64_t khi = klo + static_cast<int64_t>(rows / 16);
    ScanOptions zso;
    zso.zone_filters.push_back({0, Value(klo), Value(khi)});
    Stopwatch zsw;
    FilterNode zf(encoded->Scan({0, 3}, nullptr, zso),
                  Int64Between(0, klo, khi));
    Batch zb;
    uint64_t zrows = 0;
    while (true) {
      auto more = zf.Next(&zb, kDefaultBatchSize);
      if (!more.ok() || !*more) break;
      zrows += zb.num_rows();
    }
    const double zms = zsw.ElapsedMillis();
    const IoStats s = pool->stats();
    if (zrows == 0) std::abort();
    std::printf(
        "%-24s %10.2f ms   read %.1f KiB in %llu chunks, skipped %.1f KiB "
        "in %llu chunks\n",
        "zone_prune_cold_scan", zms, s.bytes_read / 1024.0,
        static_cast<unsigned long long>(s.chunks_read),
        s.bytes_skipped / 1024.0,
        static_cast<unsigned long long>(s.chunks_skipped));
    json.Metric("zone_prune_cold_scan", "scan_ms", zms);
    json.Metric("zone_prune_cold_scan", "bytes_read",
                static_cast<double>(s.bytes_read));
    json.Metric("zone_prune_cold_scan", "chunks_read",
                static_cast<double>(s.chunks_read));
    json.Metric("zone_prune_cold_scan", "bytes_skipped",
                static_cast<double>(s.bytes_skipped));
    json.Metric("zone_prune_cold_scan", "chunks_skipped",
                static_cast<double>(s.chunks_skipped));
  }

  if (json.WriteFile(json_path)) {
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
