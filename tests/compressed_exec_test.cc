// Targeted tests for the compressed-execution machinery: zero-copy
// borrowed spans (lifetime, copy-on-write), dictionary code columns
// (breaker re-encoding and decay), encoded predicate kernels (RLE
// run-at-a-time, dict verdict tables), buffer-pool stats atomicity, and
// zone-map chunk pruning (including the PDT-entry and trailing-insert
// edge cases the pruner must respect).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/table.h"
#include "exec/filter.h"
#include "storage/buffer_pool.h"
#include "storage/column_store.h"
#include "txn/txn_manager.h"

namespace pdtstore {
namespace {

std::shared_ptr<const Schema> TestSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64},
                         {"v", TypeId::kInt64},
                         {"s", TypeId::kString}},
                        {0});
  return std::make_shared<const Schema>(std::move(*s));
}

// n rows: k = i, v = i / 8 (long runs), s cycles over 4 values (small
// dictionary). Chunked small so multi-chunk behavior shows up at tiny n.
std::unique_ptr<Table> MakeTable(int64_t n, bool encoded_exec = true,
                                 std::vector<Encoding> forced = {}) {
  TableOptions opts;
  opts.store.chunk_rows = 64;
  opts.store.encoded_exec = encoded_exec;
  opts.store.forced_encodings = std::move(forced);
  auto t = std::make_unique<Table>("t", TestSchema(), opts);
  std::vector<Tuple> rows;
  rows.reserve(n);
  const char* names[] = {"alpha", "beta", "gamma", "delta"};
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({i, i / 8, std::string(names[i % 4])});
  }
  EXPECT_TRUE(t->Load(rows).ok());
  return t;
}

std::vector<Tuple> Collect(BatchSource* src) {
  auto rows = CollectRows(src);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? std::move(*rows) : std::vector<Tuple>{};
}

// ---------------------------------------------------------------------
// Borrowed spans.
// ---------------------------------------------------------------------

// A batch pulled from a scan stays readable after the scan source is
// destroyed and the pool evicts everything: the borrow's shared_ptr pins
// the decoded chunk.
TEST(CompressedExec, BorrowedBatchOutlivesScanAndEviction) {
  auto t = MakeTable(256);
  Batch b;
  {
    auto scan = t->Scan({0, 1, 2});
    auto more = scan->Next(&b, 64);
    ASSERT_TRUE(more.ok() && *more);
  }                              // scan source gone
  t->buffer_pool()->EvictAll();  // pool reference gone too
  ASSERT_EQ(b.num_rows(), 64u);
  EXPECT_TRUE(b.column(0).is_borrowed());
  const int64_t* k = b.column(0).ints_data();
  const char* names[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < b.num_rows(); ++i) {
    EXPECT_EQ(k[i], static_cast<int64_t>(i));
    EXPECT_EQ(b.column(2).StringAt(i), names[i % 4]);
  }
}

// Mutating a borrowed column detaches a private copy; the pool-owned
// chunk the scan borrowed from is not scribbled on.
TEST(CompressedExec, CopyOnWriteDetachProtectsChunkStorage) {
  auto t = MakeTable(128);
  auto scan = t->Scan({0, 1, 2});
  Batch b;
  ASSERT_TRUE(scan->Next(&b, 64).ok());
  ASSERT_TRUE(b.column(0).is_borrowed());

  b.column(0).ints()[0] = -999;  // copy-on-write detach
  EXPECT_FALSE(b.column(0).is_borrowed());
  EXPECT_EQ(b.column(0).ints_data()[0], -999);

  // A fresh scan still sees the original values.
  auto scan2 = t->Scan({0});
  Batch b2;
  ASSERT_TRUE(scan2->Next(&b2, 64).ok());
  EXPECT_EQ(b2.column(0).ints_data()[0], 0);
}

// ---------------------------------------------------------------------
// Dictionary columns at breakers.
// ---------------------------------------------------------------------

// AppendRange from a dictionary column into an empty string column
// adopts the dictionary (code copy); appending from a column with a
// *different* dictionary then decays to plain — values stay correct.
TEST(CompressedExec, DictAdoptionAndDecayAtBreakers) {
  auto t1 = MakeTable(64, true, {Encoding::kPlain, Encoding::kPlain,
                                 Encoding::kDict});
  TableOptions opts2;
  opts2.store.chunk_rows = 64;
  auto t2 = std::make_unique<Table>("t2", TestSchema(), opts2);
  std::vector<Tuple> rows2;
  for (int64_t i = 0; i < 64; ++i) {
    rows2.push_back({i, i, std::string(i % 2 ? "omega" : "sigma")});
  }
  ASSERT_TRUE(t2->Load(rows2).ok());

  auto c1 = t1->store().FetchChunk(2, 0);
  auto c2 = t2->store().FetchChunk(2, 0);
  ASSERT_TRUE(c1.ok() && c2.ok());
  ASSERT_TRUE((*c1)->is_dict());

  ColumnVector out(TypeId::kString);
  out.AppendRange(**c1, 0, 8);
  EXPECT_TRUE(out.is_dict());  // adopted c1's dictionary
  EXPECT_EQ(out.dict().get(), (*c1)->dict().get());

  out.AppendRange(**c2, 0, 4);  // different (or no) dict: must decay
  EXPECT_FALSE(out.is_dict());
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(out.StringAt(0), "alpha");
  EXPECT_EQ(out.StringAt(7), "delta");
  EXPECT_EQ(out.StringAt(8), "sigma");
  EXPECT_EQ(out.StringAt(9), "omega");
}

// Equal hashes across representations: group-by and join partitioning
// rely on the dict path producing the same per-row hash as plain.
TEST(CompressedExec, DictAndPlainHashesAgree) {
  auto enc = MakeTable(64, true, {Encoding::kPlain, Encoding::kPlain,
                                  Encoding::kDict});
  auto dec = MakeTable(64, false);
  auto c_enc = enc->store().FetchChunk(2, 0);
  auto c_dec = dec->store().FetchChunk(2, 0);
  ASSERT_TRUE(c_enc.ok() && c_dec.ok());
  ASSERT_TRUE((*c_enc)->is_dict());
  ASSERT_FALSE((*c_dec)->is_dict());
  std::vector<uint64_t> h1((*c_enc)->size(), kHashSeed);
  std::vector<uint64_t> h2((*c_dec)->size(), kHashSeed);
  (*c_enc)->HashColumn(h1.data());
  (*c_dec)->HashColumn(h2.data());
  EXPECT_EQ(h1, h2);
}

// ---------------------------------------------------------------------
// Encoded predicate kernels.
// ---------------------------------------------------------------------

// Same data stored five ways; every predicate shape must select the
// same rows, whether it runs per-row, per-run (RLE sidecar), or per
// dictionary entry (DICT chunks, and RLE string chunks, which decode to
// dictionary codes too).
TEST(CompressedExec, EncodedPredicatesMatchDecodedReference) {
  const int64_t n = 500;
  std::vector<std::vector<Encoding>> variants = {
      {},  // heuristics
      {Encoding::kPlain, Encoding::kRle, Encoding::kDict},
      {Encoding::kForBitPack, Encoding::kPlain, Encoding::kPlain},
      {Encoding::kPlain, Encoding::kPlain, Encoding::kRle},
  };
  auto ref_table = MakeTable(n, false);
  std::vector<std::pair<const char*, VecPredicate>> preds;
  preds.emplace_back("between", Int64Between(1, 10, 40));
  preds.emplace_back("str_eq", StringEquals(2, "gamma"));
  preds.emplace_back("str_match", StringMatch(2, [](const std::string& s) {
                       return !s.empty() && s[0] == 'd';
                     }));
  for (auto& [name, pred] : preds) {
    auto rs = std::make_unique<FilterNode>(ref_table->Scan({0, 1, 2}), pred);
    const std::vector<Tuple> want = Collect(rs.get());
    EXPECT_FALSE(want.empty()) << name;
    for (const auto& forced : variants) {
      auto t = MakeTable(n, true, forced);
      auto fs = std::make_unique<FilterNode>(t->Scan({0, 1, 2}), pred);
      EXPECT_EQ(Collect(fs.get()), want) << name;
    }
  }
}

// The RLE sidecar actually exists on forced-RLE columns (so the
// run-at-a-time kernel, not the per-row loop, is what the test above
// exercised), and run bounds reconstruct the column. A forced-RLE string
// column arrives as dictionary codes with its runs attached.
TEST(CompressedExec, RleSidecarPresentAndConsistent) {
  auto t = MakeTable(256, true,
                     {Encoding::kPlain, Encoding::kRle, Encoding::kRle});
  auto s = t->store().FetchChunk(2, 0);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE((*s)->is_dict());
  ASSERT_NE((*s)->rle_runs(), nullptr);
  EXPECT_EQ((*s)->rle_runs()->ends.size(), (*s)->size());  // no repeats
  auto c = t->store().FetchChunk(1, 0);
  ASSERT_TRUE(c.ok());
  const RleRuns* runs = (*c)->rle_runs();
  ASSERT_NE(runs, nullptr);
  const int64_t* v = (*c)->ints_data();
  uint32_t begin = 0;
  for (uint32_t end : runs->ends) {
    ASSERT_LT(begin, end);
    for (uint32_t i = begin; i < end; ++i) EXPECT_EQ(v[i], v[begin]);
    if (end < (*c)->size()) EXPECT_NE(v[end], v[begin]);
    begin = end;
  }
  EXPECT_EQ(begin, (*c)->size());
}

// ---------------------------------------------------------------------
// BufferPool stats.
// ---------------------------------------------------------------------

// Concurrent fetches with a concurrent stats() poller: counters must
// add up exactly afterwards (they are relaxed atomics, not a racy
// read-modify-write under no lock).
TEST(CompressedExec, PoolStatsAreExactUnderConcurrency) {
  auto t = MakeTable(512);
  BufferPool* pool = t->buffer_pool();
  pool->EvictAll();
  pool->ResetStats();
  const size_t chunks = t->store().num_chunks();
  const int kThreads = 8, kRounds = 50;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t ci = 0; ci < chunks; ++ci) {
          auto c = t->store().FetchChunk(0, ci);
          ASSERT_TRUE(c.ok());
        }
      }
    });
  }
  std::thread poller([&] {
    for (int i = 0; i < 1000; ++i) (void)pool->stats();
  });
  for (auto& w : workers) w.join();
  poller.join();
  const IoStats s = pool->stats();
  EXPECT_EQ(s.chunks_read + s.hits,
            static_cast<uint64_t>(kThreads) * kRounds * chunks);
  EXPECT_GE(s.chunks_read, chunks);  // every chunk missed at least once
  EXPECT_GT(s.bytes_read, 0u);
}

// ---------------------------------------------------------------------
// Zone-map pruning.
// ---------------------------------------------------------------------

std::vector<Tuple> ScanWith(const Table& t, std::vector<ZoneFilter> zf,
                            int64_t lo, int64_t hi, int threads) {
  ScanOptions so;
  so.num_threads = threads;
  so.zone_filters = std::move(zf);
  auto src = std::make_unique<FilterNode>(t.Scan({0, 1, 2}, nullptr, so),
                                          Int64Between(0, lo, hi));
  return Collect(src.get());
}

// A narrow key-range hint skips the chunks outside it (visible in
// IoStats) without changing the result, serial and parallel.
TEST(CompressedExec, ZonePruningSkipsChunksWithoutChangingResults) {
  auto t = MakeTable(512);  // 8 chunks of 64 keys
  const int64_t lo = 200, hi = 260;
  const std::vector<Tuple> want = ScanWith(*t, {}, lo, hi, 1);
  ASSERT_EQ(want.size(), static_cast<size_t>(hi - lo + 1));
  for (int threads : {1, 4}) {
    t->buffer_pool()->EvictAll();
    t->buffer_pool()->ResetStats();
    const std::vector<Tuple> got =
        ScanWith(*t, {{0, Value(lo), Value(hi)}}, lo, hi, threads);
    EXPECT_EQ(got, want) << threads << " threads";
    const IoStats s = t->buffer_pool()->stats();
    EXPECT_GT(s.chunks_skipped, 0u) << threads << " threads";
    EXPECT_GT(s.bytes_skipped, 0u) << threads << " threads";
  }
}

// PDT entries inside otherwise-dead chunks block pruning (the merged
// image shifts positions, so a pruned range must be entry-free); the
// hinted scan must agree with the unhinted one under inserts, deletes
// and modifies both inside and outside the hinted key range.
TEST(CompressedExec, ZonePruningRespectsDeltaEntries) {
  auto t = MakeTable(512);
  // Entries in chunks the zone maps would otherwise prune:
  ASSERT_TRUE(t->Insert({-5, 77, std::string("new")}).ok());
  ASSERT_TRUE(t->ModifyByKey({Value(int64_t{50})}, 1, Value(int64_t{9})).ok());
  ASSERT_TRUE(t->DeleteByKey({Value(int64_t{480})}).ok());
  // And churn inside the hinted range itself:
  ASSERT_TRUE(t->DeleteByKey({Value(int64_t{310})}).ok());
  ASSERT_TRUE(
      t->ModifyByKey({Value(int64_t{320})}, 2, Value(std::string("mod"))).ok());
  const int64_t lo = 300, hi = 360;
  const std::vector<Tuple> want = ScanWith(*t, {}, lo, hi, 1);
  ASSERT_EQ(want.size(), static_cast<size_t>(hi - lo));  // one key deleted
  for (int threads : {1, 4}) {
    const std::vector<Tuple> got =
        ScanWith(*t, {{0, Value(lo), Value(hi)}}, lo, hi, threads);
    EXPECT_EQ(got, want) << threads << " threads";
  }
}

// A hint that excludes every chunk on a delta-free table: nothing is
// fetched, nothing is returned — and the scan still terminates cleanly
// through the sentinel morsel, serial and parallel.
TEST(CompressedExec, AllPrunedScanReadsNothing) {
  auto t = MakeTable(512);
  const int64_t lo = 9000, hi = 11000;
  for (int threads : {1, 4}) {
    t->buffer_pool()->EvictAll();
    t->buffer_pool()->ResetStats();
    const std::vector<Tuple> got =
        ScanWith(*t, {{0, Value(lo), Value(hi)}}, lo, hi, threads);
    EXPECT_TRUE(got.empty()) << threads << " threads";
    const IoStats s = t->buffer_pool()->stats();
    EXPECT_EQ(s.chunks_read, 0u) << threads << " threads";
    EXPECT_EQ(s.chunks_skipped, 8u * 3u) << threads << " threads";
  }
}

// All stable chunks dead + a trailing insert past the stable key range:
// the insert must still be emitted. The insert's PDT entry parks at the
// scan end, which deliberately blocks pruning of the *final* chunk
// (trailing emission is anchored there), so exactly that chunk's
// columns are fetched and everything before it is skipped.
TEST(CompressedExec, AllPrunedScanStillEmitsTrailingInserts) {
  auto t = MakeTable(512);
  ASSERT_TRUE(t->Insert({10000, 1, std::string("tail")}).ok());
  const int64_t lo = 9000, hi = 11000;
  for (int threads : {1, 4}) {
    t->buffer_pool()->EvictAll();
    t->buffer_pool()->ResetStats();
    const std::vector<Tuple> got =
        ScanWith(*t, {{0, Value(lo), Value(hi)}}, lo, hi, threads);
    ASSERT_EQ(got.size(), 1u) << threads << " threads";
    EXPECT_EQ(got[0][0], Value(static_cast<int64_t>(10000)));
    const IoStats s = t->buffer_pool()->stats();
    EXPECT_EQ(s.chunks_read, 3u) << threads << " threads";   // final chunk
    EXPECT_EQ(s.chunks_skipped, 7u * 3u) << threads << " threads";
  }
}

// Multi-layer stack over a pruned mid-table gap: each PdtMergeSource
// must end its output batch at an input RID discontinuity, or the next
// layer up never sees the gap — its positional cursor drifts low by the
// gap width and its trailing inserts are dropped (regression: a batch
// once spanned the gap, hiding it from the layer above).
TEST(CompressedExec, LayeredScanPropagatesPrunedGapsAcrossLayers) {
  auto t = MakeTable(512);
  // Bottom layer (the table's own PDT): an entry that keeps chunk 0
  // alive, so the kept ranges have a hole between it and the final
  // chunk once the middle chunks are pruned.
  ASSERT_TRUE(t->Insert({-5, 77, std::string("head")}).ok());
  // Top layer (open transaction): trailing inserts past the stable key
  // range, inside the hinted window.
  TxnManager mgr(t.get());
  auto txn = mgr.Begin();
  ASSERT_TRUE(txn->Insert({10000, 1, std::string("tail-a")}).ok());
  ASSERT_TRUE(txn->Insert({10050, 2, std::string("tail-b")}).ok());
  const int64_t lo = 9000, hi = 11000;
  auto scan = [&](std::vector<ZoneFilter> zf, int threads) {
    ScanOptions so;
    so.num_threads = threads;
    so.zone_filters = std::move(zf);
    auto src = std::make_unique<FilterNode>(txn->Scan({0, 1, 2}, nullptr, so),
                                            Int64Between(0, lo, hi));
    return Collect(src.get());
  };
  const std::vector<Tuple> want = scan({}, 1);
  ASSERT_EQ(want.size(), 2u);
  for (int threads : {1, 4}) {
    const std::vector<Tuple> got =
        scan({{0, Value(lo), Value(hi)}}, threads);
    EXPECT_EQ(got, want) << threads << " threads";
  }
}

}  // namespace
}  // namespace pdtstore
