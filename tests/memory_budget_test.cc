// Memory-budget enforcement: pool/budget/lease charge-release
// invariants, ResourceExhausted on oversized sorts, aggregations and
// join builds,
// release on every error path (no leak once the operators die), the
// shared process cap under concurrent chargers, and the join-build
// partition spill path completing a query whose collect would otherwise
// blow its budget.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/table.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/pipeline.h"
#include "exec/sort.h"
#include "util/file.h"
#include "util/mem_budget.h"
#include "util/thread_pool.h"

#include "fuzz_util.h"

namespace pdtstore {
namespace {

using testutil::SortTuples;

std::shared_ptr<const Schema> TwoIntSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::unique_ptr<Table> MakeIntTable(const std::string& name, int64_t rows) {
  auto table = std::make_unique<Table>(name, TwoIntSchema(), TableOptions{});
  std::vector<Tuple> init;
  init.reserve(rows);
  for (int64_t i = 0; i < rows; ++i) init.push_back({i, i % 97});
  EXPECT_TRUE(table->Load(init).ok());
  return table;
}

// ---------------------------------------------------------------------
// Pool / budget / lease primitives.
// ---------------------------------------------------------------------

TEST(MemoryPool, ChargeReleaseAndCap) {
  MemoryPool pool(100);
  EXPECT_TRUE(pool.TryCharge(60));
  EXPECT_TRUE(pool.TryCharge(40));
  EXPECT_FALSE(pool.TryCharge(1));  // exactly at cap
  EXPECT_EQ(pool.used(), 100u);
  EXPECT_EQ(pool.peak(), 100u);
  pool.Release(50);
  EXPECT_EQ(pool.used(), 50u);
  EXPECT_EQ(pool.peak(), 100u);  // peak is sticky
  EXPECT_TRUE(pool.TryCharge(50));
  pool.Release(100);
  EXPECT_EQ(pool.used(), 0u);
  // Uncapped pool takes anything.
  MemoryPool open(0);
  EXPECT_TRUE(open.TryCharge(1u << 30));
  open.Release(1u << 30);
}

TEST(MemoryBudget, QueryCapThenPoolWithRollback) {
  MemoryPool pool(100);
  MemoryBudget small("small", 40, &pool);
  EXPECT_TRUE(small.Charge(40).ok());
  Status st = small.Charge(1);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(small.used(), 40u);
  EXPECT_EQ(pool.used(), 40u);

  // A second budget hits the shared pool cap; the rejected charge must
  // roll its query-local accounting back too.
  MemoryBudget big("big", 0, &pool);
  EXPECT_TRUE(big.Charge(60).ok());
  EXPECT_EQ(big.Charge(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(big.used(), 60u);  // failed charge left no residue
  EXPECT_EQ(pool.used(), 100u);

  small.Release(40);
  big.Release(60);
  EXPECT_EQ(pool.used(), 0u);
}

TEST(MemoryBudget, LeaseReleasesOnDestruction) {
  MemoryPool pool(1000);
  auto budget = std::make_shared<MemoryBudget>("q", 0, &pool);
  {
    BudgetLease lease(budget);
    EXPECT_TRUE(lease.Charge(300).ok());
    EXPECT_TRUE(lease.Charge(200).ok());
    EXPECT_EQ(lease.held(), 500u);
    // Early partial release (the spill hook), clamped to what is held.
    lease.Release(100);
    EXPECT_EQ(lease.held(), 400u);
    lease.Release(1u << 20);
    EXPECT_EQ(lease.held(), 0u);
    EXPECT_EQ(pool.used(), 0u);
    EXPECT_TRUE(lease.Charge(250).ok());
  }  // destructor returns the outstanding 250
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(budget->used(), 0u);
  // Null-budget lease is a no-op everywhere.
  BudgetLease unmanaged;
  EXPECT_TRUE(unmanaged.Charge(1u << 30).ok());
  EXPECT_EQ(unmanaged.held(), 0u);
}

TEST(MemoryBudget, ConcurrentChargersRespectSharedCap) {
  constexpr size_t kCap = 1u << 20;
  MemoryPool pool(kCap);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      MemoryBudget budget("t" + std::to_string(t), 0, &pool);
      BudgetLease lease;  // raw budget charges; lease unused here
      (void)lease;
      for (int i = 0; i < 4000; ++i) {
        const size_t bytes = 1 + (static_cast<size_t>(t * 4000 + i) % 4096);
        if (budget.Charge(bytes).ok()) {
          budget.Release(bytes);
        } else {
          failures.fetch_add(1);
        }
      }
      EXPECT_EQ(budget.used(), 0u);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_LE(pool.peak(), kCap);  // TryCharge never overshoots
}

// ---------------------------------------------------------------------
// Operator integration: sorts, aggregations and join builds charge the
// thread-local query budget and fail fast (releasing everything) when
// over cap.
// ---------------------------------------------------------------------

TEST(MemoryBudget, OversizedSerialSortFailsAndReleases) {
  auto table = MakeIntTable("sort_budget", 4000);  // ~64 KiB materialized
  MemoryPool pool(0);
  auto budget = std::make_shared<MemoryBudget>("sort", 16 << 10, &pool);
  {
    ScopedQueryContext ctx(QueryContext{budget, 0, ""});
    SortNode sort(table->Scan({0, 1}), {{1, false}});
    Batch out;
    StatusOr<bool> more = sort.Next(&out, kDefaultBatchSize);
    ASSERT_FALSE(more.ok());
    EXPECT_EQ(more.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(budget->used(), 0u);
}

// The serial GROUP BY (every num_threads == 1 query) charges its group
// table like the parallel partial-aggregation sink: 4000 distinct keys
// at ~64 bytes a group overrun a 16 KiB cap.
TEST(MemoryBudget, OversizedSerialAggFailsAndReleases) {
  auto table = MakeIntTable("agg_budget", 4000);
  MemoryPool pool(0);
  auto budget = std::make_shared<MemoryBudget>("agg", 16 << 10, &pool);
  {
    ScopedQueryContext ctx(QueryContext{budget, 0, ""});
    HashAggNode agg(table->Scan({0, 1}), {0}, {{AggKind::kSum, 1}});
    Batch out;
    StatusOr<bool> more = agg.Next(&out, kDefaultBatchSize);
    ASSERT_FALSE(more.ok());
    EXPECT_EQ(more.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(budget->used(), 0u);
}

TEST(MemoryBudget, OversizedParallelSortFailsAndReleases) {
  auto table = MakeIntTable("psort_budget", 4000);
  MemoryPool pool(0);
  auto budget = std::make_shared<MemoryBudget>("psort", 16 << 10, &pool);
  {
    ScopedQueryContext ctx(QueryContext{budget, 0, ""});
    ScanOptions so;
    so.num_threads = 4;
    Pipeline pipe(table->PlanMorsels({0, 1}, nullptr, so));
    auto out = std::move(pipe).IntoSortBuild({{1, false}});
    auto rows = CollectRows(out.get());
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
  }
  ThreadPool::Global().WaitIdle();
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(budget->used(), 0u);
}

TEST(MemoryBudget, OversizedJoinBuildFailsAndReleases) {
  auto probe = MakeIntTable("probe_budget", 200);
  auto build = MakeIntTable("build_budget", 4000);
  MemoryPool pool(0);
  for (int threads : {1, 4}) {
    auto budget = std::make_shared<MemoryBudget>("join", 16 << 10, &pool);
    {
      ScopedQueryContext ctx(QueryContext{budget, 0, ""});
      ScanOptions so;
      so.num_threads = threads;
      StatusOr<std::vector<Tuple>> rows = [&]() -> StatusOr<std::vector<Tuple>> {
        if (threads == 1) {
          HashJoinNode join(probe->Scan({0, 1}), build->Scan({0, 1}), {0},
                            {0});
          return CollectRows(&join);
        }
        auto bpipe = std::make_unique<Pipeline>(
            build->PlanMorsels({0, 1}, nullptr, so));
        auto handle = Pipeline::IntoJoinBuild(std::move(bpipe), {0});
        Pipeline pipe(probe->PlanMorsels({0, 1}, nullptr, so));
        pipe.Probe(handle, {0});
        auto out = std::move(pipe).Exchange();
        return CollectRows(out.get());
      }();
      ASSERT_FALSE(rows.ok()) << threads << " threads";
      EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted)
          << rows.status().ToString();
    }
    // Unrun pipeline helper tasks still queued on the global pool hold
    // op-chain references (and with them the build handle's lease);
    // drain them before checking that every byte came back.
    ThreadPool::Global().WaitIdle();
    EXPECT_EQ(pool.used(), 0u) << threads << " threads";
    EXPECT_EQ(budget->used(), 0u) << threads << " threads";
  }
}

TEST(MemoryBudget, WithinBudgetQueriesMatchUnbudgetedRuns) {
  auto probe = MakeIntTable("probe_ok", 1500);
  auto build = MakeIntTable("build_ok", 800);
  // Reference: no query context at all.
  std::vector<Tuple> ref;
  {
    HashJoinNode join(probe->Scan({0, 1}), build->Scan({0, 1}), {0}, {0});
    auto rows = CollectRows(&join);
    ASSERT_TRUE(rows.ok());
    ref = std::move(*rows);
    SortTuples(&ref);
  }
  MemoryPool pool(64 << 20);
  auto budget = std::make_shared<MemoryBudget>("ok", 32 << 20, &pool);
  {
    ScopedQueryContext ctx(QueryContext{budget, 0, ""});
    ScanOptions so;
    so.num_threads = 4;
    auto bpipe =
        std::make_unique<Pipeline>(build->PlanMorsels({0, 1}, nullptr, so));
    auto handle = Pipeline::IntoJoinBuild(std::move(bpipe), {0});
    Pipeline pipe(probe->PlanMorsels({0, 1}, nullptr, so));
    pipe.Probe(handle, {0});
    auto out = std::move(pipe).Exchange();
    auto rows = CollectRows(out.get());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    SortTuples(&*rows);
    EXPECT_EQ(*rows, ref);
    EXPECT_GT(budget->peak(), 0u);  // the build really was charged
  }
  ThreadPool::Global().WaitIdle();
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(budget->used(), 0u);
}

// ---------------------------------------------------------------------
// Join-build spill: with a spill directory configured, a collect that
// would blow the per-query cap sheds full partitions to disk instead of
// failing, and the finalized join is byte-equivalent to the uncapped
// run. The cap stays enforced during collect (budget peak <= cap).
// ---------------------------------------------------------------------

TEST(MemoryBudget, JoinBuildSpillCompletesUnderTinyCap) {
  auto probe = MakeIntTable("probe_spill", 2000);
  auto build = MakeIntTable("build_spill", 12000);  // ~190 KiB + hashes
  std::vector<Tuple> ref;
  {
    HashJoinNode join(probe->Scan({0, 1}), build->Scan({0, 1}), {0}, {0});
    auto rows = CollectRows(&join);
    ASSERT_TRUE(rows.ok());
    ref = std::move(*rows);
    SortTuples(&ref);
  }

  const std::string spill_dir =
      (std::filesystem::temp_directory_path() / "pdt_budget_spill").string();
  ASSERT_TRUE(FileSystem::Default()->CreateDir(spill_dir).ok());

  constexpr size_t kCap = 96 << 10;  // far below the build's footprint
  MemoryPool pool(0);
  auto budget = std::make_shared<MemoryBudget>("spill", kCap, &pool);
  {
    ScopedQueryContext ctx(QueryContext{budget, 0, spill_dir});
    ScanOptions so;
    so.num_threads = 4;
    auto bpipe =
        std::make_unique<Pipeline>(build->PlanMorsels({0, 1}, nullptr, so));
    auto handle = Pipeline::IntoJoinBuild(std::move(bpipe), {0}, 8);
    Pipeline pipe(probe->PlanMorsels({0, 1}, nullptr, so));
    pipe.Probe(handle, {0});
    auto out = std::move(pipe).Exchange();
    auto rows = CollectRows(out.get());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    SortTuples(&*rows);
    EXPECT_EQ(*rows, ref);
    // The cap held during collect: the whole build never sat in memory
    // at once (it can't: the data is ~2x the cap), so spill engaged.
    EXPECT_LE(budget->peak(), kCap);
    EXPECT_GT(budget->peak(), 0u);
  }
  ThreadPool::Global().WaitIdle();
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(budget->used(), 0u);
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

}  // namespace
}  // namespace pdtstore
