// Tests of the benchmark's own helpers: nearest-rank percentiles and the
// ten-samples-beyond rule, the geometric mean of per-group medians and
// minima, and span self
// time with nested and overlapping children.
// Exits non-zero on failure. Built and run by smoke_test.py.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "helpers_test.cc:%d: check failed: %s\n", line, what);
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * (1 + std::abs(b));
}

void TestPercentiles() {
  using perfbench::NearestRank;
  using perfbench::Percentile;
  CHECK(NearestRank(0, 0.5) == 0);
  CHECK(NearestRank(1, 0.99) == 1);
  CHECK(NearestRank(10, 0.5) == 5);
  CHECK(NearestRank(1000, 0.99) == 990);  // exact product, no round-up
  CHECK(NearestRank(1001, 0.99) == 991);
  CHECK(NearestRank(10, 0.0) == 1);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(Percentile(v, 0.5) == 50);
  CHECK(Percentile(v, 0.99) == 99);
  CHECK(Percentile(v, 1.0) == 100);
  CHECK(Percentile({}, 0.5) == 0);
  CHECK(perfbench::Median({3, 1, 2}) == 2);
  CHECK(perfbench::Median({4, 1, 3, 2}) == 2);  // lower median
}

void TestSamplesBeyond() {
  using perfbench::SamplesBeyond;
  CHECK(SamplesBeyond(100, 0.99) == 1);
  CHECK(SamplesBeyond(999, 0.99) == 9);
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(SamplesBeyond(0, 0.99) == 0);
  CHECK(SamplesBeyond(20, 0.5) == 10);
}

void TestGeomeanOfGroups() {
  using perfbench::Geomean;
  using perfbench::GroupMedians;
  using perfbench::GroupMinima;
  // Medians 2 and 8 -> geomean 4; the empty group is skipped.
  CHECK(GroupMedians({{1, 2, 100}, {}, {8, 8, 7}}) ==
        std::vector<double>({2, 8}));
  CHECK(Near(Geomean(GroupMedians({{1, 2, 100}, {}, {8, 8, 7}})), 4.0));
  CHECK(Near(Geomean({5}), 5.0));
  CHECK(Geomean({}) == 0.0);
  CHECK(Geomean(GroupMedians({})) == 0.0);
  // Every group weighs equally, whatever its sample count.
  CHECK(Near(Geomean(GroupMedians({{1, 1, 1, 1, 1, 1}, {100}})), 10.0));
  // Minima: the fastest sample of each non-empty group, unsorted input.
  CHECK(GroupMinima({{3, 1, 2}, {}, {9, 4}}) == std::vector<double>({1, 4}));
  CHECK(Near(Geomean(GroupMinima({{3, 1, 2}, {16, 4, 30}})), 2.0));
}

perfbench::SpanRecord S(uint64_t id, uint64_t parent, int64_t start,
                        int64_t end, const char* name = "x.y") {
  perfbench::SpanRecord s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  using perfbench::SelfTimesNs;
  // Root [0,100) with overlapping children [10,40) and [30,60) (union
  // 50) and a disjoint child [80,90): self = 100 - 60 = 40.
  // Child 2 has a grandchild [35,45): it counts against child 2 only.
  std::vector<perfbench::SpanRecord> spans = {
      S(1, 0, 0, 100), S(2, 1, 10, 40), S(3, 1, 30, 60), S(4, 1, 80, 90),
      S(5, 3, 35, 45)};
  std::vector<int64_t> self = SelfTimesNs(spans);
  CHECK(self[0] == 40);
  CHECK(self[1] == 30);
  CHECK(self[2] == 20);
  CHECK(self[3] == 10);
  CHECK(self[4] == 10);

  // A child that outlives its parent is clipped to the parent; one
  // nested inside another sibling adds nothing to the union.
  spans = {S(1, 0, 0, 50), S(2, 1, 40, 70), S(3, 1, 5, 30), S(4, 1, 10, 20)};
  self = SelfTimesNs(spans);
  CHECK(self[0] == 50 - 10 - 25);
  CHECK(self[1] == 30);

  // Self time per layer (text before the first '.').
  spans = {S(1, 0, 0, 100, "bench.pass"), S(2, 1, 0, 60, "tpch.q"),
           S(3, 1, 60, 90, "tpch.q")};
  auto by_layer = perfbench::SelfTimeByLayerNs(spans);
  CHECK(by_layer["bench"] == 10);
  CHECK(by_layer["tpch"] == 90);
}

void TestSpans() {
  perfbench::Tracer on(true);
  {
    perfbench::Span root(&on, "bench.root", nullptr);
    perfbench::Span child(&on, "tpch.child", &root);
    child.End();
    perfbench::Span untraced(&on, "bench.skip", nullptr, /*traced=*/false);
    perfbench::Span inner(&on, "tpch.inner", &untraced);
  }
  const auto spans = on.Spans();
  CHECK(spans.size() == 2);
  if (spans.size() == 2) {
    CHECK(spans[0].parent == spans[1].id);  // child ends first
    CHECK(spans[0].request == spans[1].request);
    CHECK(spans[1].parent == 0);
    CHECK(spans[0].start_ns >= spans[1].start_ns);
    CHECK(spans[0].end_ns <= spans[1].end_ns);
  }
  perfbench::Tracer off(false);
  {
    perfbench::Span s(&off, "bench.root", nullptr);
    CHECK(s.End() >= 0.0);
  }
  CHECK(off.Spans().empty());
}

}  // namespace

int main() {
  TestPercentiles();
  TestSamplesBeyond();
  TestGeomeanOfGroups();
  TestSelfTime();
  TestSpans();
  if (failures == 0) std::printf("perfbench helpers: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
