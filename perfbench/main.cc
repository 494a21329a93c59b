// pdtstore's end-to-end benchmark. One process runs one workload over
// TPC-H, SF 0.01 for olap_* and 0.1 for htap_refresh (see README.md for
// why each workload exists and which layer each per-layer metric
// attributes):
//
//   olap_hot          22-query passes at 4 threads, unbounded buffer pool
//   olap_cold_serial  the same passes at 1 thread, 2 MB buffer pool
//   htap_refresh      2 refresh writers beside 2 query readers, with a
//                     maintenance thread propagating and checkpointing
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--sf F] [--out-dir DIR] [--git-sha SHA]
//
// The last line of stdout is one JSON object {correct, attempted,
// failed, metrics}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. The exit code is non-zero when any
// query, refresh group or end-state check failed.
#include <malloc.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/database.h"
#include "exec/pipeline.h"
#include "stats.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_schema.h"
#include "tpch/update_stream.h"
#include "trace.h"
#include "txn/multi_txn.h"
#include "txn/wal.h"
#include "util/file.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using pdtstore::Database;
using pdtstore::DatabaseOptions;
using pdtstore::Status;
using pdtstore::Table;
using pdtstore::TableOptions;
using pdtstore::tpch::GenOptions;
using pdtstore::tpch::QueryResult;
using pdtstore::tpch::RefreshGroup;
using pdtstore::tpch::TpchTables;
using pdtstore::tpch::UpdateStream;

constexpr int kNumQueries = 22;
constexpr size_t kOrdersPerGroup = 4;  // refresh orders per group
// The paper's Fig. 19 update load: 2 refresh streams x 0.1% of orders.
constexpr int kFig19Streams = 2;
constexpr double kFig19Fraction = 0.001;
// Scale factors. At SF 0.1 the olap workloads' timings, even each
// query's fastest run, swung by half between runs minutes apart with the
// load on the shared host. At SF 0.01 each query runs hundreds of times
// per run, so its fastest run is one the host left alone (README.md).
constexpr double kOlapSf = 0.01;
constexpr double kHtapSf = 0.1;
// olap_cold_serial's pool: 16 decoded chunk-columns, a quarter of
// lineitem's 8.6 MB at SF 0.01. A lineitem scan cycles through more than
// the pool holds, so LRU evicts every chunk before its next use.
constexpr size_t kColdPoolBytes = 2u << 20;
// htap_refresh: each writer applies kHtapStreamsPerWriter streams of
// kHtapFraction of the orders each (at SF 0.1 the writers take 20-27 s
// on a 4-vCPU x86 VM).
constexpr int kHtapWriters = 2;
constexpr int kHtapReaders = 2;
constexpr int kHtapStreamsPerWriter = 2;
constexpr double kHtapFraction = 0.08;
constexpr int kMaintenanceIntervalMs = 1000;
constexpr size_t kCheckpointReadEntries = 160000;
const std::vector<int> kHtapQueries = {1, 6, 12, 14};
const double kP99 = 0.99;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

// ----------------------------------------------------------------------
// Command line and result output.
// ----------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double sf = 0;  ///< 0: the workload's own (kOlapSf or kHtapSf)
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--sf") a->sf = std::atof(v.c_str());
    else if (k == "--out-dir") a->out_dir = v;
    else if (k == "--git-sha") a->git_sha = v;
    else return false;
  }
  return (argc % 2) == 1 &&
         (a->workload == "olap_hot" || a->workload == "olap_cold_serial" ||
          a->workload == "htap_refresh") &&
         a->seconds > 0 && a->sf >= 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  ///< 0 where the value is not a statistic of samples
};

// The run's outcome: ops attempted/failed and the metrics it reports.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> meta;

  void Fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  void E2e(const std::string& n, double v, const char* unit, size_t s = 0) {
    end_to_end.push_back({n, v, unit, s});
  }
  void Layer(const std::string& n, double v, const char* unit,
             size_t s = 0) {
    per_layer.push_back({n, v, unit, s});
  }
  void Meta(const std::string& k, const std::string& v) {
    meta.emplace_back(k, v);
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Result& r, bool trace) {
  const std::vector<Metric>& ms = trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : ms) {
    std::printf("  %-34s %14.6g %-8s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%zu", m.samples);
    std::printf("\n");
  }
  std::string meta = "{\"run_meta\":{";
  for (size_t i = 0; i < r.meta.size(); ++i) {
    if (i > 0) meta += ",";
    meta += JsonString(r.meta[i].first) + ":" + JsonString(r.meta[i].second);
  }
  std::printf("%s}}\n", meta.c_str());
  std::string out = "{\"correct\":";
  out += r.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" +
         std::to_string(std::max<uint64_t>(r.attempted, 1));
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(ms[i].name) + ":{\"value\":" + Num(ms[i].value) +
           ",\"unit\":" + JsonString(ms[i].unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

// ----------------------------------------------------------------------
// Process facts: peak RSS of the timed phase, the WAL's file system.
// ----------------------------------------------------------------------

// Restarts the kernel's peak-RSS mark: VmHWM afterwards is the peak of
// what follows.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

std::string FileSystemName(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

// ----------------------------------------------------------------------
// Shared pieces.
// ----------------------------------------------------------------------

// Q11 keeps the top 50 of sums that tie often, and its sort keys do not
// order tied rows: under parallel execution its LIMIT keeps an arbitrary
// subset of the tie group, which exec/pipeline.h allows for a LIMIT
// after parallel stages. Q11 reads no updated table, so no delta code
// can change it; above one thread only its row count is checked.
constexpr int kTieCutQuery = 11;

bool DigestMatches(int q, int threads, const QueryResult& got,
                   const QueryResult& want) {
  if (q == kTieCutQuery && threads > 1) return got.rows == want.rows;
  return got.rows == want.rows &&
         std::abs(got.checksum - want.checksum) <=
             1e-6 * std::max(1.0, std::abs(want.checksum));
}

struct Fixture {
  std::unique_ptr<Database> db;
  TpchTables tables;
};

pdtstore::StatusOr<Fixture> Generate(const GenOptions& gen,
                                     size_t pool_bytes,
                                     pdtstore::DeltaBackend backend) {
  DatabaseOptions dopts;
  dopts.buffer_pool_bytes = pool_bytes;
  Fixture f;
  f.db = std::make_unique<Database>(dopts);
  TableOptions topts;
  topts.backend = backend;
  PDT_ASSIGN_OR_RETURN(f.tables,
                       pdtstore::tpch::GenerateInto(f.db.get(), gen, topts));
  return f;
}

// Set-up repeated `n` times; the last fixture is kept, the median time
// is the setup_s metric.
template <typename SetupFn>
auto RepeatSetup(int n, std::vector<double>* setup_s, SetupFn fn)
    -> decltype(fn()) {
  decltype(fn()) last = Status::Internal("no set-up ran");
  for (int i = 0; i < n; ++i) {
    // Free the previous fixture before timing the next. Each set-up
    // returns freed pages to the OS before its warm-up, so the timed
    // phase neither counts them in its peak RSS nor faults them back in.
    last = Status::Internal("replaced");
    malloc_trim(0);
    const auto t0 = std::chrono::steady_clock::now();
    last = fn();
    setup_s->push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    if (!last.ok()) break;
  }
  return last;
}

std::string QueryMetricName(int q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tpch.q%02d_ms", q);
  return buf;
}

// ----------------------------------------------------------------------
// Layer probes (traced run only, after the timed phase).
// ----------------------------------------------------------------------

size_t DrainRows(pdtstore::BatchSource* src, Status* err) {
  pdtstore::Batch batch;
  size_t rows = 0;
  while (true) {
    auto more = src->Next(&batch, pdtstore::kDefaultBatchSize);
    if (!more.ok()) {
      *err = more.status();
      return rows;
    }
    if (!*more) return rows;
    rows += batch.num_rows();
  }
}

// Median of `reps` timed runs of `fn` (each wrapped in a span).
double MedianMs(Tracer* tracer, const char* name, int reps,
                const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Span s(tracer, name, nullptr);
    fn();
    ms.push_back(s.End());
  }
  return Median(ms);
}

// Decodes every lineitem chunk of every column through FetchChunk after
// DropCaches; returns the decoded bytes and sets `*ms` to the time.
size_t DecodeLineitem(Database* db, const Table& lineitem, Tracer* tracer,
                      Result* r, double* ms) {
  db->DropCaches();
  Span all(tracer, "storage.decode_lineitem", nullptr);
  size_t bytes = 0;
  const pdtstore::ColumnStore& store = lineitem.store();
  for (size_t ci = 0; ci < store.num_chunks(); ++ci) {
    for (size_t c = 0; c < lineitem.schema().num_columns(); ++c) {
      Span s(tracer, "storage.FetchChunk", &all);
      auto v = store.FetchChunk(static_cast<pdtstore::ColumnId>(c), ci);
      if (!v.ok()) {
        r->Fail("FetchChunk: " + v.status().ToString());
        continue;
      }
      bytes += (*v)->ByteSize();
    }
  }
  *ms = all.End();
  return bytes;
}

// The probes after the timed phase; `decoded` bytes of lineitem took
// `decode_ms` to decode (DecodeLineitem, run for the metadata anyway).
void RunProbes(const TpchTables& t, int threads, size_t decoded,
               double decode_ms, Tracer* tracer, Result* r) {
  namespace tp = pdtstore::tpch;
  Table* line = t.lineitem;
  r->Layer("storage.decode_mb_per_s",
           static_cast<double>(decoded) / 1e6 / (decode_ms / 1e3), "MB/s");

  std::vector<pdtstore::ColumnId> all_cols;
  for (size_t c = 0; c < line->schema().num_columns(); ++c) {
    all_cols.push_back(static_cast<pdtstore::ColumnId>(c));
  }
  const double rows = static_cast<double>(line->RowCount());
  Status err = Status::OK();
  auto drain_scan = [&](int scan_threads) {
    pdtstore::ScanOptions so;
    so.num_threads = scan_threads;
    auto src = line->Scan(all_cols, nullptr, so);
    if (DrainRows(src.get(), &err) != line->RowCount() && err.ok()) {
      err = Status::Internal("scan drained a wrong row count");
    }
  };
  drain_scan(1);  // warm
  const double serial_ms =
      MedianMs(tracer, "pdt.Table::Scan", 3, [&] { drain_scan(1); });
  const double parallel_ms = MedianMs(tracer, "exec.Table::Scan_4threads",
                                      3, [&] { drain_scan(4); });
  const double serial_rate = rows / 1e6 / (serial_ms / 1e3);
  const double parallel_rate = rows / 1e6 / (parallel_ms / 1e3);
  r->Layer("pdt.merge_scan_mrows_per_s", serial_rate, "Mrows/s", 3);
  r->Layer("exec.parallel_scan_mrows_per_s", parallel_rate, "Mrows/s", 3);
  r->Layer("exec.scan_scaling", parallel_rate / serial_rate, "ratio");

  pdtstore::ScanOptions so;
  so.num_threads = threads;
  so.ordered = false;
  const double sort_ms = MedianMs(tracer, "exec.IntoSortBuild", 3, [&] {
    pdtstore::Pipeline p(
        line->PlanMorsels({tp::kLShipdate, tp::kLOrderkey}, nullptr, so));
    auto src = std::move(p).IntoSortBuild({{0, false}, {1, false}});
    DrainRows(src.get(), &err);
  });
  const double join_ms = MedianMs(tracer, "exec.IntoJoinBuild", 3, [&] {
    auto p = std::make_unique<pdtstore::Pipeline>(line->PlanMorsels(
        {tp::kLOrderkey, tp::kLExtendedprice}, nullptr, so));
    auto handle = pdtstore::Pipeline::IntoJoinBuild(std::move(p), {0});
    auto built = handle->Resolve();
    if (!built.ok()) err = built.status();
  });
  const double agg_ms = MedianMs(tracer, "exec.Aggregate", 3, [&] {
    pdtstore::Pipeline p(line->PlanMorsels(
        {tp::kLReturnflag, tp::kLLinestatus, tp::kLQuantity,
         tp::kLExtendedprice},
        nullptr, so));
    auto src = std::move(p).Aggregate(
        {0, 1}, {{pdtstore::AggKind::kSum, 2},
                 {pdtstore::AggKind::kSum, 3},
                 {pdtstore::AggKind::kCount, 0}});
    DrainRows(src.get(), &err);
  });
  if (!err.ok()) r->Fail("layer probe: " + err.ToString());
  r->Layer("exec.sort_ms", sort_ms, "ms", 3);
  r->Layer("exec.join_build_ms", join_ms, "ms", 3);
  r->Layer("exec.agg_ms", agg_ms, "ms", 3);
}

// Storage counters of the timed phase, per pass.
void StorageLayerMetrics(const pdtstore::IoStats& io, size_t passes,
                         Result* r) {
  const double n = static_cast<double>(std::max<size_t>(passes, 1));
  r->Layer("storage.bytes_read_per_pass",
           static_cast<double>(io.bytes_read) / n, "bytes", passes);
  r->Layer("storage.chunk_misses_per_pass",
           static_cast<double>(io.chunks_read) / n, "count", passes);
  const double fetches = static_cast<double>(io.hits + io.chunks_read);
  r->Layer("storage.hit_rate",
           fetches == 0 ? 1.0 : static_cast<double>(io.hits) / fetches,
           "frac");
  r->Layer("storage.chunks_skipped_per_pass",
           static_cast<double>(io.chunks_skipped) / n, "count", passes);
}

// Self time per layer over the timed phase's spans, plus the overhead
// estimate from alternating traced and untraced passes.
void TraceLayerMetrics(const std::vector<SpanRecord>& timed_spans,
                       const std::vector<double>& traced_pass_ms,
                       const std::vector<double>& untraced_pass_ms,
                       Result* r) {
  const auto self = SelfTimeByLayerNs(timed_spans);
  for (const char* layer : {"bench", "db", "tpch", "txn"}) {
    auto it = self.find(layer);
    r->Layer(std::string("trace.self_s.") + layer,
             it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e9,
             "s");
  }
  r->Layer("trace.spans", static_cast<double>(timed_spans.size()), "count");
  const double untraced = Median(untraced_pass_ms);
  r->Layer("trace.overhead_frac",
           untraced > 0 ? Median(traced_pass_ms) / untraced - 1.0 : 0.0,
           "frac", traced_pass_ms.size() + untraced_pass_ms.size());
}

// The per-layer metrics a workload does not drive are reported as 0.
void ZeroLayers(const std::vector<std::pair<const char*, const char*>>& ms,
                Result* r) {
  for (const auto& [name, unit] : ms) r->Layer(name, 0.0, unit);
}

const std::vector<std::pair<const char*, const char*>> kTxnLayer = {
    {"txn.commits", "count"},          {"txn.conflict_retry_ratio", "ratio"},
    {"txn.lock_us_per_commit", "us"},  {"txn.records_per_fold", "count"},
    {"txn.syncs_per_commit", "ratio"}, {"txn.wal_bytes_per_row", "bytes"}};
const std::vector<std::pair<const char*, const char*>> kDbLayer = {
    {"db.checkpoints", "count"},       {"db.checkpoint_ms_max", "ms"},
    {"db.propagate_ms_p50", "ms"},     {"db.maintenance_stall_ms_max", "ms"},
    {"db.maintenance_wait_ms_max", "ms"},
    {"db.reader_wait_ms_p99", "ms"},   {"db.writer_wait_ms_p99", "ms"}};
const std::vector<std::pair<const char*, const char*>> kPdtWriteLayer = {
    {"pdt.write_entries_peak", "count"},
    {"pdt.merge_pending_peak", "count"},
    {"pdt.background_merges", "count"}};
const std::vector<std::pair<const char*, const char*>> kWriteLatencyLayer = {
    {"commit_p50_ms", "ms"},
    {"commit_p99_ms", "ms"},
    {"ingest_rows_per_s", "rows/s"}};

// The metrics both kinds of workload compute the same way.
void CommonMetrics(const std::vector<double>& setup_s, double peak_rss_mb,
                   Result* r) {
  r->E2e("setup_s", Median(setup_s), "s", setup_s.size());
  r->E2e("peak_rss_mb", peak_rss_mb, "MB");
  r->E2e("ops_ok_frac",
         1.0 - static_cast<double>(r->failed) /
                   static_cast<double>(std::max<uint64_t>(r->attempted, 1)),
         "frac", r->attempted);
}

// htap_refresh's query latency percentiles, with their sample counts in
// run_meta.
void QueryLatencyMetrics(const std::vector<double>& query_ms, Result* r) {
  r->E2e("query_p50_ms", Percentile(query_ms, 0.5), "ms", query_ms.size());
  r->E2e("query_p99_ms", Percentile(query_ms, kP99), "ms", query_ms.size());
  r->Meta("query_samples",
          "queries=" + std::to_string(query_ms.size()) + " beyond_p99=" +
              std::to_string(SamplesBeyond(query_ms.size(), kP99)));
}

// ----------------------------------------------------------------------
// olap_hot / olap_cold_serial.
// ----------------------------------------------------------------------

int RunOlap(const Args& a, Tracer* tracer, Result* r) {
  const bool hot = a.workload == "olap_hot";
  const int threads = hot ? 4 : 1;
  const size_t pool_bytes = hot ? 0 : kColdPoolBytes;
  GenOptions gen;
  gen.scale_factor = a.sf;
  gen.seed = a.seed;
  auto streams_or = pdtstore::tpch::MakeUpdateStreams(gen, kFig19Streams,
                                                      kFig19Fraction);
  if (!streams_or.ok()) {
    std::fprintf(stderr, "streams: %s\n",
                 streams_or.status().ToString().c_str());
    return 2;
  }
  const std::vector<UpdateStream>& streams = *streams_or;
  auto apply_all = [&](TpchTables* t) -> Status {
    for (const UpdateStream& s : streams) {
      PDT_RETURN_NOT_OK(pdtstore::tpch::ApplyUpdateStream(s, t));
    }
    return Status::OK();
  };

  pdtstore::tpch::QueryOptions qopts;
  qopts.num_threads = threads;

  // Reference digests: a VDT-backed twin of the same data and updates,
  // run serially, built before (and outside) the timed set-up.
  std::vector<QueryResult> ref(kNumQueries + 1);
  {
    auto twin = Generate(gen, 0, pdtstore::DeltaBackend::kVdt);
    Status st = twin.ok() ? apply_all(&twin->tables) : twin.status();
    for (int q = 1; q <= kNumQueries && st.ok(); ++q) {
      auto res = pdtstore::tpch::RunTpchQuery(q, twin->tables);
      if (res.ok()) ref[q] = *res;
      st = res.status();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "reference: %s\n", st.ToString().c_str());
      return 2;
    }
  }

  std::vector<double> setup_s;
  auto fixture = RepeatSetup(kSetups, &setup_s, [&]()
                                 -> pdtstore::StatusOr<Fixture> {
    PDT_ASSIGN_OR_RETURN(
        Fixture f, Generate(gen, pool_bytes, pdtstore::DeltaBackend::kPdt));
    PDT_RETURN_NOT_OK(apply_all(&f.tables));
    malloc_trim(0);  // drop generation garbage before the warm-up
    for (int q = 1; q <= kNumQueries; ++q) {  // warm-up pass
      PDT_RETURN_NOT_OK(
          pdtstore::tpch::RunTpchQuery(q, f.tables, qopts).status());
    }
    return f;
  });
  if (!fixture.ok()) {
    std::fprintf(stderr, "set-up: %s\n",
                 fixture.status().ToString().c_str());
    return 2;
  }
  Database* db = fixture->db.get();
  TpchTables& t = fixture->tables;
  const size_t working_set = db->buffer_pool()->cached_bytes();

  // Timed phase: closed-loop passes of the 22 kernels, each checked.
  ResetPeakRss();
  db->ResetIoStats();
  std::vector<std::vector<double>> per_query(kNumQueries + 1);
  size_t query_runs = 0;
  std::vector<double> pass_ms;
  std::vector<double> traced_pass_ms;
  std::vector<double> untraced_pass_ms;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  while (pass_ms.size() < 3 || elapsed_s() < a.seconds) {
    const bool traced = pass_ms.size() % 2 == 0;
    Span pass(tracer, "bench.olap_pass", nullptr, traced);
    for (int q = 1; q <= kNumQueries; ++q) {
      ++r->attempted;
      Span qs(tracer, "tpch.RunTpchQuery", &pass);
      auto res = pdtstore::tpch::RunTpchQuery(q, t, qopts);
      const double ms = qs.End();
      if (!res.ok()) {
        r->Fail("Q" + std::to_string(q) + ": " + res.status().ToString());
        continue;
      }
      if (!DigestMatches(q, threads, *res, ref[q])) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "Q%d digest rows=%zu checksum=%.17g, reference "
                      "rows=%zu checksum=%.17g", q, res->rows, res->checksum,
                      ref[q].rows, ref[q].checksum);
        r->Fail(buf);
      }
      per_query[q].push_back(ms);
      ++query_runs;
    }
    const double ms = pass.End();
    pass_ms.push_back(ms);
    (traced ? traced_pass_ms : untraced_pass_ms).push_back(ms);
  }
  const double peak_rss = PeakRssMb();
  const pdtstore::IoStats io = db->io_stats();
  const std::vector<SpanRecord> timed_spans = tracer->Spans();

  // Every pass repeats the same serial work on the same data, so the
  // spread between runs of one query is the host's, not the program's:
  // a neighbour on the shared host only ever adds time, and such
  // slowdowns come and go within seconds. The timings therefore rest on
  // each query's fastest run in the timed phase; the latency
  // percentiles are those of a pass made of these runs.
  const std::vector<double> best = GroupMinima(per_query);
  double best_pass_ms = 0;
  for (double ms : best) best_pass_ms += ms;
  CommonMetrics(setup_s, peak_rss, r);
  r->E2e("query_geomean_ms", Geomean(best), "ms", query_runs);
  r->E2e("pass_ms", best_pass_ms, "ms", pass_ms.size());
  r->E2e("query_p50_ms", Percentile(best, 0.5), "ms", query_runs);
  r->E2e("query_p99_ms", Percentile(best, kP99), "ms", query_runs);
  r->Meta("query_samples",
          "runs=" + std::to_string(query_runs) + " passes=" +
              std::to_string(pass_ms.size()) +
              " (timings from each query's fastest run)");

  double decode_ms = 0;
  const size_t lineitem_decoded =
      DecodeLineitem(db, *t.lineitem, tracer, r, &decode_ms);
  r->Meta("pool_cap_bytes", pool_bytes == 0 ? "unbounded"
                                            : std::to_string(pool_bytes));
  r->Meta("lineitem_decoded_bytes", std::to_string(lineitem_decoded));
  r->Meta("working_set_decoded_bytes", std::to_string(working_set));
  r->Meta("query_threads", std::to_string(threads));
  r->Meta("wal_flush_policy", "none (no transactions; the refresh streams "
                              "are applied to the PDT directly during "
                              "set-up)");

  if (a.trace) {
    StorageLayerMetrics(io, pass_ms.size(), r);
    size_t read_entries = 0;
    size_t delta_bytes = 0;
    for (Table* tbl : {t.orders, t.lineitem}) {
      read_entries += tbl->pdt()->EntryCount();
      delta_bytes += tbl->DeltaMemoryBytes();
    }
    r->Layer("pdt.read_entries", static_cast<double>(read_entries), "count");
    r->Layer("pdt.delta_bytes", static_cast<double>(delta_bytes), "bytes");
    ZeroLayers(kPdtWriteLayer, r);
    ZeroLayers(kWriteLatencyLayer, r);
    RunProbes(t, threads, lineitem_decoded, decode_ms, tracer, r);
    for (int q = 1; q <= kNumQueries; ++q) {
      const std::vector<double> fastest = GroupMinima({per_query[q]});
      r->Layer(QueryMetricName(q), fastest.empty() ? 0.0 : fastest[0], "ms",
               per_query[q].size());
    }
    ZeroLayers(kTxnLayer, r);
    ZeroLayers(kDbLayer, r);
    TraceLayerMetrics(timed_spans, traced_pass_ms, untraced_pass_ms, r);
  }
  return 0;
}

// ----------------------------------------------------------------------
// htap_refresh.
// ----------------------------------------------------------------------

// The HTAP gate: writers hold it shared per refresh group, readers per
// query, and the maintenance thread exclusively, so a checkpoint runs at
// a true quiet point. A waiting exclusive acquirer blocks new shared
// ones. (With std::shared_mutex, which prefers readers on glibc, four
// overlapping clients on four cores kept the maintenance thread out for
// whole runs, so checkpoints happened only by chance.)
class Gate {
 public:
  void lock_shared() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return !exclusive_ && exclusive_waiting_ == 0; });
    ++shared_;
  }
  void unlock_shared() {
    std::lock_guard<std::mutex> l(mu_);
    if (--shared_ == 0) cv_.notify_all();
  }
  void lock() {
    std::unique_lock<std::mutex> l(mu_);
    ++exclusive_waiting_;
    cv_.wait(l, [&] { return !exclusive_ && shared_ == 0; });
    --exclusive_waiting_;
    exclusive_ = true;
  }
  void unlock() {
    std::lock_guard<std::mutex> l(mu_);
    exclusive_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t shared_ = 0;             // guarded by mu_
  size_t exclusive_waiting_ = 0;  // guarded by mu_
  bool exclusive_ = false;        // guarded by mu_
};

int RunHtap(const Args& a, Tracer* tracer, Result* r) {
  namespace tp = pdtstore::tpch;
  GenOptions gen;
  gen.scale_factor = a.sf;
  gen.seed = a.seed;
  const int num_streams = kHtapWriters * kHtapStreamsPerWriter;

  std::filesystem::create_directories(a.out_dir);
  const std::string wal_path =
      a.out_dir + "/htap-" + std::to_string(a.seed) + ".wal";

  struct HtapFixture {
    Fixture f;
    std::vector<UpdateStream> streams;
    std::unique_ptr<pdtstore::WalWriter> writer;
  };
  tp::QueryOptions qopts;  // 1 thread per reader query
  std::vector<double> setup_s;
  auto fx = RepeatSetup(kSetups, &setup_s, [&]()
                            -> pdtstore::StatusOr<HtapFixture> {
    HtapFixture h;
    PDT_ASSIGN_OR_RETURN(h.f, Generate(gen, 0, pdtstore::DeltaBackend::kPdt));
    PDT_ASSIGN_OR_RETURN(h.streams,
                         tp::MakeUpdateStreams(gen, num_streams, kHtapFraction));
    PDT_ASSIGN_OR_RETURN(h.writer,
                         pdtstore::WalWriter::Open(
                             pdtstore::FileSystem::Default(), wal_path,
                             /*truncate=*/true));
    malloc_trim(0);  // drop generation garbage before the warm-up
    for (int q : kHtapQueries) {  // warm-up cycle
      PDT_RETURN_NOT_OK(tp::RunTpchQuery(q, h.f.tables, qopts).status());
    }
    return h;
  });
  if (!fx.ok()) {
    std::fprintf(stderr, "set-up: %s\n", fx.status().ToString().c_str());
    return 2;
  }
  Database* db = fx->f.db.get();
  TpchTables& t = fx->f.tables;
  const uint64_t orders_before = t.orders->RowCount();

  pdtstore::Wal wal;
  pdtstore::TxnManagerOptions topts;
  topts.group_commit = true;
  topts.write_pdt_max_entries = 1024;
  topts.merge_chunk_entries = 2048;
  std::vector<double> query_ms_all;
  std::vector<std::vector<double>> per_query(kNumQueries + 1);
  std::vector<double> cycle_ms;
  std::vector<double> traced_cycle_ms;
  std::vector<double> untraced_cycle_ms;
  std::vector<double> commit_ms;
  std::vector<double> reader_wait_ms;
  std::vector<double> writer_wait_ms;
  std::vector<double> propagate_ms;
  double checkpoint_ms_max = 0;
  double stall_ms_max = 0;
  double exclusive_wait_ms_max = 0;
  uint64_t checkpoints = 0;
  size_t read_entries_peak = 0;
  size_t delta_bytes_peak = 0;
  size_t write_peak = 0;
  size_t pending_peak = 0;
  uint64_t groups_ok = 0;  // calls that returned OK
  std::vector<tp::MultiTxnApplyStats> wstats(kHtapWriters);
  double writer_wall_s = 0;
  pdtstore::MultiTxnStats fin;
  std::vector<SpanRecord> timed_spans;
  double peak_rss = 0;
  pdtstore::IoStats io;
  {
    pdtstore::MultiTxnManager mgr({t.orders, t.lineitem}, &wal, topts);
    mgr.SetWalWriter(fx->writer.get());
    tp::MultiTxnApplyOptions aopts;
    aopts.orders_per_txn = kOrdersPerGroup;
    aopts.orders_table = t.orders->name();
    aopts.lineitem_table = t.lineitem->name();

    Gate gate;
    std::mutex mu;  // guards the sample vectors and peaks below
    std::atomic<bool> writers_done{false};
    std::condition_variable done_cv;  // wakes maintenance at the end

    ResetPeakRss();
    db->ResetIoStats();
    const auto start = std::chrono::steady_clock::now();

    std::vector<std::thread> writers;
    for (int w = 0; w < kHtapWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int s = 0; s < kHtapStreamsPerWriter; ++s) {
          const UpdateStream& stream =
              fx->streams[w * kHtapStreamsPerWriter + s];
          for (const RefreshGroup& g :
               tp::PlanRefreshGroups(stream, kOrdersPerGroup)) {
            Span group(tracer, "bench.refresh_group", nullptr);
            Span wait(tracer, "db.gate_wait_shared", &group);
            std::shared_lock<Gate> lock(gate);
            const double waited = wait.End();
            Span apply(tracer, "txn.ApplyRefreshGroupMultiTxn", &group);
            Status st = tp::ApplyRefreshGroupMultiTxn(stream, g, &mgr, aopts,
                                                      &wstats[w]);
            // Commit latency: the call to its durable ack, retries
            // included; the gate wait is reported on its own.
            const double ms = apply.End();
            lock.unlock();
            group.End();
            std::lock_guard<std::mutex> l(mu);
            ++r->attempted;
            if (!st.ok()) {
              r->Fail("refresh group: " + st.ToString());
              continue;
            }
            ++groups_ok;
            commit_ms.push_back(ms);
            writer_wait_ms.push_back(waited);
          }
        }
      });
    }

    std::vector<std::thread> readers;
    for (int rd = 0; rd < kHtapReaders; ++rd) {
      readers.emplace_back([&, rd] {
        for (size_t cycle = 0;
             !writers_done.load(std::memory_order_acquire) || cycle < 2;
             ++cycle) {
          // Alternate traced and untraced cycles (overhead estimate).
          Span cs(tracer, "bench.reader_cycle", nullptr, cycle % 2 == 0);
          for (size_t i = 0; i < kHtapQueries.size(); ++i) {
            const int q = kHtapQueries[(i + rd) % kHtapQueries.size()];
            Span qspan(tracer, "bench.reader_query", &cs);
            Span wait(tracer, "db.gate_wait_shared", &qspan);
            std::shared_lock<Gate> lock(gate);
            const double waited = wait.End();
            Span run(tracer, "tpch.RunTpchQuery", &qspan);
            auto res = tp::RunTpchQuery(q, t, qopts);
            // Query latency excludes the gate wait, as RunHtapScenario's
            // does; the wait is reported on its own.
            const double ms = run.End();
            lock.unlock();
            qspan.End();
            std::lock_guard<std::mutex> l(mu);
            ++r->attempted;
            if (!res.ok()) {
              r->Fail("Q" + std::to_string(q) + ": " +
                      res.status().ToString());
              continue;
            }
            query_ms_all.push_back(ms);
            per_query[q].push_back(ms);
            reader_wait_ms.push_back(waited);
          }
          const double ms = cs.End();
          std::lock_guard<std::mutex> l(mu);
          cycle_ms.push_back(ms);
          (cycle % 2 == 0 ? traced_cycle_ms : untraced_cycle_ms).push_back(ms);
        }
      });
    }

    Status merr = Status::OK();
    std::thread maintenance([&] {
      while (merr.ok()) {
        {
          std::unique_lock<std::mutex> l(mu);
          if (done_cv.wait_for(
                  l, std::chrono::milliseconds(kMaintenanceIntervalMs),
                  [&] { return writers_done.load(); })) {
            break;
          }
        }
        const pdtstore::MultiTxnStats s = mgr.GetStats();
        size_t read_entries = 0;
        for (const auto& ts : s.tables) {
          read_entries += ts.read_pdt_entries;
          write_peak = std::max(write_peak, ts.write_pdt_entries);
          pending_peak = std::max(pending_peak, ts.merge_pending_entries);
        }
        read_entries_peak = std::max(read_entries_peak, read_entries);
        Span cycle(tracer, "bench.maintenance", nullptr);
        Span wait(tracer, "db.gate_wait_exclusive", &cycle);
        std::unique_lock<Gate> lock(gate);
        exclusive_wait_ms_max = std::max(exclusive_wait_ms_max, wait.End());
        Span stall(tracer, "db.maintenance_stall", &cycle);
        delta_bytes_peak = std::max(delta_bytes_peak,
                                    t.orders->DeltaMemoryBytes() +
                                        t.lineitem->DeltaMemoryBytes());
        {
          Span prop(tracer, "txn.PropagateAndMaybeCheckpoint", &stall);
          merr = mgr.PropagateAndMaybeCheckpoint();
          propagate_ms.push_back(prop.End());
        }
        for (Table* tbl : {t.orders, t.lineitem}) {
          if (!merr.ok() ||
              tbl->pdt()->EntryCount() <= kCheckpointReadEntries) {
            continue;
          }
          Span ck(tracer, "db.Table::Checkpoint", &stall);
          merr = tbl->Checkpoint();
          checkpoint_ms_max = std::max(checkpoint_ms_max, ck.End());
          if (merr.ok()) {
            wal.LogCheckpoint(tbl->name());
            ++checkpoints;
          }
        }
        stall_ms_max = std::max(stall_ms_max, stall.End());
      }
    });

    for (auto& th : writers) th.join();
    writer_wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    {
      std::lock_guard<std::mutex> l(mu);
      writers_done.store(true, std::memory_order_release);
    }
    done_cv.notify_all();
    for (auto& th : readers) th.join();
    maintenance.join();
    peak_rss = PeakRssMb();
    io = db->io_stats();
    timed_spans = tracer->Spans();

    // End-state checks, each one attempted op: the drain folds every
    // layer; streams are disjoint with equal insert/delete order loads,
    // so orders returns to its starting row count unless a group was
    // torn or lost.
    ++r->attempted;
    if (!merr.ok()) r->Fail("maintenance: " + merr.ToString());
    ++r->attempted;
    Status st = mgr.PropagateAndMaybeCheckpoint();
    if (!st.ok()) r->Fail("final propagate: " + st.ToString());
    for (Table* tbl : {t.orders, t.lineitem}) {
      ++r->attempted;
      st = tbl->pdt()->CheckInvariants();
      if (!st.ok()) r->Fail(tbl->name() + " invariants: " + st.ToString());
    }
    ++r->attempted;
    if (t.orders->RowCount() != orders_before) {
      r->Fail("orders row count " + std::to_string(t.orders->RowCount()) +
              " != initial " + std::to_string(orders_before));
    }
    fin = mgr.GetStats();
  }

  uint64_t rows = 0;
  uint64_t groups_committed = 0;
  uint64_t retries = 0;
  for (const tp::MultiTxnApplyStats& s : wstats) {
    rows += s.rows_inserted + s.rows_deleted;
    groups_committed += s.groups_committed;
    retries += s.conflict_retries;
  }
  // A group that returned OK without committing found all its deletes
  // already applied, which disjoint streams rule out. Failed calls are
  // counted by their own Fail above.
  ++r->attempted;
  if (groups_committed != groups_ok) {
    r->Fail("committed " + std::to_string(groups_committed) + " of " +
            std::to_string(groups_ok) + " refresh groups that returned OK");
  }

  CommonMetrics(setup_s, peak_rss, r);
  r->E2e("query_geomean_ms", Geomean(GroupMedians(per_query)), "ms",
         query_ms_all.size());
  r->E2e("pass_ms", Median(cycle_ms), "ms", cycle_ms.size());
  QueryLatencyMetrics(query_ms_all, r);

  const uint64_t wal_bytes = std::filesystem::file_size(wal_path);
  std::filesystem::remove(wal_path);
  double decode_ms = 0;
  const size_t lineitem_decoded =
      DecodeLineitem(db, *t.lineitem, tracer, r, &decode_ms);
  r->Meta("pool_cap_bytes", "unbounded");
  r->Meta("lineitem_decoded_bytes", std::to_string(lineitem_decoded));
  r->Meta("query_threads", "1");
  r->Meta("stream_fraction", Num(kHtapFraction));
  r->Meta("commit_samples", std::to_string(commit_ms.size()));
  r->Meta("writer_wall_s", Num(writer_wall_s));
  r->Meta("wal_flush_policy",
          "group commit: each refresh group waits for an fsync of the WAL "
          "file; concurrent committers share one fsync");
  r->Meta("wal_filesystem", FileSystemName(a.out_dir));

  if (a.trace) {
    StorageLayerMetrics(io, cycle_ms.size(), r);
    r->Layer("pdt.read_entries", static_cast<double>(read_entries_peak),
             "count");
    r->Layer("pdt.delta_bytes", static_cast<double>(delta_bytes_peak),
             "bytes");
    uint64_t merges = 0;
    for (const auto& ts : fin.tables) merges += ts.background_merges;
    r->Layer("pdt.write_entries_peak", static_cast<double>(write_peak),
             "count");
    r->Layer("pdt.merge_pending_peak", static_cast<double>(pending_peak),
             "count");
    r->Layer("pdt.background_merges", static_cast<double>(merges), "count");
    // The write path: one commit is a refresh group from its call to its
    // durable ack, retries included; ingest is rows over writer wall time.
    r->Layer("commit_p50_ms", Percentile(commit_ms, 0.5), "ms",
             commit_ms.size());
    r->Layer("commit_p99_ms", Percentile(commit_ms, kP99), "ms",
             commit_ms.size());
    r->Layer("ingest_rows_per_s", static_cast<double>(rows) / writer_wall_s,
             "rows/s", commit_ms.size());
    RunProbes(t, 1, lineitem_decoded, decode_ms, tracer, r);
    for (int q = 1; q <= kNumQueries; ++q) {
      r->Layer(QueryMetricName(q), Median(per_query[q]), "ms",
               per_query[q].size());
    }
    const double committed =
        static_cast<double>(std::max<uint64_t>(fin.committed, 1));
    r->Layer("txn.commits", static_cast<double>(fin.committed), "count");
    r->Layer("txn.conflict_retry_ratio",
             static_cast<double>(retries) /
                 static_cast<double>(std::max<uint64_t>(groups_committed, 1)),
             "ratio");
    r->Layer("txn.lock_us_per_commit",
             static_cast<double>(fin.commit_lock_ns) / 1e3 / committed, "us");
    r->Layer("txn.records_per_fold",
             static_cast<double>(fin.folded_records) /
                 static_cast<double>(std::max<uint64_t>(fin.fold_batches, 1)),
             "count");
    r->Layer("txn.syncs_per_commit",
             static_cast<double>(fin.wal_syncs) / committed, "ratio");
    r->Layer("txn.wal_bytes_per_row",
             static_cast<double>(wal_bytes) /
                 static_cast<double>(std::max<uint64_t>(rows, 1)),
             "bytes");
    r->Layer("db.checkpoints", static_cast<double>(checkpoints), "count");
    r->Layer("db.checkpoint_ms_max", checkpoint_ms_max, "ms");
    r->Layer("db.propagate_ms_p50", Median(propagate_ms), "ms",
             propagate_ms.size());
    r->Layer("db.maintenance_stall_ms_max", stall_ms_max, "ms");
    r->Layer("db.maintenance_wait_ms_max", exclusive_wait_ms_max, "ms");
    r->Layer("db.reader_wait_ms_p99", Percentile(reader_wait_ms, kP99), "ms",
             reader_wait_ms.size());
    r->Layer("db.writer_wait_ms_p99", Percentile(writer_wait_ms, kP99), "ms",
             writer_wait_ms.size());
    TraceLayerMetrics(timed_spans, traced_cycle_ms, untraced_cycle_ms, r);
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload olap_hot|olap_cold_serial|"
                 "htap_refresh --seed N --seconds S --trace 0|1 [--sf F] "
                 "[--out-dir DIR] [--git-sha SHA]\n");
    return 2;
  }
  if (a.sf == 0) a.sf = a.workload == "htap_refresh" ? kHtapSf : kOlapSf;
  Tracer tracer(a.trace);
  Result r;
  r.Meta("workload", a.workload);
  r.Meta("seed", std::to_string(a.seed));
  r.Meta("sf", Num(a.sf));
  r.Meta("seconds", Num(a.seconds));
  r.Meta("hardware_threads",
         std::to_string(pdtstore::ThreadPool::DefaultThreads()));
  r.Meta("build_type", PERFBENCH_BUILD_TYPE);
  r.Meta("git_sha", a.git_sha);
  const int rc = a.workload == "htap_refresh" ? RunHtap(a, &tracer, &r)
                                              : RunOlap(a, &tracer, &r);
  if (rc != 0) return rc;
  if (a.trace) {
    std::filesystem::create_directories(a.out_dir);
    const std::string path = a.out_dir + "/trace-" + a.workload + "-" +
                             std::to_string(a.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(path)) r.Fail("writing " + path);
    r.Meta("trace_file", path);
  }
  PrintResult(r, a.trace);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
