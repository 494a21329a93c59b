#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children's intervals, clipped to their parent's.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const SpanRecord& s : spans) {
    auto it = index_of.find(s.parent);
    if (s.parent == 0 || it == index_of.end()) continue;
    const SpanRecord& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByLayerNs(
    const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, int64_t> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::string name = spans[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : Spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

Span::Span(Tracer* tracer, const char* name, const Span* parent,
           bool traced)
    : tracer_(tracer),
      record_(tracer->enabled() &&
              (parent == nullptr ? traced : parent->record_)) {
  rec_.name = name;
  rec_.id = tracer->NextId();
  rec_.parent = parent == nullptr ? 0 : parent->rec_.id;
  rec_.request = parent == nullptr ? rec_.id : parent->rec_.request;
  rec_.start_ns = tracer->NowNs();
}

double Span::End() {
  if (!ended_) {
    rec_.end_ns = tracer_->NowNs();
    ended_ = true;
    if (record_) tracer_->Record(rec_);
  }
  return static_cast<double>(rec_.end_ns - rec_.start_ns) / 1e6;
}

}  // namespace perfbench
