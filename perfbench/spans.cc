#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common.h"

namespace perfbench {

uint64_t SpanBuffer::Add(const char* name, double start, double end,
                         uint64_t parent, uint64_t request) {
  const uint64_t id = ++next_id_;
  spans_.push_back({name, start, end, id, parent, request});
  return id;
}

SpanBuffer* SpanLog::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  // Ids are unique across buffers: the buffer index lives in the top bits.
  const uint64_t base = static_cast<uint64_t>(buffers_.size() + 1) << 40;
  buffers_.push_back(std::unique_ptr<SpanBuffer>(new SpanBuffer(base)));
  return buffers_.back().get();
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans().size();
  return n;
}

std::vector<LayerRow> SpanLog::Table() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Span*> all;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans()) all.push_back(&span);
  }
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span* span : all) {
    if (span->parent != 0) children[span->parent].push_back(span);
  }

  struct Acc {
    uint64_t count = 0;
    double busy = 0.0;
    double self = 0.0;
    std::vector<double> durations;
  };
  std::map<std::string, Acc> by_name;
  std::vector<std::pair<double, double>> covered;
  for (const Span* span : all) {
    const double duration = span->end - span->start;
    // Union of the children's intervals, clipped to this span.
    covered.clear();
    auto it = children.find(span->id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        const double lo = std::max(child->start, span->start);
        const double hi = std::min(child->end, span->end);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double child_time = 0.0;
    double run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) child_time += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) child_time += run_hi - run_lo;

    Acc& acc = by_name[span->name];
    ++acc.count;
    acc.busy += duration;
    acc.self += duration - child_time;
    acc.durations.push_back(duration);
  }

  std::vector<LayerRow> rows;
  for (auto& [name, acc] : by_name) {
    rows.push_back({name, acc.count, acc.busy, acc.self,
                    Percentile(std::move(acc.durations), 0.5) * 1e6});
  }
  return rows;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name,start_s,end_s,id,parent,request\n");
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans()) {
      std::fprintf(out, "%s,%.9f,%.9f,%llu,%llu,%llu\n", s.name, s.start,
                   s.end, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(out) == 0;
}

std::string FormatLayerTable(const std::vector<LayerRow>& rows) {
  std::string text;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %10s %12s %12s %12s\n", "span",
                "count", "busy_s", "self_s", "p50_us");
  text += line;
  for (const LayerRow& row : rows) {
    std::snprintf(line, sizeof(line), "%-28s %10llu %12.6f %12.6f %12.3f\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.count),
                  row.busy_seconds, row.self_seconds, row.p50_us);
    text += line;
  }
  return text;
}

}  // namespace perfbench
