// In-memory span log for the traced run. Spans are recorded by the
// benchmark's own code around each call into a libfreshen layer: a name,
// start, end, the span that caused it, and the request it belongs to (all
// spans of one client request share the request id). Nothing is written
// until the run ends; then the log is dumped as CSV and folded into a
// per-layer table of counts, busy time and self time (a span's duration
// minus the part of its interval covered by its children).
#ifndef FRESHEN_PERFBENCH_SPANS_H_
#define FRESHEN_PERFBENCH_SPANS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// Layer-qualified name ("serve.socket"); must be a string literal.
  const char* name = "";
  double start = 0.0;  // NowSeconds()
  double end = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root.
  uint64_t request = 0;  // 0 = not part of a client request.
};

/// Append-only span storage for one thread. Obtained from SpanLog.
class SpanBuffer {
 public:
  /// Records a closed span and returns its id (for children).
  uint64_t Add(const char* name, double start, double end,
               uint64_t parent = 0, uint64_t request = 0);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class SpanLog;
  explicit SpanBuffer(uint64_t id_base) : next_id_(id_base) {}
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// One row of the per-layer table.
struct LayerRow {
  std::string name;
  uint64_t count = 0;
  double busy_seconds = 0.0;
  double self_seconds = 0.0;
  double p50_us = 0.0;
};

class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// A fresh buffer for one thread; owned by the log. Thread-safe.
  SpanBuffer* NewBuffer();

  /// Per-name aggregation over every buffer, sorted by name. Call only
  /// after every writer thread has finished.
  std::vector<LayerRow> Table() const;

  /// Writes every span as CSV (name,start_s,end_s,id,parent,request).
  bool WriteCsv(const std::string& path) const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Prints the table as fixed-width text.
std::string FormatLayerTable(const std::vector<LayerRow>& rows);

}  // namespace perfbench

#endif  // FRESHEN_PERFBENCH_SPANS_H_
