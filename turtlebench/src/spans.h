// In-memory spans recorded by the benchmark around its calls into each
// layer of the program. Written at exit as Chrome trace-event JSON (the
// format obs::TraceSink writes, so scripts/trace_open.sh opens it), and
// summarised as per-name self time: a span's duration minus the part of
// it that its child spans cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace turtlebench {

class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = kNoParent;
    std::uint64_t id = 0;  ///< request or batch id; shared by related spans
    int tid = 0;           ///< track (shard index for parallel work)
  };

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };

  explicit SpanLog(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index (kNoParent when disabled).
  int open(const char* name, std::uint64_t id = 0, int parent = kNoParent);
  void close(int index);
  /// Records a span measured elsewhere (e.g. on a worker thread).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::uint64_t id = 0,
          int parent = kNoParent, int tid = 0);

  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Writes Chrome trace-event JSON; returns false on I/O failure.
  bool write_chrome(const std::string& path) const;
  /// Prints the self-time table as `# span ...` lines.
  void print_self_times() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t id = 0,
             int parent = SpanLog::kNoParent)
      : log_{log}, index_{log.open(name, id, parent)} {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace turtlebench
