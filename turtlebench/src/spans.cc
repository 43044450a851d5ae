#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "common.h"
#include "obs/json.h"

namespace turtlebench {

int SpanLog::open(const char* name, std::uint64_t id, int parent) {
  if (!enabled_) return kNoParent;
  const std::int64_t now = now_ns();
  return add(name, now, now, id, parent);
}

void SpanLog::close(int index) {
  if (index == kNoParent) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

int SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t id, int parent, int tid) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, start_ns, end_ns, parent, id, tid});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  // Children grouped under their parent; a parent's covered time is the
  // union of its children's intervals (shard spans run in parallel).
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, reach);
      end = std::min(end, span.end_ns);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    SelfTime& entry = by_name[span.name];
    entry.name = span.name;
    ++entry.count;
    entry.total_s += ns_to_s(span.end_ns - span.start_ns);
    entry.self_s += ns_to_s(span.end_ns - span.start_ns - covered);
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : by_name) out.push_back(entry);
  return out;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream os{path, std::ios::trunc};
  if (!os.is_open()) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\": " << turtle::obs::json_quote(span.name)
       << ", \"cat\": \"turtlebench\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.tid
       << ", \"ts\": " << turtle::obs::json_fixed(static_cast<double>(span.start_ns - origin) / 1e3, 3)
       << ", \"dur\": " << turtle::obs::json_fixed(static_cast<double>(span.end_ns - span.start_ns) / 1e3, 3)
       << ", \"args\": {\"id\": " << span.id << ", \"parent\": " << span.parent << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return os.good();
}

void SpanLog::print_self_times() const {
  std::printf("# %-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const SelfTime& entry : self_times()) {
    std::printf("# %-28s %8llu %12.6f %12.6f\n", entry.name.c_str(),
                static_cast<unsigned long long>(entry.count), entry.total_s, entry.self_s);
  }
}

}  // namespace turtlebench
