#include "report.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/json.h"
#include "util/check.h"

namespace turtle::bench {

namespace {

double monotonic_seconds() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

}  // namespace

std::int64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
}

JsonReport::JsonReport(const util::Flags& flags, std::string name)
    : name_{std::move(name)},
      path_{flags.get_string("json-out", "")},
      metrics_path_{flags.get_string("metrics-out", "")},
      trace_path_{flags.get_string("trace-out", "")},
      start_seconds_{monotonic_seconds()} {}

JsonReport::~JsonReport() { finish(); }

void JsonReport::set_metric(const std::string& key, double value) {
  extra_.emplace_back(key, obs::json_fixed(value));
}

void JsonReport::set_metric(const std::string& key, std::int64_t value) {
  extra_.emplace_back(key, std::to_string(value));
}

void JsonReport::finish() {
  if (finished_) return;
  finished_ = true;

  // Standalone deterministic dump: wall-clock ("wall.*") metrics are
  // excluded so the file is byte-identical across --jobs values and
  // machines. scripts compare these with cmp(1).
  if (!metrics_path_.empty()) {
    std::ofstream out{metrics_path_};
    TURTLE_CHECK(out.good()) << "cannot open --metrics-out path " << metrics_path_;
    registry_.write_json(out, /*include_wall_clock=*/false);
    TURTLE_CHECK(out.good()) << "write to --metrics-out path " << metrics_path_
                             << " failed";
    std::fprintf(stderr, "# metrics: %s\n", metrics_path_.c_str());
  }

  if (!trace_path_.empty()) {
    std::ofstream out{trace_path_};
    TURTLE_CHECK(out.good()) << "cannot open --trace-out path " << trace_path_;
    trace_.write_chrome_json(out);
    TURTLE_CHECK(out.good()) << "write to --trace-out path " << trace_path_ << " failed";
    std::fprintf(stderr, "# trace: %s (%zu events)\n", trace_path_.c_str(),
                 trace_.size());
  }

  if (path_.empty()) return;

  const double wall_s = monotonic_seconds() - start_seconds_;
  // Read, not created: a bench that ran no simulator reports 0 events
  // without adding a series to the embedded metrics.
  const auto events_it = registry_.counters().find("sim.events_processed");
  const std::uint64_t events =
      events_it == registry_.counters().end() ? 0 : events_it->second.value();
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": " << obs::json_quote(name_) << ",\n";
  os << "  \"jobs\": " << jobs_ << ",\n";
  os << "  \"wall_s\": " << obs::json_fixed(wall_s) << ",\n";
  os << "  \"peak_rss_bytes\": " << peak_rss_bytes() << ",\n";
  os << "  \"events\": " << events << ",\n";
  os << "  \"events_per_sec\": "
     << obs::json_fixed(wall_s > 0 ? static_cast<double>(events) / wall_s : 0)
     << ",\n";
  os << "  \"probes\": " << probes_ << ",\n";
  os << "  \"probes_per_sec\": "
     << obs::json_fixed(wall_s > 0 ? static_cast<double>(probes_) / wall_s : 0);
  for (const auto& [key, rendered] : extra_) {
    os << ",\n  " << obs::json_quote(key) << ": " << rendered;
  }
  // The performance report keeps the wall-clock metrics: it is already
  // machine-specific (wall_s, RSS), so "wall.pool.*" belongs here.
  os << ",\n  \"metrics\": "
     << registry_.to_json(/*include_wall_clock=*/true);
  os << "\n}\n";

  std::ofstream out{path_};
  TURTLE_CHECK(out.good()) << "cannot open --json-out path " << path_;
  out << os.str();
  TURTLE_CHECK(out.good()) << "write to --json-out path " << path_ << " failed";
  std::fprintf(stderr, "# json report: %s\n", path_.c_str());
}

}  // namespace turtle::bench
