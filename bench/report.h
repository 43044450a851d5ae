// JSON performance reporting for the bench binaries.
//
// Every bench accepts --json-out=PATH and, when it is given, writes one
// JSON object describing the run: wall time, peak RSS, shard concurrency,
// simulator event totals, and derived rates (events/sec, probes simulated
// per second). The event total is the merged registry's
// "sim.events_processed": every bench wires its simulators to the
// report's registry, so no bench sums events by hand.
// scripts/bench_report.sh runs the suite and merges the objects into a
// top-level BENCH_results.json so performance is comparable across PRs
// instead of anecdotal.
//
// Every bench also accepts --metrics-out=PATH (the deterministic
// obs::Registry dump, byte-identical across --jobs values) and
// --trace-out=PATH (a Chrome trace-event file of sim-time spans, loadable
// in Perfetto / chrome://tracing). The report owns the merged sinks:
// serial benches point their World at registry()/trace_sink(), sharded
// benches point ShardOptions at them and the runner merges per-shard
// sinks in shard order.
//
// The emitter is deliberately tiny — flat keys, doubles and integers
// only — so the output stays diffable and parseable without a JSON
// library on either side.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flags.h"

namespace turtle::bench {

/// Peak resident set size of this process in bytes (ru_maxrss scaled).
[[nodiscard]] std::int64_t peak_rss_bytes();

/// Collects metrics for one bench run; writes them on finish() (or
/// destruction) to the --json-out path, if one was given. Wall time is
/// measured from construction to finish(), so construct this first thing
/// in main().
class JsonReport {
 public:
  /// `name` should match the binary, e.g. "fig09_survey_timeline".
  JsonReport(const util::Flags& flags, std::string name);
  ~JsonReport();

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  /// Shard concurrency the bench ran with (1 for serial benches).
  void set_jobs(int jobs) { jobs_ = jobs; }

  /// Accumulates probes sent across the bench's probers; probes_per_sec
  /// (and events_per_sec, from the registry) are derived at finish().
  void add_probes(std::uint64_t probes) { probes_ += probes; }

  /// Extra bench-specific metrics (e.g. "speedup_vs_serial").
  void set_metric(const std::string& key, double value);
  void set_metric(const std::string& key, std::int64_t value);

  /// The merged deterministic metrics registry. Point Worlds (serial) or
  /// ShardOptions::metrics (sharded) here; the dump is written to
  /// --metrics-out and embedded in the --json-out object at finish().
  /// The report outlives every World constructed after it, so Simulator
  /// destructors may still write through this pointer.
  [[nodiscard]] obs::Registry& registry() { return registry_; }

  /// The merged trace sink, or nullptr when --trace-out was not given —
  /// pass directly to World/ShardOptions trace pointers.
  [[nodiscard]] obs::TraceSink* trace_sink() {
    return trace_path_.empty() ? nullptr : &trace_;
  }

  /// Writes the JSON object (if --json-out was given) plus the
  /// --metrics-out and --trace-out files. Idempotent; also invoked by the
  /// destructor so early returns still report.
  void finish();

 private:
  std::string name_;
  std::string path_;          // empty: --json-out reporting disabled
  std::string metrics_path_;  // empty: no standalone metrics dump
  std::string trace_path_;    // empty: tracing disabled
  double start_seconds_;
  int jobs_ = 1;
  std::uint64_t probes_ = 0;
  std::vector<std::pair<std::string, std::string>> extra_;  // key -> rendered value
  obs::Registry registry_;
  obs::TraceSink trace_;
  bool finished_ = false;
};

}  // namespace turtle::bench
