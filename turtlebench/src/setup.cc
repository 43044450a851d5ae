#include "setup.h"

#include <fstream>
#include <utility>

#include "common.h"
#include "util/prng.h"

namespace turtlebench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  return turtle::util::Prng{seed}.fork(k).next_u64();
}

namespace {

BuiltSnapshot build_snapshot(const std::string& work_dir, const SurveyShape& shape,
                             std::uint64_t seed, std::uint64_t version,
                             const turtle::hosts::GeoDatabase& geo, SpanLog& spans,
                             int parent) {
  BuiltSnapshot built;
  const std::string log_path = work_dir + "/survey-v" + std::to_string(version) + ".log";
  built.path = work_dir + "/oracle-v" + std::to_string(version) + ".snap";
  {
    ScopedSpan span{spans, "inputs.synthesize_log", version, parent};
    synthesize_log(log_path, shape, seed);
  }
  turtle::serve::BuilderConfig config;
  config.snapshot.version = version;
  config.geo = &geo;
  config.jobs = 1;
  std::int64_t t0 = now_ns();
  {
    ScopedSpan span{spans, "serve.build", version, parent};
    built.ledger = turtle::serve::build_snapshot_file(log_path, built.path, config);
  }
  std::int64_t t1 = now_ns();
  built.build_s = ns_to_s(t1 - t0);
  std::string error;
  {
    ScopedSpan span{spans, "serve.map", version, parent};
    built.mapped = turtle::serve::OracleSnapshot::map(built.path, &error);
  }
  built.map_ms = ns_to_s(now_ns() - t1) * 1e3;
  std::remove(log_path.c_str());
  if (built.mapped == nullptr) throw std::runtime_error("cannot map " + built.path + ": " + error);
  std::ifstream in{built.path, std::ios::binary | std::ios::ate};
  built.bytes = static_cast<std::uint64_t>(in.tellg());
  return built;
}

}  // namespace

std::unique_ptr<DaemonSetup> set_up_daemon(const Options& options, const SurveyShape& shape,
                                           int versions, const QueryMix& mix,
                                           std::size_t stream_length, SpanLog& spans) {
  const std::int64_t t0 = now_ns();
  ScopedSpan setup_span{spans, "setup"};
  auto setup = std::make_unique<DaemonSetup>();
  const auto geo = make_geo(setup->catalog, shape, derive_seed(options.seed, 1));
  for (int v = 1; v <= versions; ++v) {
    setup->snapshots.push_back(build_snapshot(options.work_dir, shape,
                                              derive_seed(options.seed, 10 + v),
                                              static_cast<std::uint64_t>(v), *geo, spans,
                                              setup_span.index()));
  }
  {
    ScopedSpan span{spans, "inputs.query_stream", 0, setup_span.index()};
    setup->stream = make_query_stream(shape, mix, stream_length, derive_seed(options.seed, 2));
  }
  for (const BuiltSnapshot& built : setup->snapshots) {
    ScopedSpan span{spans, "inputs.expected_answers", built.mapped->version(),
                    setup_span.index()};
    setup->expected.push_back(expected_answers(*built.mapped, setup->stream.pool));
  }
  {
    ScopedSpan span{spans, "daemon.start", 0, setup_span.index()};
    setup->daemon = std::make_unique<DaemonProcess>(options.turtled, setup->snapshots[0].path,
                                                    options.work_dir, "turtled");
  }
  setup->seconds = ns_to_s(now_ns() - t0);
  return setup;
}

std::unique_ptr<DaemonSetup> set_up_daemon_median(const Options& options,
                                                  const SurveyShape& shape, int versions,
                                                  const QueryMix& mix, std::size_t stream_length,
                                                  SpanLog& spans, int repeats, double& setup_s,
                                                  Outcome& outcome) {
  std::vector<double> times;
  std::unique_ptr<DaemonSetup> setup;
  for (int r = 0; r < repeats; ++r) {
    if (setup != nullptr) {
      stop_daemon(*setup, outcome);
      setup.reset();  // unmaps the files before they are rebuilt
    }
    setup = set_up_daemon(options, shape, versions, mix, stream_length, spans);
    times.push_back(setup->seconds);
  }
  setup_s = median(times);
  return setup;
}

turtle::util::JsonValue stop_daemon(DaemonSetup& setup, Outcome& outcome) {
  turtle::util::JsonValue metrics;
  std::string error;
  if (!setup.daemon->quit(metrics, error)) {
    outcome.fail("turtled shutdown: " + error);
    return metrics;
  }
  const double offered = metric_value(metrics, "serve.offered");
  const double closed_sum = metric_value(metrics, "serve.served") +
                            metric_value(metrics, "serve.shed") +
                            metric_value(metrics, "serve.queued");
  if (offered != closed_sum) {
    outcome.fail("serve ledger open: offered " + std::to_string(offered) + " != served+shed+queued " +
                 std::to_string(closed_sum));
  }
  const double accepted = metric_value(metrics, "daemon.conn.accepted");
  const double closed = metric_value(metrics, "daemon.conn.closed");
  if (accepted != closed) {
    outcome.fail("connection ledger open: accepted " + std::to_string(accepted) +
                 " != closed " + std::to_string(closed));
  }
  return metrics;
}

void set_daemon_layers(MetricSet& m, const BuiltSnapshot& snap, const LookupTimes& lookups,
                       const ReplayTimes& replay, const turtle::util::JsonValue& dump,
                       const PhaseUsage& usage) {
  for (const Metric& metric : per_layer_metrics()) m.set(metric.name, 0, metric.unit, 0);
  m.set("serve.build_s", snap.build_s, "s", 1);
  m.set("serve.build_records_per_s",
        static_cast<double>(snap.ledger.records_folded) / snap.build_s, "1/s",
        snap.ledger.records_folded);
  m.set("serve.snapshot_bytes", static_cast<double>(snap.bytes), "bytes", 1);
  m.set("serve.map_ms", snap.map_ms, "ms", 1);
  m.set("serve.lookup_ns.block", lookups.ns[0], "ns", lookups.count[0]);
  m.set("serve.lookup_ns.as", lookups.ns[1], "ns", lookups.count[1]);
  m.set("serve.lookup_ns.global", lookups.ns[2], "ns", lookups.count[2]);
  const double batches = metric_value(dump, "serve.batches");
  m.set("serve.requests_per_batch", batches > 0 ? metric_value(dump, "serve.served") / batches : 0,
        "count", static_cast<std::uint64_t>(batches));
  m.set("serve.shed", metric_value(dump, "serve.shed"), "count", 1);
  m.set("daemon.split_ns", replay.split_ns, "ns", replay.split_ns > 0 ? replay.requests : 0);
  m.set("daemon.parse_ns", replay.parse_ns, "ns", replay.requests);
  m.set("daemon.transport_ns", replay.transport_ns, "ns", replay.requests);
  m.set("daemon.format_ns", replay.format_ns, "ns", replay.requests);
  const double daemon_cpu = usage.daemon_after.cpu_s - usage.daemon_before.cpu_s;
  const double requests = static_cast<double>(usage.requests);
  m.set("daemon.cpu_util", daemon_cpu / usage.wall_s, "cores", 1);
  m.set("daemon.cpu_us_per_req", daemon_cpu * 1e6 / requests, "us", usage.requests);
  m.set("daemon.voluntary_ctxsw_per_req",
        static_cast<double>(usage.daemon_after.voluntary_ctxsw -
                            usage.daemon_before.voluntary_ctxsw) / requests,
        "count", usage.requests);
  m.set("loadgen.cpu_util", (usage.client_after.cpu_s - usage.client_before.cpu_s) / usage.wall_s,
        "cores", 1);
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = [] {
    const char* table[][2] = {
        {"hosts.population_build_s", "s"},  {"hosts.hosts", "count"},
        {"sim.run_s", "s"},                 {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},        {"sim.shard_busy_s.max", "s"},
        {"sim.shard_imbalance", "ratio"},   {"probe.sent", "count"},
        {"probe.matched_frac", "ratio"},    {"probe.timeouts", "count"},
        {"probe.unmatched", "count"},       {"probe.log_write_s", "s"},
        {"analysis.dataset_s", "s"},        {"analysis.pipeline_s", "s"},
        {"analysis.addresses_kept", "count"}, {"serve.build_s", "s"},
        {"serve.build_records_per_s", "1/s"}, {"serve.snapshot_bytes", "bytes"},
        {"serve.map_ms", "ms"},             {"serve.lookup_ns.block", "ns"},
        {"serve.lookup_ns.as", "ns"},       {"serve.lookup_ns.global", "ns"},
        {"serve.requests_per_batch", "count"}, {"serve.shed", "count"},
        {"daemon.split_ns", "ns"},          {"daemon.parse_ns", "ns"},
        {"daemon.transport_ns", "ns"},      {"daemon.format_ns", "ns"},
        {"daemon.cpu_util", "cores"},       {"daemon.cpu_us_per_req", "us"},
        {"daemon.voluntary_ctxsw_per_req", "count"}, {"daemon.swap_ms", "ms"},
        {"loadgen.responses_per_read", "count"}, {"loadgen.batch_rtt_us_p50", "us"},
        {"loadgen.late_us_p99", "us"},      {"loadgen.cpu_util", "cores"},
        {"loadgen.samples", "count"},       {"trace.overhead_frac", "ratio"},
    };
    std::vector<Metric> out;
    for (const auto& row : table) out.push_back(Metric{row[0], 0, row[1], 0});
    return out;
  }();
  return metrics;
}

}  // namespace turtlebench
