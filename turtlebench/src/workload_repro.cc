// repro_survey: the researchers' path, in-process, as bench/harness.h
// runs it — build the world and its host population, run the survey
// through sim::ShardRunner, group and filter it (Table 1, Table 2), save
// the log, build the snapshot file, map it, and query it. Touches hosts,
// sim, probe, analysis and serve's build side; never the daemon.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "analysis/percentiles.h"
#include "analysis/pipeline.h"
#include "core/recommendations.h"
#include "daemon/proto.h"
#include "harness.h"
#include "inputs.h"
#include "probe/records.h"
#include "replay.h"
#include "serve/snapshot_builder.h"
#include "setup.h"
#include "sim/shard_runner.h"
#include "util/stats.h"
#include "workloads.h"

namespace turtlebench {

namespace {

namespace bench = turtle::bench;
using turtle::hosts::AsCatalog;

/// A fixed shard count, so output bytes never depend on the jobs count.
constexpr int kShards = 4;
constexpr int kBlocksPerShard = 64;
constexpr int kRounds = 20;
constexpr std::size_t kQueries = 100'000;

struct Iteration {
  double setup_s = 0;  ///< world + population build
  double wall_s = 0;   ///< simulate -> analyse -> snapshot
  std::uint64_t hosts = 0;
  double sim_s = 0;
  std::uint64_t events = 0;
  double shard_busy_max_s = 0;
  double shard_busy_mean_s = 0;
  std::uint64_t sent = 0;
  std::uint64_t matched = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t unmatched = 0;
  double log_write_s = 0;
  double dataset_s = 0;
  double pipeline_s = 0;
  std::uint64_t addresses_kept = 0;
  turtle::serve::BuildLedger ledger;
  double build_s = 0;
  std::uint64_t snapshot_bytes = 0;
  double map_ms = 0;
  // Queries against the reproduced snapshot.
  std::vector<double> lookup_us;
  std::uint64_t lookups_ok = 0;
  std::uint64_t lookups_failed = 0;
  double lookup_s = 0;
  LookupTimes lookup_ns;
};

struct ShardOut {
  turtle::probe::RecordLog log;
  std::uint64_t events = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t sent = 0;
  std::uint64_t matched = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t unmatched = 0;
};

std::uint64_t counter(turtle::obs::Registry& registry, const char* name) {
  return registry.counter(name).value();
}

Iteration run_once(const Options& options, SpanLog& spans, Outcome& outcome) {
  Iteration it;
  const int root = spans.open("repro.iteration");

  // 1. Set-up: worlds and host populations, one per shard.
  std::int64_t t0 = now_ns();
  std::vector<std::unique_ptr<bench::World>> worlds;
  for (int s = 0; s < kShards; ++s) {
    ScopedSpan span{spans, "hosts.population_build", static_cast<std::uint64_t>(s), root};
    bench::WorldOptions world;
    world.num_blocks = kBlocksPerShard;
    world.seed = derive_seed(options.seed, 100 + static_cast<std::uint64_t>(s));
    world.population.base_network =
        (10u << 16) + static_cast<std::uint32_t>(s * kBlocksPerShard);
    worlds.push_back(bench::make_world(world));
    it.hosts += worlds.back()->population->stats().hosts;
  }
  std::int64_t t1 = now_ns();
  it.setup_s = ns_to_s(t1 - t0);

  // 2. The survey, sharded.
  const std::int64_t run_start = t1;
  const int run_span = spans.open("repro.run", 0, root);
  const int sim_span = spans.open("sim.run", 0, run_span);
  turtle::sim::ShardOptions shard_options;
  shard_options.jobs = static_cast<int>(std::min<long>(kShards, sysconf(_SC_NPROCESSORS_ONLN)));
  shard_options.seed = options.seed;
  turtle::sim::ShardRunner runner{shard_options};
  std::vector<ShardOut> shards =
      runner.run(kShards, [&worlds](turtle::sim::ShardContext& ctx) {
        bench::World& world = *worlds[ctx.shard_index];
        ShardOut out;
        out.start_ns = now_ns();
        const turtle::probe::SurveyProber prober = bench::run_survey(world, kRounds);
        out.end_ns = now_ns();
        out.log = prober.log();
        out.events = world.sim.events_processed();
        out.sent = counter(*world.registry, "survey.probes_sent");
        out.matched = counter(*world.registry, "survey.matched");
        out.timeouts = counter(*world.registry, "survey.timeouts");
        out.unmatched = counter(*world.registry, "survey.unmatched_packets");
        return out;
      });
  spans.close(sim_span);
  std::int64_t t2 = now_ns();
  it.sim_s = ns_to_s(t2 - t1);
  turtle::probe::RecordLog merged;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    ShardOut& out = shards[s];
    spans.add("sim.shard", out.start_ns, out.end_ns, s, sim_span, static_cast<int>(s) + 1);
    const double busy = ns_to_s(out.end_ns - out.start_ns);
    it.shard_busy_max_s = std::max(it.shard_busy_max_s, busy);
    it.shard_busy_mean_s += busy / kShards;
    it.events += out.events;
    it.sent += out.sent;
    it.matched += out.matched;
    it.timeouts += out.timeouts;
    it.unmatched += out.unmatched;
    for (std::size_t r = 0; r < out.log.size(); ++r) merged.append(out.log.at(r));
    out.log = turtle::probe::RecordLog{};  // one copy of the records at a time
  }

  // 3. Analysis: Table 1 through the pipeline counters, Table 2.
  turtle::obs::Registry registry;
  turtle::analysis::PipelineResult result;
  t0 = now_ns();
  const int dataset_span = spans.open("analysis.dataset", 0, run_span);
  auto dataset = turtle::analysis::SurveyDataset::from_log(merged);
  spans.close(dataset_span);
  t1 = now_ns();
  it.dataset_s = ns_to_s(t1 - t0);
  {
    ScopedSpan span{spans, "analysis.pipeline", 0, run_span};
    turtle::analysis::PipelineConfig config;
    config.registry = &registry;
    result = turtle::analysis::run_pipeline(dataset, config);
  }
  t2 = now_ns();
  it.pipeline_s = ns_to_s(t2 - t1);
  it.addresses_kept = result.addresses.size();
  const auto& c = result.counters;
  const std::pair<const char*, std::uint64_t> table1[] = {
      {"pipeline.survey_detected.packets", c.survey_detected_packets},
      {"pipeline.survey_detected.addresses", c.survey_detected_addresses},
      {"pipeline.naive.packets", c.naive_packets},
      {"pipeline.naive.addresses", c.naive_addresses},
      {"pipeline.broadcast.packets", c.broadcast_packets},
      {"pipeline.broadcast.addresses", c.broadcast_addresses},
      {"pipeline.duplicate.packets", c.duplicate_packets},
      {"pipeline.duplicate.addresses", c.duplicate_addresses},
      {"pipeline.combined.packets", c.combined_packets},
      {"pipeline.combined.addresses", c.combined_addresses}};
  for (const auto& [name, value] : table1) {
    if (counter(registry, name) != value) {
      outcome.fail(std::string{"Table 1 row "} + name + " disagrees with its counter");
    }
  }
  const auto per_address = turtle::analysis::PerAddressPercentiles::compute(
      result.addresses, turtle::util::kPaperPercentiles, /*min_samples=*/10);
  const auto matrix = turtle::analysis::TimeoutMatrix::compute(
      per_address, turtle::util::kPaperPercentiles);

  // 4. Save the log, build the snapshot file, map it.
  const std::string log_path = options.work_dir + "/repro.log";
  const std::string snap_path = options.work_dir + "/repro.snap";
  t0 = now_ns();
  {
    ScopedSpan span{spans, "probe.log_write", 0, run_span};
    std::ofstream os{log_path, std::ios::binary | std::ios::trunc};
    turtle::probe::RecordWriter writer{os};
    for (std::size_t r = 0; r < merged.size(); ++r) writer.append(merged.at(r));
    writer.finish();
  }
  t1 = now_ns();
  it.log_write_s = ns_to_s(t1 - t0);
  AsCatalog catalog = AsCatalog::standard();
  turtle::hosts::GeoDatabase geo{&catalog};
  for (const auto& world : worlds) {
    // The world's GeoDatabase answers with a pointer into its own catalog,
    // a copy of the standard one: the offset is the AS index.
    const AsCatalog& own = world->catalog;
    for (const auto prefix : world->population->blocks()) {
      if (const auto* traits = world->population->geo().lookup(prefix.address(1))) {
        geo.add_block(prefix, static_cast<std::uint32_t>(traits - &own[0]));
      }
    }
  }
  turtle::serve::BuilderConfig config;
  config.geo = &geo;
  config.jobs = static_cast<std::size_t>(shard_options.jobs);
  {
    ScopedSpan span{spans, "serve.build", 0, run_span};
    it.ledger = turtle::serve::build_snapshot_file(log_path, snap_path, config);
  }
  t2 = now_ns();
  it.build_s = ns_to_s(t2 - t1);
  std::string error;
  std::shared_ptr<const turtle::serve::OracleSnapshot> snapshot;
  {
    ScopedSpan span{spans, "serve.map", 0, run_span};
    snapshot = turtle::serve::OracleSnapshot::map(snap_path, &error);
  }
  const std::int64_t t3 = now_ns();
  it.map_ms = ns_to_s(t3 - t2) * 1e3;
  spans.close(run_span);
  it.wall_s = ns_to_s(t3 - run_start);
  {
    std::ifstream in{snap_path, std::ios::binary | std::ios::ate};
    it.snapshot_bytes = static_cast<std::uint64_t>(in.tellg());
  }
  std::remove(log_path.c_str());
  if (snapshot == nullptr) {
    outcome.fail("cannot map the reproduced snapshot: " + error);
    spans.close(root);
    return it;
  }

  // 5. Query the reproduced oracle. Global answers must equal the offline
  //    recommendation on this run's Table 2 matrix; every answer must come
  //    from this snapshot at the requested scope or a coarser one.
  const SurveyShape shape{kShards * kBlocksPerShard, 4, kRounds};
  const QueryStream stream =
      make_query_stream(shape, QueryMix{1.0 / 3, 1.0 / 3, true, 0}, kQueries,
                        derive_seed(options.seed, 4));
  std::vector<turtle::serve::Request> requests;
  for (const std::string& line : stream.pool) {
    turtle::daemon::proto::ParseError parse_error{};
    requests.push_back(turtle::daemon::proto::parse_request(line, parse_error)->query);
  }
  // The worker threads are gone; time the lookups on one fixed core.
  const ScopedCpuPin pin{0};
  const int query_span = spans.open("serve.lookup", 0, root);
  it.lookup_us.reserve(stream.order.size());
  const std::int64_t q0 = now_ns();
  for (const std::uint32_t index : stream.order) {
    const turtle::serve::Request& q = requests[index];
    const std::int64_t s0 = now_ns();
    const auto answer = snapshot->lookup(q.addr, q.addr_coverage, q.ping_coverage, q.min_scope);
    it.lookup_us.push_back(static_cast<double>(now_ns() - s0) / 1e3);
    bool ok = answer.version == 1 && answer.scope >= q.min_scope && answer.timeout.as_micros() > 0;
    if (answer.scope == turtle::serve::LookupScope::kGlobal) {
      ok = ok && answer.timeout ==
                     turtle::core::recommend_timeout(matrix, q.addr_coverage, q.ping_coverage);
    }
    ok ? ++it.lookups_ok : ++it.lookups_failed;
  }
  it.lookup_s = ns_to_s(now_ns() - q0);
  spans.close(query_span);
  if (spans.enabled()) it.lookup_ns = time_lookups(*snapshot, stream.pool, stream.order, 0.05);
  spans.close(root);
  if (it.lookups_failed > 0) {
    outcome.fail(std::to_string(it.lookups_failed) + " lookups disagree with the reproduction");
  }
  return it;
}

}  // namespace

Outcome run_repro_survey(const Options& options, SpanLog& spans) {
  Outcome outcome;
  MetricSet& m = outcome.metrics;
  SpanLog off{false};
  // Repeat the whole reproduction while time remains (at least three
  // times); report medians. A traced run spends half its time untraced.
  std::vector<Iteration> runs;
  std::vector<Iteration> traced;
  const std::int64_t start = now_ns();
  const auto elapsed = [&] { return ns_to_s(now_ns() - start); };
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  while (runs.size() < 3 || elapsed() < untraced_s) runs.push_back(run_once(options, off, outcome));
  if (options.trace) {
    while (traced.size() < 3 || elapsed() < options.seconds) {
      traced.push_back(run_once(options, spans, outcome));
    }
  }
  const auto med = [&runs](auto field) {
    std::vector<double> values;
    for (const Iteration& it : runs) values.push_back(static_cast<double>(it.*field));
    return median(values);
  };
  const auto reps = static_cast<std::uint64_t>(runs.size());

  std::vector<double> latency;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double lookup_s = 0;
  for (const auto* set : {&runs, &traced}) {
    for (const Iteration& it : *set) {
      ok += it.lookups_ok;
      failed += it.lookups_failed;
    }
  }
  for (const Iteration& it : runs) {
    latency.insert(latency.end(), it.lookup_us.begin(), it.lookup_us.end());
    lookup_s += it.lookup_s;
  }
  outcome.attempted = ok + failed;
  outcome.failed = failed;
  const ProcSample self = read_proc(0);
  // Determinism guard: the probe counters repeat exactly for one seed.
  for (const auto* set : {&runs, &traced}) {
    for (const Iteration& it : *set) {
      if (it.sent != runs[0].sent || it.matched != runs[0].matched ||
          it.timeouts != runs[0].timeouts || it.unmatched != runs[0].unmatched) {
        outcome.fail("probe counters differ between repetitions of one seed");
      }
    }
  }

  if (!options.trace) {
    std::uint64_t runs_ok = 0;
    for (const Iteration& it : runs) runs_ok += it.lookups_ok;
    std::uint64_t fast = 0;
    for (const double us : latency) fast += us <= kSloP99Us ? 1 : 0;
    const std::uint64_t n = latency.size();
    m.set("setup_s", med(&Iteration::setup_s), "s", reps);
    m.set("qps", static_cast<double>(runs_ok) / lookup_s, "1/s", runs_ok);
    m.set("max_qps_at_slo", static_cast<double>(fast) / lookup_s, "1/s", fast);
    // Each percentile is the median over passes of that pass's percentile
    // (100,000 lookups each), so one pass on a noisy host does not decide it.
    const auto pass_median = [&runs](double p) {
      std::vector<double> values;
      for (Iteration& it : runs) values.push_back(percentile(it.lookup_us, p));
      return median(values);
    };
    m.set("latency_p50_us", pass_median(50), "us", n);
    m.set("latency_p99_us", pass_median(99), "us", n);
    m.set("latency_p999_us", pass_median(99.9), "us", n);
    m.set("ok_frac", static_cast<double>(ok) / static_cast<double>(ok + failed), "ratio",
          ok + failed);
    m.set("peak_rss_mb", self.hwm_mb, "MiB", 1);
    m.set("wall_s", med(&Iteration::wall_s), "s", reps);
    return outcome;
  }

  const Iteration& last = traced.back();
  std::vector<double> traced_wall;
  for (const Iteration& it : traced) traced_wall.push_back(it.wall_s);
  const double wall = med(&Iteration::wall_s);
  for (const Metric& metric : per_layer_metrics()) m.set(metric.name, 0, metric.unit, 0);
  m.set("hosts.population_build_s", med(&Iteration::setup_s), "s", reps);
  m.set("hosts.hosts", static_cast<double>(last.hosts), "count", 1);
  m.set("sim.run_s", med(&Iteration::sim_s), "s", reps);
  m.set("sim.events", static_cast<double>(last.events), "count", 1);
  m.set("sim.events_per_s", static_cast<double>(last.events) / med(&Iteration::sim_s), "1/s",
        reps);
  m.set("sim.shard_busy_s.max", med(&Iteration::shard_busy_max_s), "s", reps);
  m.set("sim.shard_imbalance", med(&Iteration::shard_busy_max_s) / med(&Iteration::shard_busy_mean_s),
        "ratio", reps);
  m.set("probe.sent", static_cast<double>(last.sent), "count", 1);
  m.set("probe.matched_frac", static_cast<double>(last.matched) / static_cast<double>(last.sent),
        "ratio", last.sent);
  m.set("probe.timeouts", static_cast<double>(last.timeouts), "count", 1);
  m.set("probe.unmatched", static_cast<double>(last.unmatched), "count", 1);
  m.set("probe.log_write_s", med(&Iteration::log_write_s), "s", reps);
  m.set("analysis.dataset_s", med(&Iteration::dataset_s), "s", reps);
  m.set("analysis.pipeline_s", med(&Iteration::pipeline_s), "s", reps);
  m.set("analysis.addresses_kept", static_cast<double>(last.addresses_kept), "count", 1);
  m.set("serve.build_s", med(&Iteration::build_s), "s", reps);
  m.set("serve.build_records_per_s",
        static_cast<double>(last.ledger.records_folded) / med(&Iteration::build_s), "1/s", reps);
  m.set("serve.snapshot_bytes", static_cast<double>(last.snapshot_bytes), "bytes", 1);
  m.set("serve.map_ms", med(&Iteration::map_ms), "ms", reps);
  m.set("serve.lookup_ns.block", last.lookup_ns.ns[0], "ns", last.lookup_ns.count[0]);
  m.set("serve.lookup_ns.as", last.lookup_ns.ns[1], "ns", last.lookup_ns.count[1]);
  m.set("serve.lookup_ns.global", last.lookup_ns.ns[2], "ns", last.lookup_ns.count[2]);
  m.set("loadgen.cpu_util", self.cpu_s / ns_to_s(now_ns() - start), "cores", 1);
  m.set("loadgen.samples", static_cast<double>(latency.size()), "count", 1);
  m.set("trace.overhead_frac", (median(traced_wall) - wall) / wall, "ratio",
        reps + traced.size());
  return outcome;
}

}  // namespace turtlebench
