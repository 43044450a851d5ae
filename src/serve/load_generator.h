// Open-loop Poisson load generator for the oracle server.
//
// Open-loop on purpose: arrivals come from an exponential inter-arrival
// clock that does not slow down when the server backs up, so overload is
// actually offered to the admission gate instead of being absorbed by the
// generator — the condition the load-shedding experiment needs. All
// randomness is drawn from a dedicated Prng substream, so a sharded run
// (one generator per shard world) replays byte-identically across --jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.h"
#include "obs/metrics.h"
#include "serve/oracle_server.h"
#include "sim/simulator.h"
#include "util/prng.h"
#include "util/sim_time.h"

namespace turtle::serve {

struct LoadGenConfig {
  /// Mean arrival rate, requests per simulated second.
  double rate_per_s = 1000.0;
  /// Generation window [0, duration); requests submitted near the end
  /// still complete because the simulator drains its queue.
  SimTime duration = SimTime::seconds(30);
  /// Target blocks; each request picks a uniform block, then a uniform
  /// host octet in 1..254.
  std::vector<net::Prefix24> blocks;
  /// Coverage targets cycled through uniformly, mirroring Table 2's
  /// "which cell do clients ask for" spread.
  std::vector<std::pair<double, double>> coverage_pairs{{50, 50}, {95, 95}, {99, 99}};
  /// Optional metrics sink for the serve.gen.* counters.
  obs::Registry* registry = nullptr;

  /// Fraction of requests tagged with a trace id (0 = tracing off). Draws
  /// come from a dedicated sampler substream forked off the generator's
  /// Prng, so flipping sampling on or off never perturbs the arrival
  /// process or the request mix — the load offered is identical either way.
  double trace_sample = 0.0;
  /// Trace ids are trace_id_base + n for the n-th sampled request (n >= 1).
  /// Shard s conventionally uses (s + 1) << 32, keeping ids globally
  /// unique and the shard recoverable from the id. 0 is reserved.
  std::uint64_t trace_id_base = 0;
};

class LoadGenerator {
 public:
  /// `rng` must be a substream dedicated to this generator. Requests are
  /// submitted to `server`, hosted on `sim`.
  LoadGenerator(sim::Simulator& sim, OracleServer& server, LoadGenConfig config,
                util::Prng rng);

  /// Schedules the first arrival; the chain self-perpetuates until
  /// `duration`. Call once before Simulator::run.
  void start();

  [[nodiscard]] std::uint64_t requests_sent() const { return requests_->value(); }
  [[nodiscard]] std::uint64_t responses_seen() const { return responses_->value(); }

  /// Per-response sim-time latencies (µs) in completion order. Completion
  /// order is event order, so this vector is deterministic; benches merge
  /// the per-shard vectors in shard order and compute exact percentiles
  /// (the histogram gives bucketed ones).
  [[nodiscard]] const std::vector<std::int64_t>& latencies_us() const { return latencies_us_; }

 private:
  void schedule_next();
  void fire();

  sim::Simulator& sim_;
  OracleServer& server_;
  LoadGenConfig config_;
  util::Prng rng_;
  util::Prng sampler_;  ///< trace-sampling substream (fork 1 of `rng`)
  std::uint64_t traced_seq_ = 0;
  std::vector<std::int64_t> latencies_us_;

  obs::Counter fallback_requests_;
  obs::Counter fallback_responses_;
  obs::Counter fallback_traced_;
  obs::Counter* requests_;   ///< "serve.gen.requests"
  obs::Counter* responses_;  ///< "serve.gen.responses"
  obs::Counter* traced_;     ///< "serve.gen.traced"
};

}  // namespace turtle::serve
