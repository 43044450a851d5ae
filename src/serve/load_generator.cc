#include "serve/load_generator.h"

#include <utility>

#include "util/check.h"

namespace turtle::serve {

LoadGenerator::LoadGenerator(sim::Simulator& sim, OracleServer& server, LoadGenConfig config,
                             util::Prng rng)
    : sim_{sim},
      server_{server},
      config_{std::move(config)},
      rng_{std::move(rng)},
      sampler_{rng_.fork(1)} {
  TURTLE_CHECK_GT(config_.rate_per_s, 0.0);
  TURTLE_CHECK(!config_.blocks.empty()) << "load generator needs target blocks";
  TURTLE_CHECK(!config_.coverage_pairs.empty());
  TURTLE_CHECK_GE(config_.trace_sample, 0.0);
  TURTLE_CHECK_LE(config_.trace_sample, 1.0);
  if (config_.registry != nullptr) {
    requests_ = &config_.registry->counter("serve.gen.requests");
    responses_ = &config_.registry->counter("serve.gen.responses");
    traced_ = &config_.registry->counter("serve.gen.traced");
  } else {
    requests_ = &fallback_requests_;
    responses_ = &fallback_responses_;
    traced_ = &fallback_traced_;
  }
}

void LoadGenerator::start() { schedule_next(); }

void LoadGenerator::schedule_next() {
  const SimTime gap = SimTime::from_seconds(rng_.exponential(1.0 / config_.rate_per_s));
  const SimTime next = sim_.now() + gap;
  if (next >= config_.duration) return;
  sim_.schedule_at(next, [this] { fire(); });
}

void LoadGenerator::fire() {
  const net::Prefix24 block = config_.blocks[rng_.uniform_int(config_.blocks.size())];
  const auto octet = static_cast<std::uint8_t>(1 + rng_.uniform_int(254));
  const auto [addr_coverage, ping_coverage] =
      config_.coverage_pairs[rng_.uniform_int(config_.coverage_pairs.size())];

  Request request;
  request.addr = block.address(octet);
  request.addr_coverage = addr_coverage;
  request.ping_coverage = ping_coverage;
  if (config_.trace_sample > 0.0 && sampler_.uniform() < config_.trace_sample) {
    request.trace_id = config_.trace_id_base + ++traced_seq_;
    traced_->inc();
  }
  requests_->inc();
  server_.submit(request, [this](const LookupResult& /*result*/, SimTime latency) {
    responses_->inc();
    latencies_us_.push_back(latency.as_micros());
  });
  schedule_next();
}

}  // namespace turtle::serve
