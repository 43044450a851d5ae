// Timeout policies: how long to wait for a probe response.
//
// The paper's conclusion in API form. Policies answer two questions for a
// destination: when to send a follow-up probe (responsiveness) and how
// long to keep listening before writing the probe off as lost
// (correctness). Conflating the two — the conventional single "timeout" —
// is exactly the mistake the paper documents.
//
// Two layers, after Jain ("Divergence of Timeout Algorithms for Packet
// Retransmissions"): a TimeoutPolicy is a factory for per-destination
// TimeoutEstimator state that learns one observation at a time and
// prescribes a TimeoutDecision; a RetryPolicy (below) paces the retry
// sequence on top of it. Jain shows adaptive estimators can diverge
// exactly when conditions degrade, because a timeout that triggers
// retransmission contaminates the next RTT sample with the wait it
// caused — so observations carry a `retransmitted` flag.
//
// Estimators are plain value state — no clocks, no randomness — so a
// shard's estimator stream is byte-identical across --jobs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/sim_time.h"

namespace turtle::core {

/// What a policy prescribes for one probe to one destination.
struct TimeoutDecision {
  /// Send a follow-up probe if no response by then.
  SimTime retransmit_after;
  /// Treat the probe as lost only after this much total waiting; late
  /// responses inside this window still count as reachability evidence.
  SimTime give_up_after;
};

/// Per-destination policy state: fed observations one at a time, asked
/// for a TimeoutDecision before each probe. A fresh estimator returns the
/// policy's cold-start decision.
class TimeoutEstimator {
 public:
  virtual ~TimeoutEstimator() = default;

  /// A response was observed `rtt` after the first probe. `retransmitted`
  /// marks an ambiguous pairing — a retransmission was outstanding when
  /// the response arrived — which Karn-aware estimators must not learn
  /// from.
  virtual void on_rtt(SimTime rtt, bool retransmitted) = 0;
  /// The probe expired with no response at all.
  virtual void on_timeout() = 0;

  /// Current retransmit/give-up prescription for this destination.
  [[nodiscard]] virtual TimeoutDecision decide() const = 0;

  /// Response observations folded in (Karn-excluded ones included).
  [[nodiscard]] virtual std::uint64_t samples() const = 0;
  /// Latency level shifts detected (CUSUM estimators; 0 elsewhere).
  [[nodiscard]] virtual std::uint64_t level_shifts() const { return 0; }
};

/// Factory + identity for one timeout policy. Implementations must be
/// cheap: decide() is called once per probe.
class TimeoutPolicy {
 public:
  virtual ~TimeoutPolicy() = default;

  [[nodiscard]] virtual std::unique_ptr<TimeoutEstimator> make_estimator() const = 0;
  /// Stable name. The adaptive roster raced by serve::PolicyEngine uses
  /// metric-key-safe names ([a-z0-9_]) because the name becomes part of
  /// the policy.* counter namespace.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// The conventional fixed timeout (Trinocular/Thunderping-style 3 s,
/// iPlane-style 2 s, RIPE-Atlas-style 1 s): retransmit and give up at the
/// same instant. Decides exactly like ListenLongerPolicy(timeout, timeout).
class FixedTimeoutPolicy final : public TimeoutPolicy {
 public:
  explicit FixedTimeoutPolicy(SimTime timeout) : timeout_{timeout} {}

  [[nodiscard]] std::unique_ptr<TimeoutEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;

 private:
  SimTime timeout_;
};

/// The paper's recommendation (Section 7): probe again after ~3 s for
/// responsiveness, but keep listening ~60 s so congestion or wake-up delay
/// is not misread as loss.
class ListenLongerPolicy final : public TimeoutPolicy {
 public:
  ListenLongerPolicy(SimTime retransmit = SimTime::seconds(3),
                     SimTime give_up = SimTime::seconds(60))
      : retransmit_{retransmit}, give_up_{give_up} {}

  [[nodiscard]] std::unique_ptr<TimeoutEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;

 private:
  SimTime retransmit_;
  SimTime give_up_;
};

/// Adaptive per-destination policy: retransmit at a multiple of the
/// destination's P² p99 estimate (falling back to `cold_start` below 5
/// unambiguous samples), keep listening for `give_up`.
class QuantileAdaptivePolicy final : public TimeoutPolicy {
 public:
  QuantileAdaptivePolicy(double multiplier = 1.5,
                         SimTime cold_start = SimTime::seconds(3),
                         SimTime give_up = SimTime::seconds(60),
                         SimTime floor = SimTime::millis(500))
      : multiplier_{multiplier}, cold_start_{cold_start}, give_up_{give_up}, floor_{floor} {}

  [[nodiscard]] std::unique_ptr<TimeoutEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;

 private:
  double multiplier_;
  SimTime cold_start_;
  SimTime give_up_;
  SimTime floor_;
};

/// TCP's RTO in dual-timer form: retransmit at the RFC 6298 RTO (3 s
/// before any sample), keep listening for `give_up`. A baseline; it
/// adapts to jitter but not to bimodal wake-up latency.
class Rfc6298Policy final : public TimeoutPolicy {
 public:
  explicit Rfc6298Policy(SimTime give_up = SimTime::seconds(60)) : give_up_{give_up} {}

  [[nodiscard]] std::unique_ptr<TimeoutEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;

 private:
  SimTime give_up_;
};

/// The same RTO in single-timer form: retransmit and give up at the RTO —
/// the conflation the paper documents. `karn = false` builds the naive
/// variant that learns from ambiguous retransmitted samples and never
/// backs off — Jain's divergence case, kept as a regression fixture and
/// tournament strawman ("jacobson_naive").
class JacobsonKarnPolicy final : public TimeoutPolicy {
 public:
  explicit JacobsonKarnPolicy(bool karn = true) : karn_{karn} {}

  [[nodiscard]] std::unique_ptr<TimeoutEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;

 private:
  bool karn_;
};

/// The common "simple adaptive" design: EWMA mean + variance with tunable
/// gain; single-timer timeout at mean + 4 sqrt(var), clamped to
/// [floor, cap]. No Karn handling, no backoff.
class EwmaVariancePolicy final : public TimeoutPolicy {
 public:
  explicit EwmaVariancePolicy(double gain = 0.125, SimTime floor = SimTime::millis(500),
                              SimTime cap = SimTime::seconds(60))
      : gain_{gain}, floor_{floor}, cap_{cap} {}

  [[nodiscard]] std::unique_ptr<TimeoutEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;

 private:
  double gain_;
  SimTime floor_;
  SimTime cap_;
};

/// The paper-aligned adaptive design: a P² quantile tracker with CUSUM
/// level-shift detection that resets the quantile state when the latency
/// regime moves (a stale quantile is worse than a cold one), and
/// dual-timer semantics — retransmit adaptively, listen the full give-up
/// window.
class CusumQuantilePolicy final : public TimeoutPolicy {
 public:
  struct Config {
    double quantile = 0.99;  ///< tracked tail quantile
    double multiplier = 1.5; ///< retransmit at multiplier x quantile
    double gain = 0.125;     ///< EWMA gain for the CUSUM reference mean/dev
    double drift = 0.5;      ///< CUSUM slack per observation, in dev units
    double threshold = 8.0;  ///< CUSUM alarm level, in dev units
    SimTime floor = SimTime::millis(500);
    SimTime cold_start = SimTime::seconds(3);
    SimTime give_up = SimTime::seconds(60);
  };

  // Defined out of line: a `= {}` default argument can't use the nested
  // aggregate's member initializers inside the enclosing class (GCC).
  CusumQuantilePolicy();
  explicit CusumQuantilePolicy(Config config) : config_{config} {}

  [[nodiscard]] std::unique_ptr<TimeoutEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;

 private:
  Config config_;
};

// ---------------------------------------------------------------------------
// Retry policies (turtle::fault resilience layer)
// ---------------------------------------------------------------------------

/// How follow-up probes pace out when a destination keeps not answering.
/// Orthogonal to TimeoutPolicy: a TimeoutPolicy derives the first
/// retransmit/give-up pair from RTT history, while a RetryPolicy schedules
/// the retry *sequence* — how many attempts, how far apart, and how long
/// to keep listening after the last one. Probers under injected outages
/// select one of these per run to study recovery behaviour.
class RetryPolicy {
 public:
  virtual ~RetryPolicy() = default;

  /// Delay before attempt `attempt` (1-based: the wait after the
  /// attempt-th probe went unanswered).
  [[nodiscard]] virtual SimTime retry_delay(int attempt) const = 0;

  /// Total probes per check, first attempt included. Always >= 1.
  [[nodiscard]] virtual int max_attempts() const = 0;

  /// How long to keep listening after the final attempt before declaring
  /// loss. Late responses inside this window still count.
  [[nodiscard]] virtual SimTime listen_window() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Evenly spaced retries: the conventional "3 tries, 3 s apart".
class FixedRetryPolicy final : public RetryPolicy {
 public:
  FixedRetryPolicy(SimTime delay = SimTime::seconds(3), int attempts = 3,
                   SimTime listen = SimTime::seconds(3))
      : delay_{delay}, attempts_{attempts}, listen_{listen} {}

  [[nodiscard]] SimTime retry_delay(int) const override { return delay_; }
  [[nodiscard]] int max_attempts() const override { return attempts_; }
  [[nodiscard]] SimTime listen_window() const override { return listen_; }
  [[nodiscard]] std::string name() const override;

 private:
  SimTime delay_;
  int attempts_;
  SimTime listen_;
};

/// Exponential backoff with a cap: delay_i = min(base * multiplier^(i-1),
/// cap). The polite choice under a suspected outage — probing pressure
/// decays instead of hammering a recovering block.
class ExponentialBackoffPolicy final : public RetryPolicy {
 public:
  ExponentialBackoffPolicy(SimTime base = SimTime::seconds(1), double multiplier = 2.0,
                           SimTime cap = SimTime::seconds(30), int attempts = 5,
                           SimTime listen = SimTime::seconds(30))
      : base_{base}, multiplier_{multiplier}, cap_{cap}, attempts_{attempts},
        listen_{listen} {}

  [[nodiscard]] SimTime retry_delay(int attempt) const override;
  [[nodiscard]] int max_attempts() const override { return attempts_; }
  [[nodiscard]] SimTime listen_window() const override { return listen_; }
  [[nodiscard]] std::string name() const override;

 private:
  SimTime base_;
  double multiplier_;
  SimTime cap_;
  int attempts_;
  SimTime listen_;
};

/// The paper's Section 7 recommendation as a retry policy: retransmit on a
/// quick ~3 s cadence for responsiveness, but keep listening a long
/// (default 60 s) window after the last attempt so surprisingly high delay
/// is not misread as loss.
class ListenLongerRetryPolicy final : public RetryPolicy {
 public:
  ListenLongerRetryPolicy(SimTime retransmit = SimTime::seconds(3), int attempts = 3,
                          SimTime listen = SimTime::seconds(60))
      : retransmit_{retransmit}, attempts_{attempts}, listen_{listen} {}

  [[nodiscard]] SimTime retry_delay(int) const override { return retransmit_; }
  [[nodiscard]] int max_attempts() const override { return attempts_; }
  [[nodiscard]] SimTime listen_window() const override { return listen_; }
  [[nodiscard]] std::string name() const override;

 private:
  SimTime retransmit_;
  int attempts_;
  SimTime listen_;
};

/// Builds a retry policy from its spec name: "fixed", "backoff", or
/// "listen-longer" (each with library defaults). Throws
/// std::invalid_argument for anything else, listing the valid names —
/// mirroring how fault plans reject unknown kinds.
[[nodiscard]] std::unique_ptr<RetryPolicy> make_retry_policy(const std::string& spec);

}  // namespace turtle::core
