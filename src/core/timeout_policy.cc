#include "core/timeout_policy.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "core/p2_quantile.h"
#include "core/rtt_estimator.h"
#include "util/check.h"

namespace turtle::core {

namespace {

/// A decision that ignores its input: the fixed and listen-longer
/// policies. Observations are still counted, so samples() means the same
/// for every policy.
class ConstantEstimator final : public TimeoutEstimator {
 public:
  explicit ConstantEstimator(TimeoutDecision decision) : decision_{decision} {}

  void on_rtt(SimTime /*rtt*/, bool /*retransmitted*/) override { ++observations_; }
  void on_timeout() override {}

  [[nodiscard]] TimeoutDecision decide() const override { return decision_; }
  [[nodiscard]] std::uint64_t samples() const override { return observations_; }

 private:
  TimeoutDecision decision_;
  std::uint64_t observations_ = 0;
};

class QuantileAdaptiveEstimator final : public TimeoutEstimator {
 public:
  QuantileAdaptiveEstimator(double multiplier, SimTime cold_start, SimTime give_up,
                            SimTime floor)
      : multiplier_{multiplier}, cold_start_{cold_start}, give_up_{give_up}, floor_{floor} {}

  void on_rtt(SimTime rtt, bool retransmitted) override {
    ++observations_;
    // Karn's rule: an ambiguous sample never reaches the quantile tracker.
    if (!retransmitted) p99_.add(rtt.as_seconds());
  }
  void on_timeout() override {}

  [[nodiscard]] TimeoutDecision decide() const override {
    if (p99_.count() < 5) {
      // Cold start: below 5 observations the P² markers are raw order
      // statistics, not quantile estimates. Return the documented
      // cold-start pair — capped so a give_up shorter than the cold-start
      // value still yields retransmit_after <= give_up_after.
      return {std::min(cold_start_, give_up_), give_up_};
    }
    // The p99 is rounded to SimTime's microsecond grain before scaling.
    const SimTime p99 = SimTime::from_seconds(p99_.value());
    const SimTime scaled = SimTime::from_seconds(p99.as_seconds() * multiplier_);
    // Floor first, give_up last: when the two clamps conflict (floor above
    // give_up) the give-up bound wins, so the decision invariant holds for
    // any configuration. std::clamp(x, floor_, give_up_) would be UB there.
    const SimTime retransmit = std::min(std::max(scaled, floor_), give_up_);
    TURTLE_DCHECK(retransmit <= give_up_);
    return {retransmit, give_up_};
  }
  [[nodiscard]] std::uint64_t samples() const override { return observations_; }

 private:
  double multiplier_;
  SimTime cold_start_;
  SimTime give_up_;
  SimTime floor_;
  P2Quantile p99_{0.99};
  std::uint64_t observations_ = 0;
};

/// TCP semantics over the shared RttEstimator. Without `give_up` the RTO
/// is both timers; with it the RTO only paces the retransmission.
class RtoEstimator final : public TimeoutEstimator {
 public:
  RtoEstimator(bool karn, std::optional<SimTime> give_up) : karn_{karn}, give_up_{give_up} {}

  void on_rtt(SimTime rtt, bool retransmitted) override {
    // The naive variant pretends every sample is unambiguous — the exact
    // bookkeeping error Karn's rule exists to forbid.
    estimator_.add_sample(rtt, karn_ && retransmitted);
  }
  void on_timeout() override {
    // §5.5 backoff. The naive design retries at the unmodified RTO.
    if (karn_) estimator_.add_loss();
  }

  [[nodiscard]] TimeoutDecision decide() const override {
    const SimTime rto = estimator_.rto();
    return {rto, give_up_.value_or(rto)};
  }
  [[nodiscard]] std::uint64_t samples() const override {
    return estimator_.samples() + estimator_.karn_excluded();
  }

 private:
  bool karn_;
  std::optional<SimTime> give_up_;
  RttEstimator estimator_;
};

class EwmaEstimator final : public TimeoutEstimator {
 public:
  EwmaEstimator(double gain, SimTime floor, SimTime cap)
      : gain_{gain}, floor_{floor}, cap_{cap} {}

  void on_rtt(SimTime rtt, bool /*retransmitted*/) override {
    const double r = rtt.as_seconds();
    if (observations_++ == 0) {
      mean_ = r;
      var_ = (r / 2) * (r / 2);
      return;
    }
    const double err = r - mean_;
    // Variance before mean, so the residual is measured against the
    // pre-update reference (Welford-style EWMA).
    var_ = (1 - gain_) * var_ + gain_ * err * err;
    mean_ += gain_ * err;
  }
  void on_timeout() override {}

  [[nodiscard]] TimeoutDecision decide() const override {
    if (observations_ == 0) {
      const SimTime cold = std::min(SimTime::seconds(3), cap_);
      return {cold, cold};
    }
    const double t = mean_ + 4 * std::sqrt(var_);
    const SimTime timeout =
        std::min(std::max(SimTime::from_seconds(t), floor_), cap_);
    return {timeout, timeout};
  }
  [[nodiscard]] std::uint64_t samples() const override { return observations_; }

 private:
  double gain_;
  SimTime floor_;
  SimTime cap_;
  std::uint64_t observations_ = 0;
  double mean_ = 0;
  double var_ = 0;
};

class CusumQuantileEstimator final : public TimeoutEstimator {
 public:
  explicit CusumQuantileEstimator(const CusumQuantilePolicy::Config& config)
      : config_{config}, quantile_{config.quantile} {}

  void on_rtt(SimTime rtt, bool /*retransmitted*/) override {
    // Deliberately not Karn-aware: a delayed re-attributed response *is*
    // the surprisingly-high-delay signal this policy exists to track, and
    // the 60 s give-up window makes learning from it safe — the failure
    // mode Karn's rule guards against (chasing your own timeout) needs
    // the measured wait to feed back into the give-up bound, which the
    // dual-timer design severs.
    const double r = rtt.as_seconds();
    ++observations_;
    if (observations_ == 1) {
      mean_ = r;
      dev_ = r / 2;
    } else {
      const double err = r - mean_;
      // One-sided CUSUM on the normalized pre-update residual: accumulate
      // surprise beyond `drift` dev-units; an excursion past `threshold`
      // means the latency level shifted and the quantile markers describe
      // a distribution that no longer exists.
      cusum_ = std::max(0.0, cusum_ + err / std::max(dev_, 1e-6) - config_.drift);
      dev_ = (1 - config_.gain) * dev_ + config_.gain * std::abs(err);
      mean_ += config_.gain * err;
      if (cusum_ > config_.threshold) {
        quantile_ = P2Quantile{config_.quantile};
        cusum_ = 0;
        ++level_shifts_;
      }
    }
    quantile_.add(r);
  }
  void on_timeout() override {}

  [[nodiscard]] TimeoutDecision decide() const override {
    if (observations_ == 0) {
      return {std::min(config_.cold_start, config_.give_up), config_.give_up};
    }
    const double envelope = mean_ + 4 * dev_;
    // Mid-reset (or early) the quantile markers are order statistics of
    // too few points; lean on the EWMA envelope until P² re-converges.
    const double target = quantile_.count() >= 5
                              ? std::max(quantile_.value() * config_.multiplier, envelope)
                              : envelope;
    const SimTime retransmit = std::min(
        std::max(SimTime::from_seconds(target), config_.floor), config_.give_up);
    return {retransmit, config_.give_up};
  }
  [[nodiscard]] std::uint64_t samples() const override { return observations_; }
  [[nodiscard]] std::uint64_t level_shifts() const override { return level_shifts_; }

 private:
  CusumQuantilePolicy::Config config_;
  P2Quantile quantile_;
  std::uint64_t observations_ = 0;
  std::uint64_t level_shifts_ = 0;
  double mean_ = 0;
  double dev_ = 0;
  double cusum_ = 0;
};

}  // namespace

std::unique_ptr<TimeoutEstimator> FixedTimeoutPolicy::make_estimator() const {
  return std::make_unique<ConstantEstimator>(TimeoutDecision{timeout_, timeout_});
}

std::string FixedTimeoutPolicy::name() const {
  return "fixed(" + timeout_.to_string() + ")";
}

std::unique_ptr<TimeoutEstimator> ListenLongerPolicy::make_estimator() const {
  return std::make_unique<ConstantEstimator>(TimeoutDecision{retransmit_, give_up_});
}

std::string ListenLongerPolicy::name() const {
  return "listen-longer(" + retransmit_.to_string() + "/" + give_up_.to_string() + ")";
}

std::unique_ptr<TimeoutEstimator> QuantileAdaptivePolicy::make_estimator() const {
  return std::make_unique<QuantileAdaptiveEstimator>(multiplier_, cold_start_, give_up_,
                                                     floor_);
}

std::string QuantileAdaptivePolicy::name() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "quantile-adaptive(p99 x %.2g)", multiplier_);
  return buf;
}

std::unique_ptr<TimeoutEstimator> Rfc6298Policy::make_estimator() const {
  return std::make_unique<RtoEstimator>(/*karn=*/true, give_up_);
}

std::string Rfc6298Policy::name() const { return "rfc6298"; }

std::unique_ptr<TimeoutEstimator> JacobsonKarnPolicy::make_estimator() const {
  return std::make_unique<RtoEstimator>(karn_, std::nullopt);
}

std::string JacobsonKarnPolicy::name() const {
  return karn_ ? "jacobson_karn" : "jacobson_naive";
}

std::unique_ptr<TimeoutEstimator> EwmaVariancePolicy::make_estimator() const {
  return std::make_unique<EwmaEstimator>(gain_, floor_, cap_);
}

std::string EwmaVariancePolicy::name() const { return "ewma"; }

CusumQuantilePolicy::CusumQuantilePolicy() : config_{} {}

std::unique_ptr<TimeoutEstimator> CusumQuantilePolicy::make_estimator() const {
  return std::make_unique<CusumQuantileEstimator>(config_);
}

std::string CusumQuantilePolicy::name() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "cusum_p%02d",
                static_cast<int>(config_.quantile * 100 + 0.5));
  return buf;
}

std::string FixedRetryPolicy::name() const {
  return "retry-fixed(" + delay_.to_string() + " x " + std::to_string(attempts_) + ")";
}

SimTime ExponentialBackoffPolicy::retry_delay(int attempt) const {
  SimTime delay = base_;
  for (int i = 1; i < attempt && delay < cap_; ++i) {
    delay = SimTime::from_seconds(delay.as_seconds() * multiplier_);
  }
  return std::min(delay, cap_);
}

std::string ExponentialBackoffPolicy::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "retry-backoff(%s x %.2g, cap %s)",
                base_.to_string().c_str(), multiplier_, cap_.to_string().c_str());
  return buf;
}

std::string ListenLongerRetryPolicy::name() const {
  return "retry-listen-longer(" + retransmit_.to_string() + "/" + listen_.to_string() +
         ")";
}

std::unique_ptr<RetryPolicy> make_retry_policy(const std::string& spec) {
  if (spec == "fixed") return std::make_unique<FixedRetryPolicy>();
  if (spec == "backoff") return std::make_unique<ExponentialBackoffPolicy>();
  if (spec == "listen-longer") return std::make_unique<ListenLongerRetryPolicy>();
  throw std::invalid_argument("unknown retry policy '" + spec +
                              "'; valid: fixed, backoff, listen-longer");
}

}  // namespace turtle::core
