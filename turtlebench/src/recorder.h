// Open-loop latency recording without coordinated omission.
//
// An open-loop generator sends each request at a time fixed in advance by
// its arrival schedule. If the generator itself is held up (a blocked
// send, a descheduled thread, a server that stops reading), requests go
// out late; timing them from the moment they were actually sent would
// hide exactly the stall a user would have seen. The recorder therefore
// charges every request from its *intended* send time, and reports how
// late the generator ran as a separate figure, so a run whose generator
// fell behind is visible as such.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/prng.h"

namespace turtlebench {

/// Poisson arrival times in [start_ns, start_ns + duration_ns) at `rate`
/// requests per second, drawn from `rng`.
[[nodiscard]] inline std::vector<std::int64_t> poisson_schedule(double rate,
                                                                std::int64_t start_ns,
                                                                std::int64_t duration_ns,
                                                                turtle::util::Prng& rng) {
  std::vector<std::int64_t> times;
  const double mean_gap_ns = 1e9 / rate;
  double t = static_cast<double>(start_ns);
  const double end = static_cast<double>(start_ns + duration_ns);
  while (true) {
    t += rng.exponential(mean_gap_ns);
    if (t >= end) break;
    times.push_back(static_cast<std::int64_t>(t));
  }
  return times;
}

class OpenLoopRecorder {
 public:
  explicit OpenLoopRecorder(std::vector<std::int64_t> intended_ns)
      : intended_{std::move(intended_ns)},
        sent_(intended_.size(), -1),
        done_(intended_.size(), -1),
        ok_(intended_.size(), 0) {}

  [[nodiscard]] std::size_t size() const { return intended_.size(); }
  [[nodiscard]] std::int64_t intended(std::size_t i) const { return intended_[i]; }
  /// Index of the next request not yet sent (size() when all are out).
  [[nodiscard]] std::size_t next_unsent() const { return next_; }

  /// Request `next_unsent()` left the generator at `now`.
  std::size_t mark_sent(std::int64_t now) {
    const std::size_t i = next_++;
    sent_[i] = now;
    return i;
  }

  /// Request `i` completed at `now`; `ok` means a correct answer arrived.
  void mark_done(std::size_t i, std::int64_t now, bool ok) {
    if (done_[i] >= 0) return;
    done_[i] = now;
    ok_[i] = ok ? 1 : 0;
    if (ok) {
      ++answered_ok_;
    } else {
      ++failed_;
    }
  }

  /// Latency of every sent request from its intended send time, in µs.
  /// A failed or unanswered request is charged `give_up_ns`: it missed
  /// every latency limit below that.
  [[nodiscard]] std::vector<double> latencies_us(std::int64_t give_up_ns) const {
    std::vector<double> out;
    out.reserve(next_);
    for (std::size_t i = 0; i < next_; ++i) {
      const bool answered = done_[i] >= 0 && ok_[i] != 0;
      const std::int64_t ns = answered ? done_[i] - intended_[i] : give_up_ns;
      out.push_back(static_cast<double>(ns) / 1e3);
    }
    return out;
  }

  /// How late the generator sent each request, in µs.
  [[nodiscard]] std::vector<double> lateness_us() const {
    std::vector<double> out;
    out.reserve(next_);
    for (std::size_t i = 0; i < next_; ++i) {
      out.push_back(static_cast<double>(sent_[i] - intended_[i]) / 1e3);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t answered_ok() const { return answered_ok_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::vector<std::int64_t> intended_;
  std::vector<std::int64_t> sent_;
  std::vector<std::int64_t> done_;
  std::vector<std::uint8_t> ok_;
  std::size_t next_ = 0;
  std::uint64_t answered_ok_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace turtlebench
