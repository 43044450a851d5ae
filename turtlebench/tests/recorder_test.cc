// The open-loop recorder must charge a generator stall to every request
// scheduled during it (no coordinated omission).
#include "recorder.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace turtlebench {
namespace {

constexpr std::int64_t kUs = 1'000;
constexpr std::int64_t kMs = 1'000'000;

TEST(OpenLoopRecorder, ChargesInjectedStallToEveryRequestScheduledDuringIt) {
  // 10k requests/s for 300 ms on a fake clock. The server answers each
  // request 20 µs after it is sent, but from 100 ms to 150 ms the
  // generator is blocked: nothing leaves until the stall ends.
  turtle::util::Prng rng{7};
  OpenLoopRecorder recorder{poisson_schedule(10'000, 0, 300 * kMs, rng)};
  ASSERT_GT(recorder.size(), 2'000u);
  const std::int64_t stall_begin = 100 * kMs;
  const std::int64_t stall_end = 150 * kMs;
  constexpr std::int64_t kService = 20 * kUs;

  std::int64_t clock = 0;
  while (recorder.next_unsent() < recorder.size()) {
    clock = std::max(clock, recorder.intended(recorder.next_unsent()));
    if (clock >= stall_begin && clock < stall_end) clock = stall_end;
    const std::size_t i = recorder.mark_sent(clock);
    recorder.mark_done(i, clock + kService, /*ok=*/true);
  }

  const auto latencies = recorder.latencies_us(/*give_up_ns=*/1'000 * kMs);
  const auto lateness = recorder.lateness_us();
  std::size_t in_stall = 0;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const std::int64_t intended = recorder.intended(i);
    if (intended >= stall_begin && intended < stall_end) {
      ++in_stall;
      // Charged the wait it would have seen: until the stall ended, plus
      // the service time — not just the 20 µs after the late send.
      const double expected_us = static_cast<double>(stall_end - intended + kService) / 1e3;
      EXPECT_DOUBLE_EQ(latencies[i], expected_us) << "request " << i;
      EXPECT_DOUBLE_EQ(lateness[i], static_cast<double>(stall_end - intended) / 1e3);
    } else {
      EXPECT_DOUBLE_EQ(latencies[i], static_cast<double>(kService) / 1e3);
      EXPECT_DOUBLE_EQ(lateness[i], 0.0);
    }
  }
  // ~500 requests fall inside a 50 ms window at 10k/s.
  EXPECT_GT(in_stall, 400u);
  EXPECT_EQ(recorder.answered_ok(), recorder.size());
  EXPECT_EQ(recorder.failed(), 0u);
}

TEST(OpenLoopRecorder, UnansweredAndWrongRequestsMissEveryLimit) {
  OpenLoopRecorder recorder{{0, 10 * kUs, 20 * kUs}};
  recorder.mark_done(recorder.mark_sent(0), 5 * kUs, /*ok=*/true);
  recorder.mark_done(recorder.mark_sent(10 * kUs), 15 * kUs, /*ok=*/false);
  recorder.mark_sent(20 * kUs);  // never answered
  const auto latencies = recorder.latencies_us(/*give_up_ns=*/kMs);
  EXPECT_DOUBLE_EQ(latencies[0], 5.0);
  EXPECT_DOUBLE_EQ(latencies[1], 1'000.0);
  EXPECT_DOUBLE_EQ(latencies[2], 1'000.0);
  EXPECT_EQ(recorder.answered_ok(), 1u);
  EXPECT_EQ(recorder.failed(), 1u);
}

TEST(OpenLoopRecorder, PoissonScheduleIsSeededAndBounded) {
  turtle::util::Prng a{3};
  turtle::util::Prng b{3};
  turtle::util::Prng c{4};
  const auto sa = poisson_schedule(5'000, kMs, 100 * kMs, a);
  EXPECT_EQ(sa, poisson_schedule(5'000, kMs, 100 * kMs, b));
  EXPECT_NE(sa, poisson_schedule(5'000, kMs, 100 * kMs, c));
  ASSERT_FALSE(sa.empty());
  EXPECT_GE(sa.front(), kMs);
  EXPECT_LT(sa.back(), 101 * kMs);
  EXPECT_TRUE(std::is_sorted(sa.begin(), sa.end()));
}

}  // namespace
}  // namespace turtlebench
