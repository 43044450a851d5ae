// turtle::daemon — event-loop deferred/tick semantics under fake time,
// and the activity-ordered idle list.
//
// Everything here runs on fabricated clocks: the idle list takes absolute
// microseconds from the caller, and the event loop's ClockFn is swapped
// for a controllable static. No sockets, no wall time, no sleeps.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "daemon/event_loop.h"
#include "daemon/idle.h"
#include "obs/metrics.h"

namespace turtle::daemon {
namespace {

std::uint64_t g_fake_now_us = 0;
std::uint64_t fake_clock() { return g_fake_now_us; }

TEST(EventLoop, DeferredRunFifoAndDrainToEmpty) {
  g_fake_now_us = 0;
  EventLoop loop{&fake_clock};
  std::vector<std::string> order;
  loop.defer([&] {
    order.push_back("a");
    // Deferred-from-deferred runs in the same drain, after everything
    // queued earlier.
    loop.defer([&] { order.push_back("c"); });
  });
  loop.defer([&] { order.push_back("b"); });
  loop.run_ready(0);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
  // The queue drained: a second cycle runs nothing.
  order.clear();
  loop.run_ready(0);
  EXPECT_TRUE(order.empty());
}

// The tick is the loop's one timer and post-dispatch hook: deferred work
// runs before it, it sees the iteration's now_us, and what it returns is
// the loop's next deadline.
TEST(EventLoop, DeferredRunBeforeTimersThenPostDispatch) {
  g_fake_now_us = 0;
  EventLoop loop{&fake_clock};
  std::vector<std::string> order;
  std::uint64_t seen_us = 0;
  loop.set_tick([&](std::uint64_t now_us) -> std::optional<std::uint64_t> {
    order.push_back("tick");
    seen_us = now_us;
    return now_us + 25;
  });
  loop.defer([&] { order.push_back("deferred"); });
  EXPECT_EQ(loop.run_ready(10), std::optional<std::uint64_t>{35});
  EXPECT_EQ(order, (std::vector<std::string>{"deferred", "tick"}));
  EXPECT_EQ(seen_us, 10u);
}

// A deadline the tick reports as due wakes the real poll with no fd
// ready: epoll_wait times out at once and the next tick runs.
TEST(EventLoop, DueDeadlineWakesPollWithNoFdReady) {
  g_fake_now_us = 500;
  EventLoop loop{&fake_clock};
  int ticks = 0;
  loop.set_tick([&](std::uint64_t now_us) -> std::optional<std::uint64_t> {
    EXPECT_EQ(now_us, 500u);
    if (++ticks == 3) loop.stop();
    return now_us;  // due now
  });
  loop.run();
  EXPECT_EQ(ticks, 3);
}

// With no deadline the poll blocks until an fd or the wake pipe is ready;
// a stop request writes the pipe, so it ends the wait.
TEST(EventLoop, SignalStopWakesPollWithNoDeadline) {
  g_fake_now_us = 0;
  EventLoop loop{&fake_clock};
  int ticks = 0;
  loop.set_tick([&](std::uint64_t) -> std::optional<std::uint64_t> {
    ++ticks;
    return std::nullopt;
  });
  loop.request_stop_from_signal();
  loop.run();  // no stop hook: the request stops the loop
  EXPECT_EQ(ticks, 2);  // one tick before the first poll, one after it

  bool hooked = false;
  loop.set_stop_hook([&] {
    hooked = true;
    loop.stop();
  });
  loop.request_stop_from_signal();
  loop.run();
  EXPECT_TRUE(hooked);
  EXPECT_EQ(ticks, 4);
}

TEST(IdleList, StalledSessionReapedActiveOneSurvives) {
  obs::Registry registry;
  const std::uint64_t max_idle_us = 60'000'000;
  IdleList idle{max_idle_us, registry};

  std::vector<std::uint64_t> reaped;
  const auto reap = [&](std::uint64_t session) { reaped.push_back(session); };
  std::uint64_t now = 0;
  idle.add(1, now);
  idle.add(2, now);
  EXPECT_EQ(idle.tracked(), 2u);

  // Session 1 chats every 200ms; session 2 stalls after t=0. Fast
  // traffic does not shorten anyone's deadline.
  for (int i = 0; i < 20; ++i) {
    now += 200'000;
    idle.touch(1, now);
    idle.expire(now, reap);
  }
  EXPECT_TRUE(reaped.empty()) << "active traffic must not reap anyone";

  // Let the stalled session's deadline lapse; session 1 keeps talking.
  const std::uint64_t horizon = now + max_idle_us + 1;
  while (now < horizon) {
    now += 200'000;
    idle.touch(1, now);
    idle.expire(now, reap);
  }
  EXPECT_EQ(reaped, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(idle.reaped(), 1u);
  EXPECT_EQ(registry.counter("daemon.conn.reaped_idle").value(), 1u);
  EXPECT_EQ(idle.tracked(), 1u);  // reap untracked session 2

  // Normal close stops tracking without counting a reap.
  idle.remove(1);
  EXPECT_EQ(idle.tracked(), 0u);
  idle.expire(now + 2 * max_idle_us, reap);
  EXPECT_EQ(idle.reaped(), 1u);
}

TEST(IdleList, DeadlineIsMaxIdleEvenAboveSixtySeconds) {
  obs::Registry registry;
  const std::uint64_t max_idle_us = 120'000'000;
  IdleList idle{max_idle_us, registry};

  bool reaped = false;
  const auto reap = [&](std::uint64_t) { reaped = true; };
  idle.add(7, 0);
  // A stalled session outlives the paper's 60 s listen window when the
  // operator asked for longer...
  idle.expire(61'000'000, reap);
  EXPECT_FALSE(reaped);
  idle.expire(max_idle_us - 1, reap);
  EXPECT_FALSE(reaped);
  // ...and is reaped exactly at the configured deadline.
  idle.expire(max_idle_us, reap);
  EXPECT_TRUE(reaped);
  EXPECT_EQ(idle.reaped(), 1u);
  EXPECT_EQ(idle.tracked(), 0u);
}

// touch() moves a session to the back, so the next deadline always
// belongs to the least recently active session, and expiry reaps in
// activity order.
TEST(IdleList, TouchReordersSoNextDeadlineFollowsLeastRecentlyActive) {
  obs::Registry registry;
  const std::uint64_t max_idle_us = 1'000;
  IdleList idle{max_idle_us, registry};
  EXPECT_EQ(idle.next_deadline_us(), std::nullopt);

  idle.add(1, 0);
  idle.add(2, 10);
  idle.add(3, 20);
  EXPECT_EQ(idle.next_deadline_us(), std::optional<std::uint64_t>{0 + max_idle_us});
  idle.touch(1, 30);  // order now 2, 3, 1
  EXPECT_EQ(idle.next_deadline_us(), std::optional<std::uint64_t>{10 + max_idle_us});
  idle.touch(2, 40);  // order now 3, 1, 2
  EXPECT_EQ(idle.next_deadline_us(), std::optional<std::uint64_t>{20 + max_idle_us});
  idle.touch(99, 50);  // unknown ids are ignored
  EXPECT_EQ(idle.tracked(), 3u);

  std::vector<std::uint64_t> reaped;
  idle.expire(30 + max_idle_us, [&](std::uint64_t session) { reaped.push_back(session); });
  EXPECT_EQ(reaped, (std::vector<std::uint64_t>{3, 1}));
  EXPECT_EQ(idle.next_deadline_us(), std::optional<std::uint64_t>{40 + max_idle_us});
  idle.remove(2);
  EXPECT_EQ(idle.next_deadline_us(), std::nullopt);
  EXPECT_EQ(idle.reaped(), 2u);
}

}  // namespace
}  // namespace turtle::daemon
