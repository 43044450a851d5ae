// Single-threaded epoll event loop — the daemon's heartbeat.
//
// Modeled on MPD's event layer (SocketEvent / deferred events): one thread
// owns the loop; sockets register a SocketEvent with the fd and a handler;
// the loop multiplexes readiness and runs deferred work between poll
// cycles. Two ways in:
//
//   * SocketEvent::schedule(kRead|kWrite) — fd readiness, epoll-driven.
//   * defer(fn) — run before the next poll, FIFO. Loop-thread only; this
//     is how handlers safely reshape the world ("close this connection
//     after the current dispatch finishes").
//
// Signal handlers stop the loop through request_stop_from_signal(), which
// is async-signal-safe: a flag plus one byte down the self-pipe.
//
// Time: the loop keeps no timers. Each iteration ends with the owner's
// tick, which is handed the loop clock's `now_us` and returns the next
// absolute deadline it cares about; the loop turns that into the epoll
// timeout, and with no deadline it sleeps until an fd or the wake pipe is
// ready. The loop never reads a clock directly: it calls an injected
// ClockFn (production: daemon::wall_now_us, the D2-allowlisted site;
// tests: a fake). run_ready(now_us) exposes one synchronous iteration at a
// fabricated instant, which is how daemon_test drives deferred and tick
// semantics with no sockets and no real time.
#pragma once

#include <csignal>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_set>
#include <utility>

#include "daemon/wall_clock.h"

namespace turtle::daemon {

class SocketEvent;

class EventLoop {
 public:
  /// Runs at the end of every iteration with the loop clock's time;
  /// returns the next absolute deadline (loop clock), or nullopt for none.
  using Tick = std::function<std::optional<std::uint64_t>(std::uint64_t now_us)>;

  /// `clock` is the time source for every now_us() and poll timeout.
  explicit EventLoop(ClockFn clock = &wall_now_us);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Polls and dispatches until stop(). Loop thread only.
  void run();

  /// Makes run() return after the current iteration. Loop thread only
  /// (from a signal handler, use request_stop_from_signal).
  void stop() { stopping_ = true; }

  /// Runs `fn` before the next poll, after all fns deferred earlier this
  /// iteration (FIFO). Deferrals from inside a deferred fn run in the same
  /// drain — the queue is drained to empty, not snapshotted.
  void defer(std::function<void()> fn);

  /// Async-signal-safe stop request: sets a flag and pokes the self-pipe.
  /// The loop observes it after the iteration's socket dispatch and
  /// invokes the stop hook (set_stop_hook) instead of dying mid-write.
  void request_stop_from_signal() noexcept;

  /// Runs once when a request_stop_from_signal() is observed; the daemon
  /// installs its graceful-shutdown sequence here. Without a hook the loop
  /// just stops.
  void set_stop_hook(std::function<void()> hook) { stop_hook_ = std::move(hook); }

  /// Installs the tick: it runs after each iteration's socket dispatch and
  /// deferred drain, and its return value bounds the next poll.
  void set_tick(Tick tick) { tick_ = std::move(tick); }

  [[nodiscard]] std::uint64_t now_us() const { return clock_(); }

  /// Test seam: one synchronous iteration at fabricated time `now_us` —
  /// the deferred drain, then the tick. No polling, no fds required.
  /// Returns the tick's deadline.
  std::optional<std::uint64_t> run_ready(std::uint64_t now_us);

 private:
  friend class SocketEvent;

  void register_event(SocketEvent& event);
  void update_event(SocketEvent& event);
  void unregister_event(SocketEvent& event);

  void poll_once();
  /// Milliseconds until next_deadline_ (rounded up), 0 when deferred work
  /// is pending, -1 (block) with no deadline.
  [[nodiscard]] int poll_timeout_ms() const;

  ClockFn clock_;
  int epoll_fd_ = -1;
  /// Self-pipe: [0] registered with epoll, [1] written by the signal path.
  int wake_fds_[2] = {-1, -1};
  bool stopping_ = false;
  std::function<void()> stop_hook_;
  Tick tick_;
  /// What the last tick returned; bounds the next epoll_wait.
  std::optional<std::uint64_t> next_deadline_;

  /// Registered events; dispatch consults this so a handler destroying a
  /// sibling SocketEvent mid-iteration cannot leave a dangling dispatch.
  std::unordered_set<SocketEvent*> registered_;

  std::deque<std::function<void()>> deferred_;

  /// Set by request_stop_from_signal (possibly from a signal handler).
  volatile sig_atomic_t signal_stop_ = 0;
};

/// One fd's registration with the loop: readiness interest plus handler.
/// Construction registers, destruction unregisters; close() also closes
/// the fd. Loop thread only.
class SocketEvent {
 public:
  static constexpr unsigned kRead = 1u << 0;
  static constexpr unsigned kWrite = 1u << 1;
  /// Always delivered when the kernel reports them; no need to schedule.
  static constexpr unsigned kError = 1u << 2;
  static constexpr unsigned kHangup = 1u << 3;

  using Handler = std::function<void(unsigned ready)>;

  /// Takes ownership of `fd` (nonblocking, close-on-exec already set by
  /// the caller). Starts with no interest; call schedule().
  SocketEvent(EventLoop& loop, int fd, Handler handler);
  ~SocketEvent();

  SocketEvent(const SocketEvent&) = delete;
  SocketEvent& operator=(const SocketEvent&) = delete;

  /// Replaces the interest set (kRead|kWrite; 0 = registered but idle).
  void schedule(unsigned interest);
  [[nodiscard]] unsigned scheduled() const { return interest_; }

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] EventLoop& loop() { return loop_; }

  /// Unregisters and closes the fd; the event is dead afterwards.
  void close();

 private:
  friend class EventLoop;

  EventLoop& loop_;
  int fd_;
  unsigned interest_ = 0;
  Handler handler_;
};

}  // namespace turtle::daemon
