// Idle / slow-client deadlines: a connection silent for `max_idle_us`
// is reaped.
//
// The deadline is a constant (turtled --max-idle-ms, default 60 s — the
// paper's "keep listening" window), so every session's deadline is
// last_active + max_idle_us and deadlines fall due in activity order: the
// session due next is always the least recently active one. The list
// keeps sessions in that order — touch() splices a session to the back —
// so its front alone answers both "when is the next reap" and "who is
// due". A stall that outlasts the window counts daemon.conn.reaped_idle
// and hands the session to expire()'s reap callback.
//
// Sessions are plain ids here, not sockets, and time is caller-supplied
// microseconds — so the unit test drives a stalled client and an active
// one under fake time and asserts exactly who gets reaped.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>

#include "obs/metrics.h"

namespace turtle::daemon {

class IdleList {
 public:
  /// Counts reaps under "daemon.conn.reaped_idle" in `registry`.
  IdleList(std::uint64_t max_idle_us, obs::Registry& registry);

  IdleList(const IdleList&) = delete;
  IdleList& operator=(const IdleList&) = delete;

  /// Starts tracking `session` as active at `now_us` (the back of the list).
  void add(std::uint64_t session, std::uint64_t now_us);

  /// Records activity: moves the session to the back. O(1), no allocation.
  void touch(std::uint64_t session, std::uint64_t now_us);

  /// Stops tracking (connection closed normally); unknown ids are ignored.
  void remove(std::uint64_t session);

  /// The least recently active session's deadline; nullopt when empty.
  [[nodiscard]] std::optional<std::uint64_t> next_deadline_us() const;

  /// Untracks, counts and reaps every session whose deadline is <= now_us,
  /// least recently active first.
  void expire(std::uint64_t now_us, const std::function<void(std::uint64_t session)>& on_reap);

  [[nodiscard]] std::size_t tracked() const { return index_.size(); }
  [[nodiscard]] std::uint64_t reaped() const { return reaped_->value(); }

 private:
  void check_monotonic(std::uint64_t now_us) const;

  struct Entry {
    std::uint64_t session = 0;
    std::uint64_t last_active_us = 0;
  };

  std::uint64_t max_idle_us_;
  /// Front = least recently active.
  std::list<Entry> order_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  obs::Counter* reaped_;  ///< "daemon.conn.reaped_idle"
};

}  // namespace turtle::daemon
