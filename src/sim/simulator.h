// The discrete-event simulation engine.
//
// A single-threaded clock + event queue. Everything in the reproduction —
// probers firing on schedules, packets traversing the network, hosts waking
// their radios, buffered bursts flushing — is an event here. Time advances
// only between events, so a two-week survey runs in seconds of wall time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "util/check.h"
#include "util/sim_time.h"

namespace turtle::sim {

/// Single-threaded discrete-event simulator.
///
/// Not thread-safe. Callbacks may schedule further events freely, including
/// at the current time (they run after all currently queued events at that
/// time, preserving FIFO order).
///
/// While a Simulator exists it is registered as a check context, so any
/// TURTLE_CHECK failure inside an event callback reports the simulated
/// clock and event counters alongside the failing condition.
class Simulator : public util::CheckContext {
 public:
  /// Move-only small-buffer callable; see EventQueue::Callback. Anything
  /// invocable as void() converts, including std::function for callers
  /// that need a copyable handle (e.g. self-rescheduling chains).
  using Callback = EventQueue::Callback;

  /// The simulator is the one metrics home of its world. It counts into
  /// `registry` (usually a bench report's merged registry or a shard's
  /// private one), or into a registry of its own when given null, and
  /// every component built on it (Network, the probers, the fault
  /// injector) binds its metrics from registry()/trace(). The engine's own
  /// metrics are "sim.events_processed", "sim.event_times" (distinct
  /// timestamps, so callbacks-per-event-time is derivable), and the
  /// "sim.queue_high_water" gauge. `trace`, when set, receives periodic
  /// event-queue depth samples on the "sim.queue_depth" counter track.
  explicit Simulator(obs::Registry* registry = nullptr, obs::TraceSink* trace = nullptr);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at zero.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t`. Scheduling in the past is a
  /// logic error: it fails a TURTLE_DCHECK in debug builds, and is
  /// clamped to now() in release builds so a long run degrades rather
  /// than corrupts the clock.
  void schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` after a relative delay. Negative delays are a logic
  /// error (DCHECK), clamped to zero in release.
  void schedule_after(SimTime delay, Callback cb);

  /// Runs until the event queue is empty.
  void run();

  /// Runs all events with timestamp <= `t`, then sets the clock to `t`.
  void run_until(SimTime t);

  /// Processes a single event; returns false when the queue is empty.
  bool step();

  /// Total events processed so far. Thin shim over the registry counter,
  /// so simulators sharing a registry share this count.
  [[nodiscard]] std::uint64_t events_processed() const { return events_->value(); }

  /// The registry this simulation counts into; never null.
  [[nodiscard]] obs::Registry& registry() { return *registry_; }
  /// The trace sink, or null when tracing is off.
  [[nodiscard]] obs::TraceSink* trace() const { return trace_; }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// CheckContext: "sim_now=<t> events=<n> pending=<m>".
  void describe_check_context(std::ostream& os) const override;

 private:
  /// Copies the queue's high-water mark into the registry gauge. Called
  /// from run()/run_until() and the destructor rather than per push, so
  /// the scheduling hot path pays only the queue's own size compare.
  void sync_queue_metrics();

  EventQueue queue_;
  SimTime now_;
  std::unique_ptr<obs::Registry> owned_registry_;  ///< set when none was given
  obs::Registry* registry_;
  obs::TraceSink* trace_;
  obs::Counter* events_;            ///< "sim.events_processed"
  obs::Counter* event_times_;       ///< "sim.event_times"
  obs::Gauge* queue_high_water_;    ///< "sim.queue_high_water"
  util::ScopedCheckContext check_context_{this};
};

}  // namespace turtle::sim
