// The fault injector: executes a FaultPlan against one simulated world.
//
// Three injection surfaces:
//   * packet faults — the injector implements sim::FaultHook; the Network
//     consults it once per send, in event order, so verdicts replay
//     byte-identically across --jobs values;
//   * prober crashes — arm() schedules simulator events that invoke the
//     crash callback a bench wires to SurveyProber::crash;
//   * record corruption — corrupt_record_stream() flips bits in a
//     serialized RecordLog between save and load, classifying every hit as
//     detectable (the tolerant loader will count and skip it) or silent
//     (structurally valid, wrong data) using the loader's own predicate.
//
// Reconciliation contract (checked by scripts/validate_obs.py --fault):
//   fault.injected.outage_drops + fault.injected.loss_drops
//       == fault.net.dropped_packets
//   fault.injected.delayed_packets == fault.net.delayed_packets
//   fault.injected.dup_copies + fault.injected.broadcast_copies
//       == fault.net.extra_copies
//   fault.injected.crashes == fault.survey.crashes
//   fault.records.hit == fault.records.detectable + fault.records.silent
// Every injected fault is observed somewhere or the run fails CI.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/processes.h"
#include "sim/simulator.h"
#include "util/prng.h"

namespace turtle::fault {

class FaultInjector : public sim::FaultHook {
 public:
  /// `rng` must be a substream dedicated to this injector (worlds fork it
  /// per shard, keyed by world seed, so shards stay independent). The
  /// "fault.injected.*" / "fault.records.*" counters land in the
  /// simulator's registry; they are created eagerly — a fault run is
  /// expected to show its fault series, and eager creation keeps the
  /// created-metrics set identical across --jobs values.
  FaultInjector(sim::Simulator& sim, const FaultPlan& plan, util::Prng rng);

  /// sim::FaultHook: the verdict for one Network::send. Deterministic in
  /// (event order, injector PRNG stream).
  [[nodiscard]] Action on_send(const net::Packet& packet, std::uint32_t copies) override;

  /// Schedules every prober_crash spec as a simulator event invoking
  /// `crash_prober(restart_delay)`. The callback indirection keeps probe
  /// free of any fault dependency. Call once, before running.
  void arm(std::function<void(SimTime restart_delay)> crash_prober);

  /// True when the plan contains record_corruption specs.
  [[nodiscard]] bool corruption_enabled() const { return corruption_rate_ > 0.0; }
  [[nodiscard]] double corruption_rate() const { return corruption_rate_; }

  struct CorruptionStats {
    std::uint64_t records_hit = 0;
    std::uint64_t detectable = 0;  ///< the tolerant loader will skip these
    std::uint64_t silent = 0;      ///< structurally valid, data wrong
  };

  /// Flips one random bit in each record independently hit with the plan's
  /// corruption rate. `bytes` is a serialized RecordLog (header left
  /// intact — header corruption is a *fatal* fault by design and tested
  /// separately). Classification uses RecordLog::record_is_loadable, so
  /// `detectable` predicts the loader's records_skipped exactly.
  void corrupt_record_stream(std::string& bytes, CorruptionStats* stats = nullptr);

 private:
  /// Per-spec runtime state: the window overlay owns the monotone cursor.
  struct ActiveFault {
    FaultSpec spec;
    sim::WindowOverlay window;
  };

  sim::Simulator& sim_;
  std::vector<ActiveFault> packet_faults_;  ///< window'd kinds, plan order
  std::vector<FaultSpec> crash_faults_;
  double corruption_rate_ = 0.0;
  bool any_broadcast_flip_ = false;
  util::Prng packet_rng_;
  util::Prng corruption_rng_;

  obs::Counter* outage_drops_;      ///< "fault.injected.outage_drops"
  obs::Counter* loss_drops_;        ///< "fault.injected.loss_drops"
  obs::Counter* delayed_packets_;   ///< "fault.injected.delayed_packets"
  obs::Counter* dup_copies_;        ///< "fault.injected.dup_copies"
  obs::Counter* broadcast_copies_;  ///< "fault.injected.broadcast_copies"
  obs::Counter* crashes_;           ///< "fault.injected.crashes"
  obs::Counter* records_hit_;       ///< "fault.records.hit"
  obs::Counter* records_detectable_;  ///< "fault.records.detectable"
  obs::Counter* records_silent_;      ///< "fault.records.silent"
};

}  // namespace turtle::fault
