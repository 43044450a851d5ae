#include "fault/fault_injector.h"

#include <algorithm>
#include <utility>

#include "net/icmp.h"
#include "probe/records.h"
#include "util/check.h"

namespace turtle::fault {

namespace {

/// Scope test for window'd faults. No prefix means the fault is global.
bool prefix_matches(const FaultSpec& spec, net::Ipv4Address addr) {
  return !spec.has_prefix || spec.prefix.contains(addr);
}

bool is_echo_request(const net::Packet& packet) {
  if (packet.protocol != net::Protocol::kIcmp) return false;
  const auto msg = net::parse_icmp(packet.payload.view());
  return msg.has_value() && msg->is_echo_request();
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, const FaultPlan& plan,
                             util::Prng rng)
    : sim_{sim},
      packet_rng_{rng.fork(1)},
      corruption_rng_{rng.fork(2)},
      outage_drops_{&sim.registry().counter("fault.injected.outage_drops")},
      loss_drops_{&sim.registry().counter("fault.injected.loss_drops")},
      delayed_packets_{&sim.registry().counter("fault.injected.delayed_packets")},
      dup_copies_{&sim.registry().counter("fault.injected.dup_copies")},
      broadcast_copies_{&sim.registry().counter("fault.injected.broadcast_copies")},
      crashes_{&sim.registry().counter("fault.injected.crashes")},
      records_hit_{&sim.registry().counter("fault.records.hit")},
      records_detectable_{&sim.registry().counter("fault.records.detectable")},
      records_silent_{&sim.registry().counter("fault.records.silent")} {
  for (const FaultSpec& spec : plan.faults()) {
    switch (spec.kind) {
      case FaultKind::kProberCrash:
        crash_faults_.push_back(spec);
        break;
      case FaultKind::kRecordCorruption:
        // Several corruption specs compose as independent hits.
        corruption_rate_ = 1.0 - (1.0 - corruption_rate_) * (1.0 - spec.rate);
        break;
      default: {
        ActiveFault f;
        f.spec = spec;
        f.window = sim::WindowOverlay{{{spec.start, spec.end()}}};
        if (spec.kind == FaultKind::kBroadcastFlip) any_broadcast_flip_ = true;
        packet_faults_.push_back(std::move(f));
        break;
      }
    }
  }
}

sim::FaultHook::Action FaultInjector::on_send(const net::Packet& packet,
                                              std::uint32_t copies) {
  Action action;
  const SimTime now = sim_.now();

  // Pass 1 — drops. A dropped batch experiences nothing else, so counting
  // stops at the first drop and the injected counters mirror exactly what
  // the fabric applies (the reconciliation contract in the header).
  for (ActiveFault& f : packet_faults_) {
    if (f.spec.kind == FaultKind::kBlockOutage) {
      if (f.window.active_at(now) &&
          (prefix_matches(f.spec, packet.dst) || prefix_matches(f.spec, packet.src))) {
        outage_drops_->inc(copies);
        action.drop = true;
        return action;
      }
    } else if (f.spec.kind == FaultKind::kLossBurst) {
      if (f.window.active_at(now) &&
          (prefix_matches(f.spec, packet.dst) || prefix_matches(f.spec, packet.src)) &&
          packet_rng_.bernoulli(f.spec.rate)) {
        loss_drops_->inc(copies);
        action.drop = true;
        return action;
      }
    }
  }

  // Pass 2 — delay and amplification, composable across specs.
  for (ActiveFault& f : packet_faults_) {
    switch (f.spec.kind) {
      case FaultKind::kDelaySpike:
        if (f.window.active_at(now) &&
            (prefix_matches(f.spec, packet.dst) || prefix_matches(f.spec, packet.src)) &&
            (f.spec.rate >= 1.0 || packet_rng_.bernoulli(f.spec.rate))) {
          // Concurrent spikes do not add up: the packet sits in the most
          // bloated queue on its path.
          action.extra_delay = std::max(action.extra_delay, f.spec.delay);
        }
        break;
      case FaultKind::kDupStorm:
        // Keyed on the *source*: hosts inside the storm prefix flood the
        // prober with duplicates of whatever they send.
        if (f.window.active_at(now) && prefix_matches(f.spec, packet.src) &&
            (f.spec.rate >= 1.0 || packet_rng_.bernoulli(f.spec.rate))) {
          const std::uint32_t extra = copies * f.spec.copies;
          dup_copies_->inc(extra);
          action.extra_copies += extra;
        }
        break;
      case FaultKind::kBroadcastFlip:
        // Keyed on the *destination* of echo requests: the prefix starts
        // behaving like a broadcast amplifier, so one probe in elicits
        // `copies` extra deliveries (and thus extra replies).
        if (f.window.active_at(now) && prefix_matches(f.spec, packet.dst) &&
            is_echo_request(packet) &&
            (f.spec.rate >= 1.0 || packet_rng_.bernoulli(f.spec.rate))) {
          const std::uint32_t extra = copies * f.spec.copies;
          broadcast_copies_->inc(extra);
          action.extra_copies += extra;
        }
        break;
      default:
        break;
    }
  }
  if (action.extra_delay > SimTime{}) delayed_packets_->inc();
  return action;
}

void FaultInjector::arm(std::function<void(SimTime restart_delay)> crash_prober) {
  TURTLE_CHECK(crash_prober != nullptr);
  for (const FaultSpec& s : crash_faults_) {
    sim_.schedule_at(s.start, [this, restart = s.restart_delay, crash_prober] {
      crashes_->inc();
      crash_prober(restart);
    });
  }
}

void FaultInjector::corrupt_record_stream(std::string& bytes, CorruptionStats* stats) {
  CorruptionStats local;
  CorruptionStats& s = stats != nullptr ? *stats : local;
  s = CorruptionStats{};
  if (!corruption_enabled()) return;
  constexpr std::size_t kHeader = probe::RecordLog::kHeaderBytes;
  constexpr std::size_t kRecord = probe::RecordLog::kRecordBytes;
  if (bytes.size() < kHeader) return;
  for (std::size_t off = kHeader; off + kRecord <= bytes.size(); off += kRecord) {
    if (!corruption_rng_.bernoulli(corruption_rate_)) continue;
    const std::size_t byte = off + static_cast<std::size_t>(
                                       corruption_rng_.uniform_int(kRecord));
    const auto bit = static_cast<unsigned>(corruption_rng_.uniform_int(8));
    bytes[byte] = static_cast<char>(static_cast<unsigned char>(bytes[byte]) ^
                                    (1u << bit));
    ++s.records_hit;
    records_hit_->inc();
    const auto* record = reinterpret_cast<const unsigned char*>(bytes.data()) + off;
    if (probe::RecordLog::record_is_loadable(record)) {
      ++s.silent;
      records_silent_->inc();
    } else {
      ++s.detectable;
      records_detectable_->inc();
    }
  }
}

}  // namespace turtle::fault
