#include "sim/network.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace turtle::sim {

Network::Network(Simulator& sim, Config config, util::Prng rng)
    : sim_{sim},
      config_{config},
      rng_{rng},
      packets_sent_{&sim.registry().counter("net.packets_sent")},
      packets_dropped_{&sim.registry().counter("net.packets_dropped")},
      packets_delivered_{&sim.registry().counter("net.packets_delivered")},
      transit_delay_{&sim.registry().histogram("net.transit_delay")} {
  TURTLE_CHECK(!config_.transit_base.is_negative())
      << "negative transit delay " << config_.transit_base;
  TURTLE_CHECK_GE(config_.core_loss, 0.0);
  TURTLE_CHECK_LE(config_.core_loss, 1.0);
  TURTLE_CHECK_GE(config_.transit_jitter_sigma, 0.0);
}

void Network::set_fault_hook(FaultHook* hook) {
  fault_hook_ = hook;
  if (hook == nullptr) return;
  obs::Registry& registry = sim_.registry();
  fault_dropped_ = &registry.counter("fault.net.dropped_packets");
  fault_delayed_ = &registry.counter("fault.net.delayed_packets");
  fault_copies_ = &registry.counter("fault.net.extra_copies");
}

void Network::attach_endpoint(net::Ipv4Address addr, PacketSink* sink) {
  TURTLE_CHECK(sink != nullptr);
  const auto [it, inserted] = endpoints_.emplace(addr.value(), sink);
  TURTLE_CHECK(inserted || it->second == sink)
      << "endpoint re-attached with a different sink";
}

void Network::send(const net::Packet& packet, std::uint32_t copies) {
  TURTLE_DCHECK_GT(copies, 0u) << "send of an empty packet batch";
  packets_sent_->inc(copies);

  // Fault injection first: an outage swallows the batch before it can
  // resolve, a duplicate storm widens it, a delay spike stretches transit.
  // The applied-side counters here must mirror the injector's own
  // injected-side counters exactly (CI reconciles them).
  SimTime fault_delay{};
  if (fault_hook_ != nullptr) {
    const FaultHook::Action action = fault_hook_->on_send(packet, copies);
    if (action.drop) {
      fault_dropped_->inc(copies);
      packets_dropped_->inc(copies);
      return;
    }
    if (action.extra_copies > 0) {
      fault_copies_->inc(action.extra_copies);
      copies += action.extra_copies;
    }
    if (action.extra_delay > SimTime{}) {
      fault_delayed_->inc();
      fault_delay = action.extra_delay;
    }
  }

  PacketSink* sink = nullptr;
  if (const auto it = endpoints_.find(packet.dst.value()); it != endpoints_.end()) {
    sink = it->second;
  } else if (host_resolver_ != nullptr) {
    sink = host_resolver_->resolve(packet);
  }
  if (sink == nullptr) {
    packets_dropped_->inc(copies);
    return;
  }

  // Core loss: for aggregated copies, thin the batch binomially-ish (cheap
  // approximation: each aggregated burst loses the expected fraction, and
  // single packets are dropped probabilistically).
  std::uint32_t surviving = copies;
  if (config_.core_loss > 0) {
    if (copies == 1) {
      if (rng_.bernoulli(config_.core_loss)) surviving = 0;
    } else {
      surviving = static_cast<std::uint32_t>(
          std::llround(static_cast<double>(copies) * (1.0 - config_.core_loss)));
    }
  }
  if (surviving == 0) {
    packets_dropped_->inc(copies);
    return;
  }
  TURTLE_DCHECK_LE(surviving, copies) << "loss thinning grew the batch";
  packets_dropped_->inc(copies - surviving);

  const double jitter = std::exp(config_.transit_jitter_sigma * rng_.normal());
  const SimTime transit =
      SimTime::from_seconds(config_.transit_base.as_seconds() * jitter) + fault_delay;

  transit_delay_->observe(transit);
  packets_delivered_->inc(surviving);
  sim_.schedule_after(transit, [sink, packet, surviving] { sink->deliver(packet, surviving); });
}

}  // namespace turtle::sim
