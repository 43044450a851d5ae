#include "probe/zmap.h"

#include <numeric>

namespace turtle::probe {

ZmapScanner::ZmapScanner(sim::Simulator& sim, sim::Network& net, ZmapConfig config)
    : sim_{sim},
      net_{net},
      config_{config},
      probes_sent_{&sim.registry().counter("zmap.probes_sent")},
      responses_received_{&sim.registry().counter("zmap.responses")},
      address_mismatch_{&sim.registry().counter("zmap.address_mismatch")},
      rtt_{&sim.registry().histogram("zmap.rtt")},
      trace_{sim.trace()} {}

void ZmapScanner::start(const std::vector<net::Prefix24>& blocks) {
  blocks_ = blocks;
  total_targets_ = blocks_.size() * 256;
  if (total_targets_ == 0) return;

  net_.attach_endpoint(config_.vantage, this);

  // Multiplicative-stride permutation: visit index (i * stride) mod N,
  // with stride coprime to N. Cheap, stateless, full-cycle.
  stride_ = (0x9E3779B97F4A7C15ULL ^ config_.permutation_seed) % total_targets_;
  if (stride_ == 0) stride_ = 1;
  while (std::gcd(stride_, total_targets_) != 1) ++stride_;

  const std::uint64_t batches =
      (total_targets_ + config_.batch_size - 1) / static_cast<std::uint64_t>(config_.batch_size);
  batch_gap_ = SimTime::micros(config_.scan_duration.as_micros() /
                               static_cast<std::int64_t>(std::max<std::uint64_t>(batches, 1)));

  sim_.schedule_after(SimTime::micros(0), [this] { send_batch(0); });
}

void ZmapScanner::send_batch(std::uint64_t start_index) {
  const std::uint64_t end =
      std::min(start_index + static_cast<std::uint64_t>(config_.batch_size), total_targets_);
  for (std::uint64_t i = start_index; i < end; ++i) {
    probe_index((i * stride_) % total_targets_);
  }
  if (end < total_targets_) {
    sim_.schedule_after(batch_gap_, [this, end] { send_batch(end); });
  }
}

void ZmapScanner::probe_index(std::uint64_t index) {
  const net::Prefix24 block = blocks_[index / 256];
  const net::Ipv4Address target = block.address(static_cast<std::uint8_t>(index % 256));

  net::IcmpMessage echo;
  echo.type = net::IcmpType::kEchoRequest;
  echo.id = config_.icmp_id;
  echo.seq = static_cast<std::uint16_t>(index);
  net::TimingPayload tp;
  tp.probed_destination = target;
  tp.send_time = sim_.now();
  tp.encode(echo.payload);

  net::Packet packet;
  packet.src = config_.vantage;
  packet.dst = target;
  packet.protocol = net::Protocol::kIcmp;
  packet.payload = net::serialize_icmp(echo);

  probes_sent_->inc();
  net_.send(packet);
}

void ZmapScanner::deliver(const net::Packet& packet, std::uint32_t copies) {
  const auto msg = net::parse_icmp(packet.payload.view());
  if (!msg.has_value() || !msg->is_echo_reply()) return;
  if (msg->id != config_.icmp_id) return;

  const auto tp = net::TimingPayload::decode(msg->payload.view());
  if (!tp.has_value()) return;  // not one of ours

  ZmapResponse r;
  r.responder = packet.src;
  r.probed_dst = tp->probed_destination;
  r.recv_time = sim_.now();
  r.rtt = sim_.now() - tp->send_time;
  responses_received_->inc(copies);
  if (r.address_mismatch()) address_mismatch_->inc(copies);
  rtt_->observe(r.rtt);
  TURTLE_TRACE(trace_, complete("probe.matched", "zmap", tp->send_time, sim_.now()));
  // Duplicates carry the same payload; record each copy like the real
  // (stateless) receiver would, but cap the expansion per delivery so a
  // DoS flood cannot balloon the result vector.
  std::uint64_t expand = std::min<std::uint32_t>(copies, 16);
  // Global degradation cap: past max_responses the scanner keeps running
  // and counting, it just stops storing rows.
  const std::uint64_t room = config_.max_responses > responses_.size()
                                 ? config_.max_responses - responses_.size()
                                 : 0;
  if (expand > room) {
    if (responses_dropped_ == nullptr) {
      responses_dropped_ = &sim_.registry().counter("fault.zmap.responses_dropped");
    }
    responses_dropped_->inc(expand - room);
    expand = room;
  }
  for (std::uint64_t i = 0; i < expand; ++i) responses_.push_back(r);
}

}  // namespace turtle::probe
