#include "probe/scamper.h"

#include <algorithm>

namespace turtle::probe {

ScamperProber::ScamperProber(sim::Simulator& sim, sim::Network& net,
                             net::Ipv4Address vantage)
    : sim_{sim},
      net_{net},
      vantage_{vantage},
      probes_sent_{&sim.registry().counter("scamper.probes_sent")},
      responses_received_{&sim.registry().counter("scamper.responses_received")},
      rtt_{&sim.registry().histogram("scamper.rtt")},
      trace_{sim.trace()} {}

void ScamperProber::ping(net::Ipv4Address target, int count, SimTime interval,
                         ProbeProtocol protocol, SimTime start) {
  if (!attached_) {
    net_.attach_endpoint(vantage_, this);
    attached_ = true;
  }
  for (int i = 0; i < count; ++i) {
    sim_.schedule_at(start + interval * i,
                     [this, target, protocol] { send_probe(target, protocol); });
  }
}

void ScamperProber::send_probe(net::Ipv4Address target, ProbeProtocol protocol) {
  TargetState& state = targets_[target.value()];
  const std::uint32_t token = next_token_++;

  SentProbe probe;
  probe.protocol = protocol;
  probe.send_time = sim_.now();
  probe.seq = static_cast<std::uint32_t>(
      std::count_if(state.probes.begin(), state.probes.end(),
                    [protocol](const SentProbe& p) { return p.protocol == protocol; }));
  state.by_token.emplace(token, state.probes.size());
  state.probes.push_back(probe);

  net::Packet packet;
  packet.src = vantage_;
  packet.dst = target;

  switch (protocol) {
    case ProbeProtocol::kIcmp: {
      net::IcmpMessage echo;
      echo.type = net::IcmpType::kEchoRequest;
      echo.id = static_cast<std::uint16_t>(token >> 16);
      echo.seq = static_cast<std::uint16_t>(token & 0xFFFF);
      packet.protocol = net::Protocol::kIcmp;
      packet.payload = net::serialize_icmp(echo);
      break;
    }
    case ProbeProtocol::kUdp: {
      net::UdpDatagram dgram;
      dgram.src_port = static_cast<std::uint16_t>(token >> 16);
      dgram.dst_port = static_cast<std::uint16_t>(token & 0xFFFF);
      packet.protocol = net::Protocol::kUdp;
      packet.payload = net::serialize_udp(dgram, vantage_, target);
      break;
    }
    case ProbeProtocol::kTcpAck: {
      net::TcpSegment seg;
      seg.src_port = 40321;
      seg.dst_port = 80;
      seg.seq = 0x1000;
      seg.ack = token;  // the RST echoes this in its seq field
      seg.flags = net::TcpFlags::kAck;
      seg.window = 1024;
      packet.protocol = net::Protocol::kTcp;
      packet.payload = net::serialize_tcp(seg, vantage_, target);
      break;
    }
  }

  probes_sent_->inc();
  net_.send(packet);
}

void ScamperProber::deliver(const net::Packet& packet, std::uint32_t copies) {
  switch (packet.protocol) {
    case net::Protocol::kIcmp: {
      const auto msg = net::parse_icmp(packet.payload.view());
      if (!msg.has_value()) return;
      if (msg->is_echo_reply()) {
        const std::uint32_t token =
            (static_cast<std::uint32_t>(msg->id) << 16) | msg->seq;
        note_response(packet.src, token, packet.ttl, copies);
      } else if (msg->type == net::IcmpType::kDestinationUnreachable &&
                 msg->code == net::UnreachableCode::kPort) {
        // Response to a UDP probe: the embedded transport prefix is the
        // original UDP header, whose ports carry the token.
        const auto up = net::UnreachablePayload::decode(msg->payload.view());
        if (!up.has_value()) return;
        const std::uint32_t token =
            (static_cast<std::uint32_t>(up->transport_prefix[0]) << 24) |
            (static_cast<std::uint32_t>(up->transport_prefix[1]) << 16) |
            (static_cast<std::uint32_t>(up->transport_prefix[2]) << 8) |
            up->transport_prefix[3];
        note_response(up->original_dst, token, packet.ttl, copies);
      }
      return;
    }
    case net::Protocol::kTcp: {
      const auto seg = net::parse_tcp(packet.payload.view(), packet.src, vantage_);
      if (!seg.has_value() || !seg->has(net::TcpFlags::kRst)) return;
      note_response(packet.src, seg->seq, packet.ttl, copies);
      return;
    }
    case net::Protocol::kUdp:
      return;  // no probe elicits a raw UDP reply
  }
}

void ScamperProber::note_response(net::Ipv4Address src, std::uint32_t token, std::uint8_t ttl,
                                  std::uint32_t copies) {
  responses_received_->inc(copies);
  const auto target_it = targets_.find(src.value());
  if (target_it == targets_.end()) return;
  TargetState& state = target_it->second;
  const auto token_it = state.by_token.find(token);
  if (token_it == state.by_token.end()) return;

  SentProbe& probe = state.probes[token_it->second];
  std::uint32_t extra = copies;
  if (!probe.reply_time.has_value()) {
    probe.reply_time = sim_.now();
    probe.reply_ttl = ttl;
    extra = copies - 1;
    rtt_->observe(sim_.now() - probe.send_time);
    TURTLE_TRACE(trace_,
                 complete("probe.matched", "scamper", probe.send_time, sim_.now()));
  }
  // Saturating duplicate accounting: a storm past the cap is suppressed
  // (and counted) instead of accumulated toward a u32 wrap.
  const std::uint32_t room = max_duplicates_per_probe_ > probe.duplicate_responses
                                 ? max_duplicates_per_probe_ - probe.duplicate_responses
                                 : 0;
  if (extra > room) {
    if (dups_suppressed_ == nullptr) {
      dups_suppressed_ = &sim_.registry().counter("fault.scamper.dups_suppressed");
    }
    dups_suppressed_->inc(extra - room);
    extra = room;
  }
  probe.duplicate_responses += extra;
}

std::vector<ProbeOutcome> ScamperProber::results(net::Ipv4Address target, SimTime timeout,
                                                 std::optional<ProbeProtocol> protocol) const {
  std::vector<ProbeOutcome> out;
  const auto it = targets_.find(target.value());
  if (it == targets_.end()) return out;

  for (const SentProbe& probe : it->second.probes) {
    if (protocol.has_value() && probe.protocol != *protocol) continue;
    ProbeOutcome outcome;
    outcome.seq = probe.seq;
    outcome.protocol = probe.protocol;
    outcome.send_time = probe.send_time;
    outcome.reply_ttl = probe.reply_ttl;
    outcome.duplicate_responses = probe.duplicate_responses;
    if (probe.reply_time.has_value()) {
      const SimTime rtt = *probe.reply_time - probe.send_time;
      if (rtt <= timeout) outcome.rtt = rtt;
    }
    out.push_back(outcome);
  }
  return out;
}

std::vector<net::Ipv4Address> ScamperProber::responsive_targets(SimTime timeout) const {
  std::vector<net::Ipv4Address> out;
  for (const auto& [addr, state] : targets_) {
    const bool responded = std::any_of(
        state.probes.begin(), state.probes.end(), [timeout](const SentProbe& p) {
          return p.reply_time.has_value() && *p.reply_time - p.send_time <= timeout;
        });
    if (responded) out.push_back(net::Ipv4Address{addr});
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace turtle::probe
