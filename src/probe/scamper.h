// Scamper-style targeted prober (Sections 5.1, 5.3, 6.3, 6.4).
//
// Sends configurable ping streams — count, spacing, protocol (ICMP echo /
// UDP / TCP ACK) — to individual targets and records every probe and every
// response. Unlike the survey prober, matching is exact: each probe
// carries a unique token (ICMP seq, UDP source port, TCP ack number) that
// its response echoes back, as the real tools' matching does.
//
// The timeout is deliberately *not* applied at receive time. Every
// response ever received is stored with its true arrival time, and
// `results()` applies a timeout at query time. Querying with the default
// 2 s reproduces scamper's behaviour; querying with a huge value
// reproduces the paper's "run tcpdump alongside" indefinite capture.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/icmp.h"
#include "net/ipv4.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/sim_time.h"

namespace turtle::probe {

enum class ProbeProtocol : std::uint8_t { kIcmp, kUdp, kTcpAck };

[[nodiscard]] constexpr const char* to_string(ProbeProtocol p) {
  switch (p) {
    case ProbeProtocol::kIcmp: return "ICMP";
    case ProbeProtocol::kUdp: return "UDP";
    case ProbeProtocol::kTcpAck: return "TCP";
  }
  return "?";
}

/// Outcome of one probe after timeout-at-query-time matching.
struct ProbeOutcome {
  std::uint32_t seq = 0;          ///< position within the target's stream
  ProbeProtocol protocol = ProbeProtocol::kIcmp;
  SimTime send_time;
  std::optional<SimTime> rtt;     ///< empty = no response within timeout
  std::uint8_t reply_ttl = 0;     ///< TTL observed on the reply
  std::uint32_t duplicate_responses = 0;  ///< extra responses to this probe
};

class ScamperProber : public sim::PacketSink {
 public:
  /// A timeout value meaning "match responses no matter how late" — the
  /// tcpdump-capture configuration.
  static constexpr SimTime kIndefinite = SimTime::micros(std::numeric_limits<std::int64_t>::max() / 4);

  /// Counts into the simulator's registry ("scamper.*" counters and the
  /// "scamper.rtt" histogram of first-response RTTs) and, when the
  /// simulator traces, records one span per first response.
  ScamperProber(sim::Simulator& sim, sim::Network& net, net::Ipv4Address vantage);

  /// Schedules a stream of `count` probes to `target`, one every
  /// `interval`, starting at absolute time `start`.
  void ping(net::Ipv4Address target, int count, SimTime interval, ProbeProtocol protocol,
            SimTime start);

  void deliver(const net::Packet& packet, std::uint32_t copies) override;

  /// Probe outcomes for one target (optionally one protocol), in stream
  /// order, matching responses within `timeout` of their probe.
  [[nodiscard]] std::vector<ProbeOutcome> results(
      net::Ipv4Address target, SimTime timeout = SimTime::seconds(2),
      std::optional<ProbeProtocol> protocol = std::nullopt) const;

  /// Targets that responded to at least one probe within `timeout`.
  [[nodiscard]] std::vector<net::Ipv4Address> responsive_targets(
      SimTime timeout = kIndefinite) const;

  /// Graceful-degradation bound: per-probe duplicate responses beyond
  /// this are counted under "fault.scamper.dups_suppressed" instead of
  /// accumulated, so a DoS storm saturates a u32 statistic rather than
  /// skewing it. Clean runs never reach the default.
  void set_max_duplicates_per_probe(std::uint32_t cap) { max_duplicates_per_probe_ = cap; }

  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_->value(); }
  [[nodiscard]] std::uint64_t responses_received() const {
    return responses_received_->value();
  }

 private:
  struct SentProbe {
    std::uint32_t seq;
    ProbeProtocol protocol;
    SimTime send_time;
    std::optional<SimTime> reply_time;  ///< first response
    std::uint8_t reply_ttl = 0;
    std::uint32_t duplicate_responses = 0;
  };

  struct TargetState {
    std::vector<SentProbe> probes;
    /// token -> index into probes (token meaning depends on protocol).
    std::unordered_map<std::uint32_t, std::size_t> by_token;
  };

  void send_probe(net::Ipv4Address target, ProbeProtocol protocol);
  void note_response(net::Ipv4Address src, std::uint32_t token, std::uint8_t ttl,
                     std::uint32_t copies);

  sim::Simulator& sim_;
  sim::Network& net_;
  net::Ipv4Address vantage_;
  bool attached_ = false;

  std::unordered_map<std::uint32_t, TargetState> targets_;
  std::uint32_t next_token_ = 1;
  std::uint32_t max_duplicates_per_probe_ = std::uint32_t{1} << 20;

  obs::Counter* probes_sent_;          ///< "scamper.probes_sent"
  obs::Counter* responses_received_;   ///< "scamper.responses_received"
  obs::Histogram* rtt_;                ///< "scamper.rtt" (first responses)
  /// "fault.scamper.dups_suppressed"; bound lazily (clean runs never
  /// create the fault series).
  obs::Counter* dups_suppressed_ = nullptr;
  obs::TraceSink* trace_;
};

}  // namespace turtle::probe
