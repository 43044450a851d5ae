// Stateless Zmap-style ICMP scanner with the authors' timing extension.
//
// Reproduces the probe module the paper's authors contributed to Zmap
// (module_icmp_echo_time): the echo payload carries the probed destination
// and the send timestamp, so a stateless receiver can compute RTTs with no
// per-probe state and no timeout at all, and can detect broadcast
// responders because the payload's destination differs from the response's
// source. Targets are visited in a pseudo-random permutation, paced evenly
// across the scan duration, exactly one probe per address.
#pragma once

#include <cstdint>
#include <vector>

#include "net/icmp.h"
#include "net/ipv4.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/sim_time.h"

namespace turtle::probe {

struct ZmapConfig {
  net::Ipv4Address vantage = net::Ipv4Address::from_octets(198, 51, 100, 7);
  /// Wall time the scan is spread over (the real scans took 10.5 h; the
  /// simulated default is compressed — pacing only affects event spacing).
  SimTime scan_duration = SimTime::hours(1);
  std::uint16_t icmp_id = 0x5A4D;
  /// Probes sent per batch event (reduces event-queue pressure; pacing
  /// within a batch is back-to-back, matching Zmap's bursty send loop).
  int batch_size = 64;
  /// Permutation seed (Zmap randomizes target order).
  std::uint64_t permutation_seed = 1;
  /// Hard cap on stored response rows (graceful degradation): past it,
  /// further responses are counted under "fault.zmap.responses_dropped"
  /// and discarded, so a duplicate/DoS storm cannot grow the result
  /// vector without bound. Never reached by clean runs.
  std::size_t max_responses = std::size_t{1} << 22;
};

/// One received echo response, as the scanner's output row.
struct ZmapResponse {
  net::Ipv4Address responder;    ///< response source address
  net::Ipv4Address probed_dst;   ///< destination from the timing payload
  SimTime rtt;
  SimTime recv_time;

  /// True when the response came from a different address than was probed
  /// — the broadcast-responder signature.
  [[nodiscard]] bool address_mismatch() const { return responder != probed_dst; }
};

class ZmapScanner : public sim::PacketSink {
 public:
  /// Counts into the simulator's registry ("zmap.*" counters and the
  /// "zmap.rtt" histogram of stateless-matched RTTs) and, when the
  /// simulator traces, records one span per matched response (send →
  /// receive, from the timing payload). A metric cell is per registry, so
  /// scans on one simulator share their counts.
  ZmapScanner(sim::Simulator& sim, sim::Network& net, ZmapConfig config);

  /// Probes all 256 addresses of every block, once each, spread over the
  /// configured duration. Run the simulator afterwards; because matching
  /// is stateless there is no timeout — every response that ever arrives
  /// is recorded with its true RTT.
  void start(const std::vector<net::Prefix24>& blocks);

  void deliver(const net::Packet& packet, std::uint32_t copies) override;

  [[nodiscard]] const std::vector<ZmapResponse>& responses() const { return responses_; }
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_->value(); }

 private:
  void send_batch(std::uint64_t start_index);
  void probe_index(std::uint64_t index);

  sim::Simulator& sim_;
  sim::Network& net_;
  ZmapConfig config_;

  std::vector<net::Prefix24> blocks_;
  std::uint64_t total_targets_ = 0;
  std::uint64_t stride_ = 1;  ///< multiplicative permutation step
  SimTime batch_gap_;

  std::vector<ZmapResponse> responses_;

  obs::Counter* probes_sent_;          ///< "zmap.probes_sent"
  obs::Counter* responses_received_;   ///< "zmap.responses"
  obs::Counter* address_mismatch_;     ///< "zmap.address_mismatch"
  obs::Histogram* rtt_;              ///< "zmap.rtt"
  /// "fault.zmap.responses_dropped"; bound lazily so clean runs never
  /// create the fault series.
  obs::Counter* responses_dropped_ = nullptr;
  obs::TraceSink* trace_;
};

}  // namespace turtle::probe
