// Figure 10: do high-latency hosts treat ICMP, UDP and TCP differently?
// High-latency addresses get probe triplets per protocol (3 probes, 1 s
// apart; protocols separated by 20 minutes, repeated to give each address
// several samples). Paper shape: first-of-triplet (seq 0) RTTs are clearly
// higher than seq 1-2 for every protocol (the radio re-idles between
// triplets); apart from a firewall-generated ~200 ms TCP RST mode with one
// uniform TTL per /24, no protocol gets preferential treatment.
#include <iostream>
#include <map>

#include "analysis/percentiles.h"
#include "harness.h"
#include "report.h"
#include "probe/scamper.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig10_protocol_comparison"};
  auto options = bench::world_options_from_flags(flags, 400);
  bench::wire_obs(options, report);
  auto world = bench::make_world(options);
  const int survey_rounds = static_cast<int>(flags.get_int("rounds", 30));
  const int repeats = static_cast<int>(flags.get_int("repeats", 8));

  // Select high-latency addresses: top of the median/p80/p90/p95 sorts,
  // like the paper's four overlapping samples.
  const auto prober = bench::run_survey(*world, survey_rounds);
  const auto result = bench::analyze_survey(*world, prober);
  std::vector<net::Ipv4Address> targets;
  for (const auto& report : result.addresses) {
    if (report.rtts_s.size() < 10) continue;
    if (util::percentile(report.rtts_s, 50) >= 0.8) targets.push_back(report.address);
  }
  std::printf("# fig10_protocol_comparison: %zu high-median addresses selected\n",
              targets.size());

  probe::ScamperProber scamper{world->sim, *world->net,
                               net::Ipv4Address::from_octets(198, 51, 100, 10)};
  SimTime t = world->sim.now() + SimTime::minutes(5);
  for (int rep = 0; rep < repeats; ++rep) {
    for (const auto proto : {probe::ProbeProtocol::kIcmp, probe::ProbeProtocol::kUdp,
                             probe::ProbeProtocol::kTcpAck}) {
      for (const auto addr : targets) {
        scamper.ping(addr, 3, SimTime::seconds(1), proto, t);
      }
      t += SimTime::minutes(20);
    }
  }
  world->sim.run();

  // Per address x protocol: p98 of seq-0 RTTs and of seq-1/2 RTTs.
  struct Series {
    std::vector<double> seq0;
    std::vector<double> seq12;
  };
  std::map<probe::ProbeProtocol, Series> series;
  std::map<probe::ProbeProtocol, std::size_t> firewall_mode;

  for (const auto addr : targets) {
    for (const auto proto : {probe::ProbeProtocol::kIcmp, probe::ProbeProtocol::kUdp,
                             probe::ProbeProtocol::kTcpAck}) {
      const auto outcomes =
          scamper.results(addr, probe::ScamperProber::kIndefinite, proto);
      std::vector<double> seq0;
      std::vector<double> seq12;
      bool uniform_high_ttl = true;
      std::size_t replies = 0;
      for (const auto& o : outcomes) {
        if (!o.rtt.has_value()) continue;
        ++replies;
        (o.seq % 3 == 0 ? seq0 : seq12).push_back(o.rtt->as_seconds());
        if (o.reply_ttl != 247) uniform_high_ttl = false;
      }
      if (replies == 0) continue;
      if (proto == probe::ProbeProtocol::kTcpAck && uniform_high_ttl) {
        // The firewall cluster: same TTL on every reply in the /24.
        ++firewall_mode[proto];
        continue;  // excluded from the latency comparison, as in the paper
      }
      if (!seq0.empty()) series[proto].seq0.push_back(util::percentile(seq0, 98));
      if (!seq12.empty()) series[proto].seq12.push_back(util::percentile(seq12, 98));
    }
  }

  util::TextTable table({"protocol", "addrs", "median p98 seq0 (s)", "median p98 seq1,2 (s)",
                         "seq0/seq12 ratio"});
  for (auto& [proto, s] : series) {
    if (s.seq0.empty() || s.seq12.empty()) continue;
    const double m0 = util::percentile(s.seq0, 50);
    const double m12 = util::percentile(s.seq12, 50);
    table.add_row({probe::to_string(proto), std::to_string(s.seq0.size()),
                   util::format_double(m0, 2), util::format_double(m12, 2),
                   util::format_double(m12 > 0 ? m0 / m12 : 0, 2)});

    char title[96];
    std::snprintf(title, sizeof title, "98th pct RTT CDF (s), %s seq 0", probe::to_string(proto));
    bench::print_cdf(std::cout, title, util::make_cdf(s.seq0, 20));
    std::snprintf(title, sizeof title, "98th pct RTT CDF (s), %s seq 1,2",
                  probe::to_string(proto));
    bench::print_cdf(std::cout, title, util::make_cdf(s.seq12, 20));
  }

  std::printf("\nSummary (paper: seq 0 notably slower; protocols otherwise equal):\n");
  table.print(std::cout);
  std::printf("\n# TCP responses excluded as firewall RSTs (uniform TTL, ~200 ms): %zu "
              "addresses\n",
              firewall_mode[probe::ProbeProtocol::kTcpAck]);
  report.add_probes(prober.probes_sent() + scamper.probes_sent());
  return 0;
}
