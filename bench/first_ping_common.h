// Shared harness for the first-ping experiment behind Figures 12, 13, 14
// (Section 6.3). Protocol follows the paper:
//   1. From a survey, select addresses with median RTT >= 1 s.
//   2. Send two pings 5 s apart (60 s timeout); drop addresses that did
//      not answer either, or whose mean response is under 200 ms.
//   3. Wait ~80 s (long past any radio idle timeout), send ten pings one
//      second apart, and classify RTT_1 against RTT_2..n.
#pragma once

#include <cstdio>

#include "analysis/first_ping.h"
#include "analysis/percentiles.h"
#include "harness.h"
#include "probe/scamper.h"

namespace turtle::bench {

struct FirstPingExperiment {
  analysis::FirstPingSummary summary;
  std::size_t selected = 0;   ///< high-median addresses from the survey
  std::size_t screened = 0;   ///< answered the two-ping screen
  std::uint64_t probes = 0;   ///< survey + screen + stream probes

  /// `report` receives the world's metrics/trace directly (wire_obs), so
  /// --metrics-out works on every first-ping bench.
  static FirstPingExperiment run(const util::Flags& flags, JsonReport& report) {
    auto options = world_options_from_flags(flags, 400);
    wire_obs(options, report);
    auto world = make_world(options);
    const int survey_rounds = static_cast<int>(flags.get_int("rounds", 30));

    const auto prober = run_survey(*world, survey_rounds);
    const auto result = analyze_survey(*world, prober);

    std::vector<net::Ipv4Address> candidates;
    for (const auto& report : result.addresses) {
      if (report.rtts_s.size() < 10) continue;
      if (util::percentile(report.rtts_s, 50) >= 1.0) candidates.push_back(report.address);
    }

    FirstPingExperiment exp;
    exp.selected = candidates.size();

    probe::ScamperProber scamper{world->sim, *world->net,
                                 net::Ipv4Address::from_octets(198, 51, 100, 11)};
    const SimTime screen_start = world->sim.now() + SimTime::minutes(2);
    for (const auto addr : candidates) {
      scamper.ping(addr, 2, SimTime::seconds(5), probe::ProbeProtocol::kIcmp, screen_start);
    }
    // The ten-ping stream starts ~80 s after the screen finishes.
    const SimTime stream_start = screen_start + SimTime::seconds(5 + 80);
    for (const auto addr : candidates) {
      scamper.ping(addr, 10, SimTime::seconds(1), probe::ProbeProtocol::kIcmp, stream_start);
    }
    world->sim.run();

    const SimTime timeout = SimTime::seconds(60);
    std::vector<analysis::FirstPingObservation> observations;
    for (const auto addr : candidates) {
      const auto outcomes = scamper.results(addr, timeout);
      if (outcomes.size() < 12) continue;
      // Screen: both of the first two probes, mean >= 200 ms.
      const auto& s0 = outcomes[0];
      const auto& s1 = outcomes[1];
      if (!s0.rtt.has_value() && !s1.rtt.has_value()) continue;
      double mean = 0;
      int n = 0;
      for (const auto* s : {&s0, &s1}) {
        if (s->rtt.has_value()) {
          mean += s->rtt->as_seconds();
          ++n;
        }
      }
      if (n == 0 || mean / n < 0.2) continue;
      ++exp.screened;

      const std::span<const probe::ProbeOutcome> stream{outcomes.data() + 2,
                                                        outcomes.size() - 2};
      observations.push_back(analysis::classify_first_ping(addr, stream));
    }
    exp.summary = analysis::summarize_first_ping(observations);
    exp.probes = prober.probes_sent() + scamper.probes_sent();
    return exp;
  }

  void print_header(const char* name) const {
    std::printf("# %s: %zu high-median addresses, %zu passed the two-ping screen\n", name,
                selected, screened);
    const auto& s = summary;
    const std::uint64_t classified =
        s.first_exceeds_max + s.first_above_median + s.first_below_median;
    std::printf("# classified %llu: RTT1>max %llu (%.0f%%; paper ~2/3), "
                "median<RTT1<=max %llu, RTT1<=median %llu; no-first %llu, too-few %llu\n",
                static_cast<unsigned long long>(classified),
                static_cast<unsigned long long>(s.first_exceeds_max),
                classified ? 100.0 * s.first_exceeds_max / classified : 0.0,
                static_cast<unsigned long long>(s.first_above_median),
                static_cast<unsigned long long>(s.first_below_median),
                static_cast<unsigned long long>(s.no_first_response),
                static_cast<unsigned long long>(s.too_few));
  }
};

}  // namespace turtle::bench
