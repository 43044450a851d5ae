// The metrics-series contract of a simulated world: which series a bench
// world creates, clean and under a fault plan, and where a prober's counts
// land when its simulator was built without a registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "hosts/host.h"
#include "probe/scamper.h"
#include "probe/survey.h"
#include "probe/zmap.h"
#include "test_world.h"

namespace turtle {
namespace {

using test::MiniWorld;
using test::plain_profile;

/// Every series (counter, gauge or histogram) whose name starts with
/// `prefix`, sorted.
std::vector<std::string> series(const obs::Registry& reg, std::string_view prefix) {
  std::vector<std::string> names;
  const auto collect = [&](const auto& metrics) {
    for (const auto& [name, metric] : metrics) {
      if (std::string_view{name}.substr(0, prefix.size()) == prefix) names.push_back(name);
    }
  };
  collect(reg.counters());
  collect(reg.gauges());
  collect(reg.histograms());
  std::sort(names.begin(), names.end());
  return names;
}

bench::WorldOptions small_world() {
  bench::WorldOptions options;
  options.num_blocks = 4;
  options.seed = 7;
  return options;
}

TEST(MetricsSeries, CleanSurveyCreatesNoFaultSeries) {
  auto world = bench::make_world(small_world());
  const auto prober = bench::run_survey(*world, 2);
  EXPECT_EQ(prober.probes_sent(), 4u * 256u * 2u);
  EXPECT_FALSE(series(*world->registry, "survey.").empty());
  EXPECT_EQ(series(*world->registry, "fault."), std::vector<std::string>{});
}

TEST(MetricsSeries, DosStormPlanCreatesTheEagerFaultSets) {
  auto options = small_world();
  options.fault_plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::load_file(TURTLE_EXAMPLES_DIR "/faults_dos_storm.json"));
  auto world = bench::make_world(options);
  const auto prober = bench::run_survey(*world, 8);
  EXPECT_GT(prober.probes_sent(), 0u);

  // The injector creates its whole set up front, fired or not; the
  // network binds its applied-side set when the hook is installed.
  EXPECT_EQ(series(*world->registry, "fault.injected."),
            (std::vector<std::string>{"fault.injected.broadcast_copies",
                                      "fault.injected.crashes",
                                      "fault.injected.delayed_packets",
                                      "fault.injected.dup_copies",
                                      "fault.injected.loss_drops",
                                      "fault.injected.outage_drops"}));
  EXPECT_EQ(series(*world->registry, "fault.records."),
            (std::vector<std::string>{"fault.records.detectable", "fault.records.hit",
                                      "fault.records.silent"}));
  EXPECT_EQ(series(*world->registry, "fault.net."),
            (std::vector<std::string>{"fault.net.delayed_packets",
                                      "fault.net.dropped_packets",
                                      "fault.net.extra_copies"}));
  // The plan's crash fired and the prober saw it.
  EXPECT_EQ(world->registry->counter("fault.injected.crashes").value(), 1u);
  EXPECT_EQ(world->registry->counter("fault.survey.crashes").value(), 1u);
}

/// Resolves one address to one host; everything else is dark space.
class OneHostResolver : public sim::AddressResolver {
 public:
  OneHostResolver(net::Ipv4Address addr, sim::PacketSink* sink) : addr_{addr}, sink_{sink} {}
  sim::PacketSink* resolve(const net::Packet& packet) override {
    return packet.dst == addr_ ? sink_ : nullptr;
  }

 private:
  net::Ipv4Address addr_;
  sim::PacketSink* sink_;
};

/// A MiniWorld (its Simulator has no registry) with one responsive host.
struct OneHostWorld {
  net::Prefix24 block = net::Prefix24::from_network(10u << 16);
  net::Ipv4Address target = block.address(10);
  MiniWorld w;
  hosts::Host host{w.ctx, target, plain_profile(SimTime::millis(40)), util::Prng{1}};
  OneHostResolver resolver{target, &host};

  OneHostWorld() { w.net.set_host_resolver(&resolver); }
};

TEST(MetricsSeries, SurveyProberCountsWithoutAnExternalRegistry) {
  OneHostWorld world;
  probe::SurveyConfig config;
  config.rounds = 2;
  probe::SurveyProber prober{world.w.sim, world.w.net, config, {world.block},
                             util::Prng{3}};
  prober.start();
  world.w.sim.run();
  EXPECT_EQ(prober.probes_sent(), 2u * 256u);
  EXPECT_EQ(prober.responses_received(), 2u);
  // The simulator made a registry of its own, and the prober counts there.
  obs::Registry& reg = world.w.sim.registry();
  EXPECT_EQ(reg.counter("survey.probes_sent").value(), prober.probes_sent());
  EXPECT_EQ(reg.counter("survey.responses_received").value(), 2u);
}

TEST(MetricsSeries, ZmapScannerCountsWithoutAnExternalRegistry) {
  OneHostWorld world;
  probe::ZmapScanner scanner{world.w.sim, world.w.net, probe::ZmapConfig{}};
  scanner.start({world.block});
  world.w.sim.run();
  EXPECT_EQ(scanner.probes_sent(), 256u);
  EXPECT_EQ(scanner.responses().size(), 1u);
  obs::Registry& reg = world.w.sim.registry();
  EXPECT_EQ(reg.counter("zmap.probes_sent").value(), scanner.probes_sent());
  EXPECT_EQ(reg.counter("zmap.responses").value(), 1u);
}

TEST(MetricsSeries, ScamperProberCountsWithoutAnExternalRegistry) {
  OneHostWorld world;
  probe::ScamperProber prober{world.w.sim, world.w.net,
                              net::Ipv4Address::from_octets(192, 0, 2, 50)};
  prober.ping(world.target, 3, SimTime::seconds(1), probe::ProbeProtocol::kIcmp, SimTime{});
  world.w.sim.run();
  EXPECT_EQ(prober.probes_sent(), 3u);
  EXPECT_EQ(prober.responses_received(), 3u);
  obs::Registry& reg = world.w.sim.registry();
  EXPECT_EQ(reg.counter("scamper.probes_sent").value(), prober.probes_sent());
  EXPECT_EQ(reg.counter("scamper.responses_received").value(), 3u);
}

}  // namespace
}  // namespace turtle
