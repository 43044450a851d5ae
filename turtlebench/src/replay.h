// In-process replay of a workload's exact request bytes through the
// daemon's own stages — line split, parse, NetTransport submit + pump,
// format — timed stage by stage from outside. This is what the traced run
// uses to split a socket round trip into per-layer costs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/oracle_snapshot.h"
#include "spans.h"

namespace turtlebench {

struct ReplayTimes {
  double split_ns = 0;  ///< per request; 0 when the path has no splitter (UDP)
  double parse_ns = 0;
  double transport_ns = 0;
  double format_ns = 0;
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;  ///< replayed answers that differ from `expected`
};

/// Replays `order` (pool indices) in groups of `group` requests. With
/// `tcp` the group is one byte chunk fed through proto::LineSplitter and
/// pumped once, as one TCP read is; without it every request is its own
/// datagram and pump, as at a low UDP rate. Every `sample_every`-th group
/// records spans whose id is the group's first request index.
ReplayTimes replay_daemon(std::shared_ptr<const turtle::serve::OracleSnapshot> snapshot,
                          const std::vector<std::string>& pool,
                          const std::vector<std::uint32_t>& order,
                          const std::vector<std::string>& expected, std::size_t group, bool tcp,
                          SpanLog& spans, std::size_t sample_every);

struct LookupTimes {
  double ns[3] = {0, 0, 0};  ///< indexed by requested scope: block, as, global
  std::uint64_t count[3] = {0, 0, 0};
};

/// Times OracleSnapshot::lookup over the stream's requests, per requested
/// scope, in passes over the stream until `seconds` have elapsed.
LookupTimes time_lookups(const turtle::serve::OracleSnapshot& snapshot,
                         const std::vector<std::string>& pool,
                         const std::vector<std::uint32_t>& order, double seconds);

}  // namespace turtlebench
