#include "replay.h"

#include <string_view>
#include <utility>

#include "common.h"
#include "daemon/net_transport.h"
#include "daemon/proto.h"

namespace turtlebench {

namespace proto = turtle::daemon::proto;

ReplayTimes replay_daemon(std::shared_ptr<const turtle::serve::OracleSnapshot> snapshot,
                          const std::vector<std::string>& pool,
                          const std::vector<std::uint32_t>& order,
                          const std::vector<std::string>& expected, std::size_t group, bool tcp,
                          SpanLog& spans, std::size_t sample_every) {
  turtle::daemon::NetTransport transport{turtle::serve::ServerConfig{}, std::move(snapshot)};
  proto::LineSplitter splitter;
  ReplayTimes times;
  std::int64_t split_ns = 0;
  std::int64_t parse_ns = 0;
  std::int64_t transport_ns = 0;
  std::int64_t format_ns = 0;

  std::string chunk;
  std::vector<std::string_view> lines;
  std::vector<proto::ParsedRequest> parsed;
  std::vector<turtle::serve::LookupResult> results;
  std::vector<std::string> answers;
  for (std::size_t begin = 0, n = 0; begin + group <= order.size(); begin += group, ++n) {
    const bool sampled = spans.enabled() && n % sample_every == 0;
    const int parent = sampled ? spans.open("replay.group", begin) : SpanLog::kNoParent;
    lines.clear();
    chunk.clear();
    for (std::size_t i = begin; i < begin + group; ++i) {
      chunk += pool[order[i]];
      chunk += '\n';
    }

    std::int64_t t0 = now_ns();
    if (tcp) {
      splitter.feed(chunk, [&lines](std::string_view line) { lines.push_back(line); }, [] {});
    } else {
      // One datagram per request; the daemon trims at the first LF.
      for (std::size_t i = begin; i < begin + group; ++i) lines.emplace_back(pool[order[i]]);
    }
    std::int64_t t1 = now_ns();
    if (tcp && sampled) spans.add("daemon.split", t0, t1, begin, parent);
    split_ns += t1 - t0;

    parsed.clear();
    for (const std::string_view line : lines) {
      proto::ParseError error{};
      auto request = proto::parse_request(line, error);
      if (request.has_value()) parsed.push_back(std::move(*request));
    }
    t0 = now_ns();
    if (sampled) spans.add("daemon.parse", t1, t0, begin, parent);
    parse_ns += t0 - t1;

    results.assign(parsed.size(), {});
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      transport.submit(parsed[i].query, [&results, i](const turtle::serve::LookupResult& result,
                                                      turtle::SimTime) { results[i] = result; });
      if (!tcp) transport.pump();
    }
    if (tcp) transport.pump();
    t1 = now_ns();
    if (sampled) spans.add("daemon.transport", t0, t1, begin, parent);
    transport_ns += t1 - t0;

    answers.clear();
    for (const auto& result : results) answers.push_back(proto::format_query_response(result));
    t0 = now_ns();
    if (sampled) spans.add("daemon.format", t1, t0, begin, parent);
    format_ns += t0 - t1;
    spans.close(parent);

    for (std::size_t i = 0; i < group; ++i) {
      if (i >= answers.size() || answers[i] != expected[order[begin + i]]) ++times.mismatches;
    }
    times.requests += group;
  }
  if (times.requests > 0) {
    const auto per = [&](std::int64_t ns) {
      return static_cast<double>(ns) / static_cast<double>(times.requests);
    };
    times.split_ns = tcp ? per(split_ns) : 0;
    times.parse_ns = per(parse_ns);
    times.transport_ns = per(transport_ns);
    times.format_ns = per(format_ns);
  }
  return times;
}

LookupTimes time_lookups(const turtle::serve::OracleSnapshot& snapshot,
                         const std::vector<std::string>& pool,
                         const std::vector<std::uint32_t>& order, double seconds) {
  // Requests grouped by requested scope, in stream order.
  std::vector<turtle::serve::Request> by_scope[3];
  for (const std::uint32_t index : order) {
    proto::ParseError error{};
    const auto parsed = proto::parse_request(pool[index], error);
    if (!parsed.has_value()) continue;
    by_scope[static_cast<int>(parsed->query.min_scope)].push_back(parsed->query);
  }
  LookupTimes times;
  std::int64_t total_ns[3] = {0, 0, 0};
  std::uint64_t sink = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    for (int s = 0; s < 3; ++s) {
      const std::int64_t t0 = now_ns();
      for (const auto& q : by_scope[s]) {
        sink += snapshot.lookup(q.addr, q.addr_coverage, q.ping_coverage, q.min_scope).samples;
      }
      total_ns[s] += now_ns() - t0;
      times.count[s] += by_scope[s].size();
    }
  } while (now_ns() < deadline);
  for (int s = 0; s < 3; ++s) {
    if (times.count[s] > 0) {
      times.ns[s] = static_cast<double>(total_ns[s]) / static_cast<double>(times.count[s]);
    }
  }
  // Keep the lookups observable so they are not optimised away.
  if (sink == 0xFFFFFFFFFFFFFFFFULL) times.count[0] += 1;
  return times;
}

}  // namespace turtlebench
