// tcp_pipelined: four TCP connections on one epoll thread, each a closed
// loop that writes a batch of 64 QUERY lines in one write, waits for all
// 64 answers, and repeats — how a prober asks for one /24's timeouts.
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "replay.h"
#include "setup.h"
#include "workloads.h"

namespace turtlebench {

namespace {

constexpr int kConnections = 4;
constexpr std::size_t kBatch = 64;  // 4 x 64 stays under ServerConfig::queue_capacity
constexpr std::size_t kRing = 1 << 16;
constexpr std::size_t kUnitBatches = 16;  // wall_s: one prober's 1024 answers
constexpr std::size_t kSampleEvery = 16;  // traced: one batch span in 16
constexpr std::int64_t kGiveUpNs = 5'000'000'000;

const SurveyShape kShape{400, 4, 10};  // ~0.4 MB snapshot, cache-resident
const QueryMix kMix{0.05, 0.05, false, 1.0};

struct Conn {
  int fd = -1;
  std::size_t cursor = 0;  ///< stream position of the current batch
  std::size_t received = 0;
  std::int64_t sent_ns = 0;
  std::string buffer;
  bool active = true;
  std::size_t batches_done = 0;
  std::int64_t unit_start_ns = 0;
};

struct LoopResult {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t within_slo = 0;
  std::vector<double> latency_us;
  std::vector<double> batch_rtt_us;
  std::vector<double> unit_wall_s;
  std::uint64_t reads = 0;
  std::uint64_t lines = 0;
  double elapsed_s = 0;
};

LoopResult closed_loop(DaemonSetup& setup, double seconds, SpanLog& spans, Outcome& outcome) {
  const auto& order = setup.stream.order;
  const auto& expected = setup.expected[0];
  LoopResult result;
  std::vector<Conn> conns(kConnections);
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  for (int c = 0; c < kConnections; ++c) {
    conns[c].fd = connect_tcp(setup.daemon->tcp_port());
    if (conns[c].fd < 0) {
      outcome.fail("cannot connect to turtled");
      conns[c].active = false;
      continue;
    }
    conns[c].cursor = static_cast<std::size_t>(c) * (kRing / kConnections);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(c);
    epoll_ctl(ep, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }

  std::string wire;
  const auto send_batch = [&](Conn& conn, std::int64_t now) {
    wire.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      wire += setup.stream.pool[order[conn.cursor + i]];
      wire += '\n';
    }
    conn.received = 0;
    conn.sent_ns = now;
    if (write(conn.fd, wire.data(), wire.size()) != static_cast<ssize_t>(wire.size())) {
      outcome.fail("short batch write");
      conn.active = false;
    }
  };

  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last_done = start;
  for (Conn& conn : conns) {
    if (!conn.active) continue;
    conn.unit_start_ns = start;
    send_batch(conn, start);
  }
  char buf[64 * 1024];
  epoll_event events[kConnections];
  while (std::any_of(conns.begin(), conns.end(), [](const Conn& c) { return c.active; })) {
    const int n = epoll_wait(ep, events, kConnections, 10);
    const std::int64_t now = now_ns();
    for (int e = 0; e < n; ++e) {
      Conn& conn = conns[events[e].data.u32];
      if (!conn.active) continue;
      while (true) {
        const ssize_t got = read(conn.fd, buf, sizeof buf);
        if (got <= 0) break;
        conn.buffer.append(buf, static_cast<std::size_t>(got));
        std::size_t lines_here = 0;
        std::size_t pos = 0;
        for (std::size_t nl; (nl = conn.buffer.find('\n', pos)) != std::string::npos; pos = nl + 1) {
          const std::string_view line{conn.buffer.data() + pos, nl - pos};
          if (conn.received >= kBatch) {
            outcome.fail("unsolicited reply line");
            continue;
          }
          const std::size_t index = conn.cursor + conn.received++;
          ++lines_here;
          const double latency_us = static_cast<double>(now - conn.sent_ns) / 1e3;
          if (line == expected[order[index]]) {
            ++result.ok;
            result.latency_us.push_back(latency_us);
            if (latency_us <= kSloP99Us) ++result.within_slo;
          } else {
            ++result.failed;
            result.latency_us.push_back(static_cast<double>(kGiveUpNs) / 1e3);
            if (line.rfind("ERR overloaded", 0) != 0) {
              ++result.wrong;
              if (result.wrong <= 3) {
                outcome.fail("wrong TCP answer to '" + setup.stream.pool[order[index]] +
                             "': '" + std::string{line} + "'");
              }
            }
          }
        }
        conn.buffer.erase(0, pos);
        if (lines_here > 0) {
          ++result.reads;
          result.lines += lines_here;
        }
      }
      if (conn.received == kBatch) {
        result.batch_rtt_us.push_back(static_cast<double>(now - conn.sent_ns) / 1e3);
        if (spans.enabled() && conn.cursor % (kBatch * kSampleEvery) == 0) {
          spans.add("client.batch", conn.sent_ns, now, conn.cursor);
        }
        last_done = now;
        if (++conn.batches_done % kUnitBatches == 0) {
          result.unit_wall_s.push_back(ns_to_s(now - conn.unit_start_ns));
          conn.unit_start_ns = now;
        }
        conn.cursor = (conn.cursor + kBatch) % kRing;
        if (now < deadline) {
          send_batch(conn, now);
        } else {
          conn.active = false;
        }
      }
    }
    for (Conn& conn : conns) {
      if (conn.active && now - conn.sent_ns > kGiveUpNs) {
        const std::size_t missing = kBatch - conn.received;
        result.failed += missing;
        result.latency_us.insert(result.latency_us.end(), missing,
                                 static_cast<double>(kGiveUpNs) / 1e3);
        outcome.fail("batch unanswered after the give-up time");
        conn.active = false;
      }
    }
  }
  result.elapsed_s = ns_to_s(last_done - start);
  for (Conn& conn : conns) {
    if (conn.fd >= 0) close(conn.fd);
  }
  close(ep);
  return result;
}

}  // namespace

Outcome run_tcp_pipelined(const Options& options, SpanLog& spans) {
  Outcome outcome;
  MetricSet& m = outcome.metrics;
  double setup_s = 0;
  const int setups = options.trace ? 1 : kSetupRepeats;
  auto setup = set_up_daemon_median(options, kShape, 1, kMix, kRing, spans, setups, setup_s,
                                    outcome);
  const pid_t pid = setup->daemon->pid();

  // Untraced measurement; in a traced run the first half of the time, so
  // the traced second half can be compared with it.
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  SpanLog off{false};
  PhaseUsage usage;
  usage.daemon_before = read_proc(pid);
  usage.client_before = read_this_thread();
  const std::int64_t t0 = now_ns();
  LoopResult run = closed_loop(*setup, untraced_s, off, outcome);
  usage.wall_s = ns_to_s(now_ns() - t0);
  usage.daemon_after = read_proc(pid);
  usage.client_after = read_this_thread();
  usage.requests = run.ok + run.failed;
  const double qps = run.elapsed_s > 0 ? static_cast<double>(run.ok) / run.elapsed_s : 0;

  if (!options.trace) {
    outcome.attempted = run.ok + run.failed;
    outcome.failed = run.failed;
    const std::uint64_t n = run.latency_us.size();
    m.set("setup_s", setup_s, "s", static_cast<std::uint64_t>(setups));
    m.set("qps", qps, "1/s", run.ok);
    m.set("max_qps_at_slo", static_cast<double>(run.within_slo) / run.elapsed_s, "1/s",
          run.within_slo);
    m.set("latency_p50_us", percentile(run.latency_us, 50), "us", n);
    m.set("latency_p99_us", percentile(run.latency_us, 99), "us", n);
    m.set("latency_p999_us", percentile(run.latency_us, 99.9), "us", n);
    m.set("ok_frac", outcome.attempted ? static_cast<double>(run.ok) / outcome.attempted : 0,
          "ratio", outcome.attempted);
    m.set("peak_rss_mb", usage.daemon_after.hwm_mb, "MiB", 1);
    m.set("wall_s", median(run.unit_wall_s), "s", run.unit_wall_s.size());
    stop_daemon(*setup, outcome);
    return outcome;
  }

  // Traced half, then the in-process replay of the same byte stream.
  LoopResult traced = closed_loop(*setup, options.seconds / 2, spans, outcome);
  const double traced_qps = traced.elapsed_s > 0 ? traced.ok / traced.elapsed_s : 0;
  outcome.attempted = run.ok + run.failed + traced.ok + traced.failed;
  outcome.failed = run.failed + traced.failed;

  const BuiltSnapshot& snap = setup->snapshots[0];
  const ReplayTimes replay = replay_daemon(snap.mapped, setup->stream.pool, setup->stream.order,
                                           setup->expected[0], kBatch, /*tcp=*/true, spans,
                                           kSampleEvery);
  if (replay.mismatches > 0) outcome.fail("in-process replay disagrees with the reference");
  const LookupTimes lookups =
      time_lookups(*snap.mapped, setup->stream.pool, setup->stream.order, 0.5);
  const turtle::util::JsonValue dump = stop_daemon(*setup, outcome);

  set_daemon_layers(m, snap, lookups, replay, dump, usage);
  m.set("loadgen.responses_per_read",
        run.reads ? static_cast<double>(run.lines) / run.reads : 0, "count", run.reads);
  m.set("loadgen.batch_rtt_us_p50", percentile(run.batch_rtt_us, 50), "us",
        run.batch_rtt_us.size());
  m.set("loadgen.samples", static_cast<double>(run.latency_us.size()), "count", 1);
  m.set("trace.overhead_frac", qps > 0 ? (qps - traced_qps) / qps : 0, "ratio", 2);
  return outcome;
}

}  // namespace turtlebench
