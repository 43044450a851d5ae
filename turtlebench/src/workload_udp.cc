// udp_open_loop: one datagram per query, sent open loop with Poisson
// arrivals — independent probers — against a snapshot far larger than
// L2, with uniform addresses so lookups run cache-cold, while an admin
// connection hot-SWAPs between two same-size snapshot files.
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <unordered_set>

#include "recorder.h"
#include "replay.h"
#include "setup.h"
#include "util/prng.h"
#include "workloads.h"

namespace turtlebench {

namespace {

const SurveyShape kShape{20'000, 4, 10};  // ~18 MB snapshot
const QueryMix kMix{0.2, 0.2, true, 0};   // uniform blocks; block/as/global 60/20/20
constexpr std::size_t kRing = 1 << 20;
constexpr std::int64_t kGiveUpNs = 1'000'000'000;
constexpr std::size_t kSampleEvery = 16;  // traced: one request span in 1024

/// Reference rate for the latency percentiles, far below the seed's knee.
/// A swap stalls the event loop for the whole map (50-80 ms at the seed);
/// at this rate its backlog still fits the daemon's default socket buffer
/// (~270 datagrams), so a swap delays requests instead of dropping them.
constexpr double kReferenceRate = 2'000;
/// One swap per this many seconds of the reference phase (at least one):
/// the requests a swap delays (a ~50 ms stall and its drain, ~0.3% of the
/// phase) stay well under 1%, so p99 reads the steady state and p99.9
/// reads the swap.
constexpr double kSwapEverySeconds = 25.0;
/// The fixed ladder of offered rates for max_qps_at_slo: coarse up to
/// 20k/s, then 5% apart, so a one-step wobble at the knee moves the
/// figure by 5% only.
const std::vector<double>& ladder_rates() {
  static const std::vector<double> rates = [] {
    std::vector<double> out{5'000, 10'000, 15'000};
    for (double rate = 20'000; rate <= 400'000; rate *= 1.05) out.push_back(std::round(rate / 100) * 100);
    return out;
  }();
  return rates;
}
constexpr double kStepSeconds = 0.5;
constexpr int kBursts = 50;
constexpr std::int64_t kBurstGapNs = 10'000'000;  // spread over 0.5 s
constexpr std::size_t kBurst = 128;  // fits the daemon's default receive buffer

struct Client {
  DaemonSetup& setup;
  int fd = -1;
  int admin_fd = -1;
  std::size_t cursor = 0;  ///< next stream position
  int live_version = 1;
  /// Every reference answer line, to tell a late reply to a request the
  /// client already gave up on from a wrong answer.
  std::unordered_set<std::string_view> answers;
  /// Overloaded ladder trials may see late replies; other phases may not.
  bool tolerate_late = false;
};

struct PhaseResult {
  std::unique_ptr<OpenLoopRecorder> recorder;
  std::uint64_t wrong = 0;
  std::uint64_t late = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t replies = 0;
  std::vector<double> swap_ms;
  std::int64_t last_done_ns = 0;
};

/// Runs one open-loop phase: sends request i at schedule[i], issues a
/// SWAP to the other snapshot at each of `swaps`, and matches replies in
/// order (the daemon answers datagrams in arrival order).
PhaseResult run_phase(Client& client, std::vector<std::int64_t> schedule,
                      std::vector<std::int64_t> swaps, SpanLog& spans, Outcome& outcome) {
  DaemonSetup& setup = client.setup;
  const auto& order = setup.stream.order;
  PhaseResult result;
  result.recorder = std::make_unique<OpenLoopRecorder>(std::move(schedule));
  OpenLoopRecorder& rec = *result.recorder;
  const std::size_t base = client.cursor;
  const auto pool_of = [&](std::size_t i) { return order[(base + i) % kRing]; };
  std::deque<std::size_t> pending;
  std::size_t next_swap = 0;
  std::int64_t swap_sent = -1;
  std::string admin_buffer;

  constexpr int kVec = 64;
  mmsghdr out[kVec];
  iovec out_iov[kVec];
  mmsghdr in[kVec];
  iovec in_iov[kVec];
  char in_buf[kVec][512];
  for (int k = 0; k < kVec; ++k) {
    in_iov[k] = iovec{in_buf[k], sizeof in_buf[k]};
    in[k] = mmsghdr{};
    in[k].msg_hdr.msg_iov = &in_iov[k];
    in[k].msg_hdr.msg_iovlen = 1;
  }

  const auto finish = [&](std::size_t i, std::int64_t now, bool ok) {
    rec.mark_done(i, now, ok);
    if (ok) {
      result.last_done_ns = now;
      if (spans.enabled() && (base + i) % (64 * kSampleEvery) == 0) {
        spans.add("client.request", rec.intended(i), now, (base + i) % kRing);
      }
    }
  };
  const auto matches = [&](std::string_view reply, std::size_t i) {
    const auto at = reply.rfind(" version=");
    if (at == std::string_view::npos) return false;
    int version = 0;
    std::from_chars(reply.data() + at + 9, reply.data() + reply.size(), version);
    if (version < 1 || version > static_cast<int>(setup.expected.size())) return false;
    return reply == setup.expected[static_cast<std::size_t>(version - 1)][pool_of(i)];
  };

  while (true) {
    std::int64_t now = now_ns();
    // Send everything that is due, in one sendmmsg.
    int batch = 0;
    while (batch < kVec && rec.next_unsent() + static_cast<std::size_t>(batch) < rec.size() &&
           rec.intended(rec.next_unsent() + static_cast<std::size_t>(batch)) <= now) {
      const std::string& line = setup.stream.pool[pool_of(rec.next_unsent() + batch)];
      out_iov[batch] = iovec{const_cast<char*>(line.data()), line.size()};
      out[batch] = mmsghdr{};
      out[batch].msg_hdr.msg_iov = &out_iov[batch];
      out[batch].msg_hdr.msg_iovlen = 1;
      ++batch;
    }
    if (batch > 0) {
      const int sent = sendmmsg(client.fd, out, static_cast<unsigned>(batch), MSG_DONTWAIT);
      now = now_ns();
      for (int k = 0; k < std::max(sent, 0); ++k) pending.push_back(rec.mark_sent(now));
    }
    // Receive everything that has arrived.
    while (true) {
      const int got = recvmmsg(client.fd, in, kVec, MSG_DONTWAIT, nullptr);
      if (got <= 0) break;
      ++result.recv_calls;
      now = now_ns();
      for (int k = 0; k < got; ++k) {
        ++result.replies;
        std::string_view reply{in_buf[k], in[k].msg_len};
        if (!reply.empty() && reply.back() == '\n') reply.remove_suffix(1);
        if (!pending.empty() && matches(reply, pending.front())) {
          finish(pending.front(), now, true);
          pending.pop_front();
          continue;
        }
        // Datagrams are answered in order, so a reply that is not the
        // oldest request's answer means requests before its own were
        // lost: resynchronise on the first later request it answers.
        std::size_t skip = 1;
        while (skip < pending.size() && !matches(reply, pending[skip])) ++skip;
        if (skip < pending.size()) {
          for (std::size_t s = 0; s < skip; ++s) finish(pending[s], now, false);
          finish(pending[skip], now, true);
          pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(skip + 1));
        } else if (reply.rfind("ERR overloaded", 0) == 0) {
          // Shed by the daemon's bounded queue: a failed request, answered
          // in order like any other.
          if (!pending.empty()) {
            finish(pending.front(), now, false);
            pending.pop_front();
          }
        } else if (client.answers.count(reply) > 0) {
          // The answer to a request already given up on.
          ++result.late;
          if (!client.tolerate_late) outcome.fail("late UDP reply outside a ladder trial");
        } else {
          if (++result.wrong <= 3) {
            outcome.fail("wrong UDP answer '" + std::string{reply} + "'" +
                         (pending.empty() ? std::string{} : " to '" +
                          setup.stream.pool[pool_of(pending.front())] + "'"));
          }
          if (!pending.empty()) {
            finish(pending.front(), now, false);
            pending.pop_front();
          }
        }
      }
    }
    now = now_ns();
    while (!pending.empty() && now - rec.intended(pending.front()) > kGiveUpNs) {
      finish(pending.front(), now, false);
      pending.pop_front();
    }
    // Hot swap to the other snapshot, one at a time.
    if (swap_sent < 0 && next_swap < swaps.size() && swaps[next_swap] <= now) {
      const int target = client.live_version == 1 ? 2 : 1;
      const std::string line =
          "SWAP " + setup.snapshots[static_cast<std::size_t>(target - 1)].path + "\n";
      if (send(client.admin_fd, line.data(), line.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(line.size())) {
        swap_sent = now;
      } else {
        outcome.fail("cannot send SWAP");
      }
      ++next_swap;
    }
    if (swap_sent >= 0) {
      char buf[256];
      const ssize_t got = recv(client.admin_fd, buf, sizeof buf, MSG_DONTWAIT);
      if (got > 0) admin_buffer.append(buf, static_cast<std::size_t>(got));
      if (const auto nl = admin_buffer.find('\n'); nl != std::string::npos) {
        const std::string reply = admin_buffer.substr(0, nl);
        admin_buffer.erase(0, nl + 1);
        const int target = client.live_version == 1 ? 2 : 1;
        if (reply.rfind("OK SWAP version=" + std::to_string(target) + " ", 0) == 0) {
          client.live_version = target;
          result.swap_ms.push_back(ns_to_s(now_ns() - swap_sent) * 1e3);
        } else {
          outcome.fail("SWAP failed: " + reply);
        }
        swap_sent = -1;
      } else if (now - swap_sent > kGiveUpNs * 10) {
        outcome.fail("SWAP unanswered");
        swap_sent = -1;
      }
    }
    const bool all_sent = rec.next_unsent() == rec.size();
    if (all_sent && pending.empty() && swap_sent < 0) break;
    // Spin while sends are due within 2 ms, so the client's own wake-up
    // jitter stays out of the figures; sleep only across longer gaps.
    std::int64_t wake = now + 10'000'000;
    if (!all_sent) wake = std::min(wake, rec.intended(rec.next_unsent()));
    if (wake - now > 2'000'000) {
      pollfd fds[2] = {{client.fd, POLLIN, 0}, {client.admin_fd, POLLIN, 0}};
      const std::int64_t wait = wake - now - 100'000;
      timespec ts{wait / 1'000'000'000, wait % 1'000'000'000};
      ppoll(fds, client.admin_fd >= 0 ? 2 : 1, &ts, nullptr);
    }
  }
  client.cursor = (base + rec.size()) % kRing;
  return result;
}

/// The median over consecutive windows of `window` samples of each
/// window's p99: the steady-state p99, which one window holding a swap or a
/// burst of host noise does not decide.
double windowed_p99(const std::vector<double>& latency, std::size_t window,
                    std::vector<double>* per_window = nullptr) {
  std::vector<double> p99s;
  for (std::size_t b = 0; b + window <= latency.size(); b += window) {
    std::vector<double> part(latency.begin() + static_cast<std::ptrdiff_t>(b),
                             latency.begin() + static_cast<std::ptrdiff_t>(b + window));
    p99s.push_back(percentile(part, 99));
  }
  if (per_window != nullptr) *per_window = p99s;
  return median(p99s);
}

std::vector<std::int64_t> poisson_from_now(double rate, double seconds, turtle::util::Prng& rng) {
  return poisson_schedule(rate, now_ns() + 1'000'000, static_cast<std::int64_t>(seconds * 1e9),
                          rng);
}

/// Reference phase: Poisson at kReferenceRate with swaps at a fixed cadence.
PhaseResult reference_phase(Client& client, double seconds, turtle::util::Prng& rng,
                            SpanLog& spans, Outcome& outcome) {
  auto schedule = poisson_from_now(kReferenceRate, seconds, rng);
  std::vector<std::int64_t> swaps;
  const int count = std::max(1, static_cast<int>(std::lround(seconds / kSwapEverySeconds)));
  const double every = seconds / count;
  for (int k = 0; k < count; ++k) {
    swaps.push_back(schedule.front() + static_cast<std::int64_t>((k + 0.5) * every * 1e9));
  }
  return run_phase(client, std::move(schedule), std::move(swaps), spans, outcome);
}

struct LadderResult {
  double max_rate = 0;
  int trials = 0;
};

/// One trial at `rate`: passes when the steady-state p99 (median of five
/// windows) is within the limit, at most 0.1% of requests fail, and the
/// generator's lateness does not grow over it.
bool trial(Client& client, double rate, turtle::util::Prng& rng, Outcome& outcome) {
  SpanLog off{false};
  const pid_t pid = client.setup.daemon->pid();
  const ProcSample daemon0 = read_proc(pid);
  const ProcSample client0 = read_this_thread();
  const std::int64_t t0 = now_ns();
  client.tolerate_late = true;
  const PhaseResult step =
      run_phase(client, poisson_from_now(rate, kStepSeconds, rng), {}, off, outcome);
  client.tolerate_late = false;
  const double wall = ns_to_s(now_ns() - t0);
  const double daemon_cpu = (read_proc(pid).cpu_s - daemon0.cpu_s) / wall;
  const double client_cpu = (read_this_thread().cpu_s - client0.cpu_s) / wall;
  const OpenLoopRecorder& rec = *step.recorder;
  auto latency = rec.latencies_us(kGiveUpNs);
  const auto lateness = rec.lateness_us();
  const std::size_t quarter = lateness.size() / 4;
  std::vector<double> first(lateness.begin(), lateness.begin() + quarter);
  std::vector<double> last(lateness.end() - quarter, lateness.end());
  const bool late_growing = percentile(last, 90) > percentile(first, 90) + 100;
  // Five windows per trial, as in the reference phase.
  const double p99 = windowed_p99(latency, std::max<std::size_t>(1, latency.size() / 5));
  const bool pass = p99 <= kSloP99Us &&
                    static_cast<double>(rec.failed()) <= 0.001 * static_cast<double>(rec.size()) &&
                    !late_growing;
  std::printf("# ladder %8.0f/s: p99 %9.1f us, failed %llu of %zu, lateness p90 %.1f -> %.1f us, "
              "cpu daemon %.2f client %.2f: %s\n",
              rate, p99, static_cast<unsigned long long>(rec.failed()), rec.size(),
              percentile(first, 90), percentile(last, 90), daemon_cpu, client_cpu,
              pass ? "pass" : "fail");
  return pass;
}

/// Binary search over the fixed ladder for the highest passing rate,
/// taking passing as monotone in the rate. A rate passes when one of up
/// to three trials passes: near saturation a millisecond-long hiccup on
/// the host fails a trial, while a real limit fails all three. Losses on overloaded trials
/// measure the limit; they are not counted as workload failures.
LadderResult ladder(Client& client, turtle::util::Prng& rng, Outcome& outcome) {
  const std::vector<double>& rates = ladder_rates();
  LadderResult result;
  const auto passes = [&](std::size_t i) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      result.trials += 1;
      if (trial(client, rates[i], rng, outcome)) return true;
    }
    return false;
  };
  // rates[lo - 1] passed (or lo == 0); rates[hi] failed (or hi == size).
  std::size_t lo = 0;
  std::size_t hi = rates.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  result.max_rate = lo > 0 ? rates[lo - 1] : 0;
  return result;
}

/// Bursts of kBurst back-to-back datagrams, each waited for in full: the
/// time one prober needs to get a /24's worth of answers at once.
std::vector<double> bursts(Client& client, Outcome& outcome, std::uint64_t& attempted,
                           std::uint64_t& failed) {
  std::vector<double> walls;
  SpanLog off{false};
  for (int b = 0; b < kBursts; ++b) {
    const std::int64_t t0 = now_ns();
    PhaseResult burst =
        run_phase(client, std::vector<std::int64_t>(kBurst, t0), {}, off, outcome);
    walls.push_back(ns_to_s(burst.last_done_ns - t0));
    const std::int64_t resume = now_ns() + kBurstGapNs;
    while (now_ns() < resume) poll(nullptr, 0, 1);
    attempted += kBurst;
    failed += burst.recorder->failed();
  }
  return walls;
}

}  // namespace

Outcome run_udp_open_loop(const Options& options, SpanLog& spans) {
  Outcome outcome;
  MetricSet& m = outcome.metrics;
  double setup_s = 0;
  const int setups = options.trace ? 1 : kSetupRepeats;
  auto setup = set_up_daemon_median(options, kShape, 2, kMix, kRing, spans, setups, setup_s,
                                    outcome);
  const pid_t pid = setup->daemon->pid();
  Client client{*setup, -1, -1, 0, 1, {}, false};
  for (const auto& table : setup->expected) client.answers.insert(table.begin(), table.end());
  client.fd = connect_udp(setup->daemon->udp_port());
  client.admin_fd = connect_tcp(setup->daemon->tcp_port());
  if (client.fd < 0 || client.admin_fd < 0) throw std::runtime_error("cannot reach turtled");
  turtle::util::Prng rng{derive_seed(options.seed, 3)};

  SpanLog off{false};
  const double reference_s = options.trace ? options.seconds * 0.4 : options.seconds * 0.7;
  PhaseUsage usage;
  usage.daemon_before = read_proc(pid);
  usage.client_before = read_this_thread();
  const std::int64_t t0 = now_ns();
  PhaseResult ref = reference_phase(client, reference_s, rng, off, outcome);
  usage.wall_s = ns_to_s(now_ns() - t0);
  usage.daemon_after = read_proc(pid);
  usage.client_after = read_this_thread();
  usage.requests = ref.recorder->size();
  auto latency = ref.recorder->latencies_us(kGiveUpNs);
  auto lateness = ref.recorder->lateness_us();
  // p99 reads the steady state over 3 s windows (60 samples beyond each
  // window's p99); p99.9 over the whole phase reads the swap.
  std::vector<double> window_p99;
  const double steady_p99 =
      windowed_p99(latency, static_cast<std::size_t>(kReferenceRate * 3), &window_p99);
  std::printf("# reference p99 per 3 s window:");
  for (const double p99 : window_p99) std::printf(" %.1f", p99);
  std::printf(" us\n");
  std::uint64_t attempted = ref.recorder->size();
  std::uint64_t failed = ref.recorder->failed();
  if (ref.wrong > 0) outcome.fail("wrong answers in the reference phase");
  const std::vector<double> burst_walls = bursts(client, outcome, attempted, failed);

  if (!options.trace) {
    const LadderResult steps = ladder(client, rng, outcome);
    close(client.fd);
    close(client.admin_fd);
    stop_daemon(*setup, outcome);
    const double served = static_cast<double>(ref.recorder->answered_ok()) / reference_s;
    outcome.attempted = attempted;
    outcome.failed = failed;
    const std::uint64_t n = latency.size();
    m.set("setup_s", setup_s, "s", static_cast<std::uint64_t>(setups));
    m.set("qps", served, "1/s", ref.recorder->answered_ok());
    m.set("max_qps_at_slo", steps.max_rate, "1/s", static_cast<std::uint64_t>(steps.trials));
    m.set("latency_p50_us", percentile(latency, 50), "us", n);
    m.set("latency_p99_us", steady_p99, "us", n);
    m.set("latency_p999_us", percentile(latency, 99.9), "us", n);
    m.set("ok_frac", static_cast<double>(attempted - failed) / static_cast<double>(attempted),
          "ratio", attempted);
    m.set("peak_rss_mb", usage.daemon_after.hwm_mb, "MiB", 1);
    m.set("wall_s", ns_to_s(ref.last_done_ns - ref.recorder->intended(0)), "s", 1);
    return outcome;
  }

  PhaseResult traced = reference_phase(client, reference_s, rng, spans, outcome);
  auto traced_latency = traced.recorder->latencies_us(kGiveUpNs);
  attempted += traced.recorder->size();
  failed += traced.recorder->failed();
  close(client.fd);
  close(client.admin_fd);
  outcome.attempted = attempted;
  outcome.failed = failed;

  const BuiltSnapshot& snap = setup->snapshots[0];
  // Replay what version 1 answers: only its own reference answers apply.
  const ReplayTimes replay =
      replay_daemon(snap.mapped, setup->stream.pool, setup->stream.order, setup->expected[0], 64,
                    /*tcp=*/false, spans, kSampleEvery);
  if (replay.mismatches > 0) outcome.fail("in-process replay disagrees with the reference");
  const LookupTimes lookups =
      time_lookups(*snap.mapped, setup->stream.pool, setup->stream.order, 0.5);
  const turtle::util::JsonValue dump = stop_daemon(*setup, outcome);

  std::vector<double> swap_ms = ref.swap_ms;
  swap_ms.insert(swap_ms.end(), traced.swap_ms.begin(), traced.swap_ms.end());
  const double p50 = percentile(latency, 50);
  set_daemon_layers(m, snap, lookups, replay, dump, usage);
  m.set("daemon.swap_ms", median(swap_ms), "ms", swap_ms.size());
  m.set("loadgen.responses_per_read",
        ref.recv_calls ? static_cast<double>(ref.replies) / ref.recv_calls : 0, "count",
        ref.recv_calls);
  std::vector<double> burst_us;
  for (const double s : burst_walls) burst_us.push_back(s * 1e6);
  m.set("loadgen.batch_rtt_us_p50", percentile(burst_us, 50), "us", burst_us.size());
  m.set("loadgen.late_us_p99", percentile(lateness, 99), "us", lateness.size());
  m.set("loadgen.samples", static_cast<double>(latency.size()), "count", 1);
  m.set("trace.overhead_frac", p50 > 0 ? (percentile(traced_latency, 50) - p50) / p50 : 0,
        "ratio", 2);
  return outcome;
}

}  // namespace turtlebench
