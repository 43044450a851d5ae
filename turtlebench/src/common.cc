#include "common.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace turtlebench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) { return percentile(values, 50); }

void MetricSet::set(const std::string& name, double value, const std::string& unit,
                    std::uint64_t samples) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

namespace {

ProcSample read_proc_dir(const std::string& dir) {
  ProcSample sample;
  {
    std::ifstream in{dir + "/stat"};
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const auto close = text.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields{text.substr(close + 2)};
      std::string field;
      double utime = 0;
      double stime = 0;
      for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i == 14) utime = std::stod(field);
        if (i == 15) stime = std::stod(field);
      }
      sample.cpu_s = (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
    }
  }
  std::ifstream status{dir + "/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      sample.hwm_mb = std::stod(line.substr(6)) / 1024.0;  // kB
    } else if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
      sample.voluntary_ctxsw = std::stoull(line.substr(24));
    }
  }
  return sample;
}

}  // namespace

ProcSample read_proc(pid_t pid) {
  return read_proc_dir(pid == 0 ? "/proc/self" : "/proc/" + std::to_string(pid));
}

ProcSample read_this_thread() { return read_proc_dir("/proc/thread-self"); }

int pin_to_allowed_cpu(int from_last) {
  // The CPUs this process was started with, read once: a child forked
  // after the parent pinned itself must still choose from the full set.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return out;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
    }
    return out;
  }();
  if (cpus.size() < 2 || from_last < 0 || static_cast<std::size_t>(from_last) >= cpus.size()) {
    return -1;
  }
  const int cpu = cpus[cpus.size() - 1 - static_cast<std::size_t>(from_last)];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

ScopedCpuPin::ScopedCpuPin(int from_last) {
  CPU_ZERO(&saved_);
  restore_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0 &&
             pin_to_allowed_cpu(from_last) >= 0;
}

ScopedCpuPin::~ScopedCpuPin() {
  if (restore_) sched_setaffinity(0, sizeof saved_, &saved_);
}

IdleSpinner::IdleSpinner(int from_last)
    : thread_{[this, from_last] {
        pin_to_allowed_cpu(from_last);
        const sched_param param{};
        sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      }} {}

IdleSpinner::~IdleSpinner() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void print_context(const RunContext& context) {
  std::printf(
      "# context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.0f, \"trace\": %d, "
      "\"nproc\": %ld, \"compiler\": \"g++ %s\", \"build_type\": \"%s\", "
      "\"git_rev\": \"%s\", \"network\": \"loopback 127.0.0.1\"}\n",
      context.workload.c_str(), static_cast<unsigned long long>(context.seed),
      context.seconds, context.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), __VERSION__,
      TURTLEBENCH_BUILD_TYPE, context.git_rev.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricSet& metrics) {
  std::printf("# %-34s %16s  %-7s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& metric : metrics.all()) {
    std::printf("# %-34s %16.6g  %-7s %llu\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), static_cast<unsigned long long>(metric.samples));
  }
  std::printf("# %-34s %16.6g  %-7s %llu\n", "failed_frac",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              "ratio", static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const Metric& metric : metrics.all()) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
                metric.name.c_str(), value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace turtlebench
