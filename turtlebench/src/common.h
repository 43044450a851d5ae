// Shared pieces of the benchmark client: the wall clock, percentiles,
// the metric table every run prints, and /proc readers for the process
// under test.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace turtlebench {

/// CLOCK_MONOTONIC in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Nearest-rank percentile (p in [0, 100]) of `values`, which it sorts.
/// Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double>& values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// One measured figure: what the final JSON line and the printed table
/// carry. `samples` is how many observations stand behind the value.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Named metrics in insertion order; set() on an existing name replaces it.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples);
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// CPU time and context switches of one process, read from /proc.
struct ProcSample {
  double cpu_s = 0;  ///< utime + stime
  std::uint64_t voluntary_ctxsw = 0;
  double hwm_mb = 0;  ///< VmHWM, peak resident set
};

/// Reads /proc/<pid>/stat and /proc/<pid>/status; pid 0 means this process.
[[nodiscard]] ProcSample read_proc(pid_t pid);
/// The same for the calling thread only (the client's own work, without
/// helper threads such as IdleSpinner).
[[nodiscard]] ProcSample read_this_thread();

/// Pins the calling process to one CPU of the set the benchmark started
/// with, counted from the last (0 = last), keeping clear of CPU 0 and its
/// housekeeping interrupts. Returns the CPU, or -1 when the set has fewer
/// than two CPUs or fewer than `from_last` + 1.
int pin_to_allowed_cpu(int from_last);

/// Pins the calling thread as pin_to_allowed_cpu does for as long as it
/// lives, then restores the thread's previous CPU set (threads created
/// meanwhile would inherit the pin).
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int from_last);
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool restore_ = false;
};

/// Keeps one CPU, counted as in pin_to_allowed_cpu, from idling while it
/// lives: a SCHED_IDLE thread pinned there spins, and any other thread on
/// that CPU preempts it at once. The process under test on that CPU then
/// never waits for a halted virtual CPU to be woken by the host, a delay
/// that on a shared host varies with the host's load by orders of
/// magnitude.
class IdleSpinner {
 public:
  explicit IdleSpinner(int from_last);
  ~IdleSpinner();
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Run context printed with every result, so figures from different
/// machines or builds are never compared silently.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string git_rev;
};

/// Prints `# context {...}` (nproc, compiler, build type, git rev, seed,
/// loopback) to stdout.
void print_context(const RunContext& context);

/// Prints the metric table (name, value, unit, samples) and then the
/// final result line the benchmark contract asks for.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricSet& metrics);

}  // namespace turtlebench
