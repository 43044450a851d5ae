// turtlebench — runs one workload of the turtle benchmark and prints its
// metrics. Normally started through run.py, which builds it:
//
//   turtlebench --workload=tcp_pipelined --seed=1 --seconds=10 --trace=0
//               --turtled=<path to turtled> --work-dir=<work dir>
//               [--trace-out=<Chrome trace file>] [--git-rev=<rev>]
//
// The last line of standard output is the JSON result; the lines before
// it (prefixed `#`) carry the run context, the metric table with sample
// counts, and in traced runs the per-span self times. Exits 1 when any
// answer was wrong or a ledger did not close.
#include <sys/stat.h>

#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "common.h"
#include "spans.h"
#include "util/flags.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace turtlebench;
  Options options;
  try {
    const auto flags = turtle::util::Flags::parse(argc, argv);
    options.workload = flags.get_string("workload", "");
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.seconds = flags.get_double("seconds", 10);
    options.trace = flags.get_int("trace", 0) != 0;
    options.turtled = flags.get_string("turtled", "");
    options.work_dir = flags.get_string("work-dir", "");
    options.git_rev = flags.get_string("git-rev", "unknown");
    options.trace_out = flags.get_string("trace-out", "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "turtlebench: %s\n", e.what());
    return 2;
  }
  Outcome (*run)(const Options&, SpanLog&) = nullptr;
  if (options.workload == "tcp_pipelined") run = &run_tcp_pipelined;
  if (options.workload == "udp_open_loop") run = &run_udp_open_loop;
  if (options.workload == "repro_survey") run = &run_repro_survey;
  if (run == nullptr || options.work_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: turtlebench --workload=tcp_pipelined|udp_open_loop|repro_survey "
                 "--seed=N --seconds=S --trace=0|1 --turtled=PATH --work-dir=DIR\n");
    return 2;
  }
  mkdir(options.work_dir.c_str(), 0755);
  // The daemon workloads pin the client and turtled to two different
  // cores, so the scheduler's placement does not decide the figures.
  std::optional<IdleSpinner> keep_daemon_cpu_awake;
  if (options.workload != "repro_survey") {
    std::printf("# client pinned to cpu %d, turtled to the last allowed cpu\n",
                pin_to_allowed_cpu(1));
    keep_daemon_cpu_awake.emplace(0);
  }
  print_context(RunContext{options.workload, options.seed, options.seconds, options.trace,
                           options.git_rev});

  SpanLog spans{options.trace};
  Outcome outcome;
  try {
    outcome = run(options, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "turtlebench: %s\n", e.what());
    return 1;
  }
  if (options.trace) {
    spans.print_self_times();
    if (!options.trace_out.empty()) {
      if (spans.write_chrome(options.trace_out)) {
        std::printf("# trace written to %s\n", options.trace_out.c_str());
      } else {
        std::fprintf(stderr, "turtlebench: cannot write %s\n", options.trace_out.c_str());
      }
    }
  }
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "turtlebench: FAILED: %s\n", error.c_str());
  }
  print_result(outcome.correct, outcome.attempted, outcome.failed, outcome.metrics);
  return outcome.correct ? 0 : 1;
}
