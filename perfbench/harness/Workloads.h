//===- Workloads.h - The benchmark's four workloads ----------------------------===//
//
// Each workload is a closed loop driven from one process: it repeats
// whole rounds of the same operations until the run's time is spent,
// then checks the outputs (outside the timed part) and prints one JSON
// result line.  See perfbench/README.md for what each workload is for.
//
//===----------------------------------------------------------------------===//

#ifndef SPA_PERFBENCH_WORKLOADS_H
#define SPA_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Self;     ///< This binary (re-executed in child mode).
  std::string ServeBin; ///< The spa-serve daemon.
  std::string WorkDir;  ///< Scratch directory, relative to the cwd.
  /// nowSeconds() when the run started: --start (the benchmark's
  /// process start, on the same monotonic clock), else this process's.
  double Start = 0;
  double HarnessStart = 0; ///< nowSeconds() when this process started.
};

/// Runs one benchmark run and prints its result line.  Returns the
/// process exit code (0 also when a check failed: that is reported as
/// "correct": false).
int runWorkload(const RunOptions &O);

/// Feeds every check of Oracle.h a deliberately wrong result and
/// requires it to fail (and the right result to pass).  Returns false
/// with \p Why set on the first check that does not behave.
bool runSelfTest(std::string &Why);

} // namespace perfbench

#endif // SPA_PERFBENCH_WORKLOADS_H
