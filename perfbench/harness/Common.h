//===- Common.h - Small utilities shared by the benchmark harness --------------===//
//
// Clocks, quantiles, key/value result lines, file helpers and child
// processes.  Nothing here knows about the analyzer.
//
//===----------------------------------------------------------------------===//

#ifndef SPA_PERFBENCH_COMMON_H
#define SPA_PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed epoch.
double nowSeconds();

/// Peak resident set of process \p Pid so far (VmHWM), in KiB; 0 when
/// it cannot be read.
uint64_t peakRssKiB(int Pid);

/// Quantile \p Q in [0, 1] by linear interpolation between order
/// statistics (0 for an empty sample).
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

std::string readFile(const std::string &Path);
bool writeFile(const std::string &Path, const std::string &Data);

/// Flat string -> number record: what a child reports to its parent, one
/// "key value" pair per line (lines of another form are skipped).
using Record = std::map<std::string, double>;
std::string formatRecord(const Record &R);
Record parseRecord(const std::string &Text);

/// A finished child process.
struct ChildResult {
  int ExitCode = -1; ///< -1 when it died on a signal.
  std::string Out;   ///< Everything it wrote to stdout.
  uint64_t MaxRssKiB = 0;
};

/// Runs \p Argv (Argv[0] is a path) with stdout captured and waits for it.
/// The child is killed after \p TimeoutSec.
ChildResult runChild(const std::vector<std::string> &Argv,
                     double TimeoutSec = 170);

/// Runs up to \p Lanes children at once, in argument order, and returns
/// their results in the same order.
std::vector<ChildResult>
runChildren(const std::vector<std::vector<std::string>> &Argvs, unsigned Lanes,
            double TimeoutSec = 170);

/// Starts \p Argv in the background; returns its pid (or -1).
int spawnBackground(const std::vector<std::string> &Argv);
/// Waits for \p Pid, killing it after \p TimeoutSec; returns its peak RSS.
uint64_t reapBackground(int Pid, double TimeoutSec);

} // namespace perfbench

#endif // SPA_PERFBENCH_COMMON_H
