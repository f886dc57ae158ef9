//===- main.cpp - spa-perfbench: the analyzer's end-to-end benchmark -----------===//
//
//   spa-perfbench run --workload W --seed N --seconds S --trace 0|1
//                     --serve-bin PATH --work-dir DIR [--start T]
//   spa-perfbench selftest
//   spa-perfbench child ...            (see Child.h)
//
// perfbench/run.py builds this binary and calls "run"; the last line of
// stdout is the run's JSON result.
//
//===----------------------------------------------------------------------===//

#include "Child.h"
#include "Common.h"
#include "Workloads.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

using namespace perfbench;

namespace {

std::string selfPath() {
  char Buf[PATH_MAX];
  ssize_t N = readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  return N > 0 ? std::string(Buf, static_cast<size_t>(N)) : std::string();
}

int usage() {
  std::fprintf(stderr,
               "usage: spa-perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH --work-dir DIR [--start T]\n"
               "       spa-perfbench selftest\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  O.Start = O.HarnessStart = nowSeconds();
  std::vector<std::string> Args(argv + 1, argv + argc);
  if (Args.empty())
    return usage();
  if (Args[0] == "child")
    return childMain(std::vector<std::string>(Args.begin() + 1, Args.end()));
  if (Args[0] == "selftest") {
    std::string Why;
    if (!runSelfTest(Why)) {
      std::fprintf(stderr, "self-test FAILED: %s\n", Why.c_str());
      return 1;
    }
    std::printf("self-test passed: every check accepts the real result and "
                "rejects a wrong one\n");
    return 0;
  }
  if (Args[0] != "run")
    return usage();
  for (size_t I = 1; I + 1 < Args.size(); I += 2) {
    const std::string &K = Args[I], &V = Args[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--serve-bin")
      O.ServeBin = V;
    else if (K == "--work-dir")
      O.WorkDir = V;
    else if (K == "--start")
      O.Start = std::atof(V.c_str());
    else
      return usage();
  }
  O.Self = selfPath();
  if (O.Workload.empty() || O.ServeBin.empty() || O.WorkDir.empty() ||
      O.Self.empty() || O.Seconds <= 0)
    return usage();
  std::error_code EC;
  std::filesystem::create_directories(O.WorkDir, EC);
  if (EC)
    return 2;
  return runWorkload(O);
}
