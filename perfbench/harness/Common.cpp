//===- Common.cpp - Small utilities shared by the benchmark harness ------------===//

#include "Common.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t peakRssKiB(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10);
  return 0;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Data;
  return static_cast<bool>(Out);
}

std::string formatRecord(const Record &R) {
  std::string Out;
  char Buf[64];
  for (const auto &[K, V] : R) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += K + " " + Buf + "\n";
  }
  return Out;
}

Record parseRecord(const std::string &Text) {
  Record R;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Sp = Line.find(' ');
    if (Sp == std::string::npos || Line.compare(0, Sp, "span") == 0)
      continue;
    R[Line.substr(0, Sp)] = std::strtod(Line.c_str() + Sp + 1, nullptr);
  }
  return R;
}

namespace {

std::vector<char *> cArgv(const std::vector<std::string> &Argv) {
  std::vector<char *> C;
  for (const std::string &A : Argv)
    C.push_back(const_cast<char *>(A.c_str()));
  C.push_back(nullptr);
  return C;
}

} // namespace

ChildResult runChild(const std::vector<std::string> &Argv, double TimeoutSec) {
  ChildResult R;
  int Pipe[2];
  if (pipe2(Pipe, O_CLOEXEC) != 0)
    return R;
  std::vector<char *> C = cArgv(Argv);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Pipe[0]);
    close(Pipe[1]);
    return R;
  }
  if (Pid == 0) {
    dup2(Pipe[1], STDOUT_FILENO);
    execv(C[0], C.data());
    _exit(127);
  }
  close(Pipe[1]);
  double Deadline = nowSeconds() + TimeoutSec;
  char Buf[65536];
  bool Killed = false;
  for (;;) {
    int WaitMs = static_cast<int>((Deadline - nowSeconds()) * 1000);
    if (WaitMs <= 0) {
      kill(Pid, SIGKILL);
      Killed = true;
      break;
    }
    struct pollfd P = {Pipe[0], POLLIN, 0};
    int N = poll(&P, 1, WaitMs);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      continue;
    ssize_t Got = read(Pipe[0], Buf, sizeof(Buf));
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got <= 0)
      break;
    R.Out.append(Buf, static_cast<size_t>(Got));
  }
  close(Pipe[0]);
  int Status = 0;
  struct rusage RU;
  while (wait4(Pid, &Status, 0, &RU) < 0 && errno == EINTR) {
  }
  R.MaxRssKiB = static_cast<uint64_t>(RU.ru_maxrss);
  if (!Killed && WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  return R;
}

std::vector<ChildResult>
runChildren(const std::vector<std::vector<std::string>> &Argvs, unsigned Lanes,
            double TimeoutSec) {
  std::vector<ChildResult> Results(Argvs.size());
  std::atomic<size_t> Next{0};
  auto Lane = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Argvs.size();)
      Results[I] = runChild(Argvs[I], TimeoutSec);
  };
  std::vector<std::thread> Threads;
  for (unsigned L = 1; L < std::max(1u, Lanes); ++L)
    Threads.emplace_back(Lane);
  Lane();
  for (std::thread &T : Threads)
    T.join();
  return Results;
}

int spawnBackground(const std::vector<std::string> &Argv) {
  std::vector<char *> C = cArgv(Argv);
  pid_t Pid = fork();
  if (Pid == 0) {
    int Null = open("/dev/null", O_WRONLY);
    if (Null >= 0)
      dup2(Null, STDOUT_FILENO);
    execv(C[0], C.data());
    _exit(127);
  }
  return Pid;
}

uint64_t reapBackground(int Pid, double TimeoutSec) {
  double Deadline = nowSeconds() + TimeoutSec;
  int Status = 0;
  struct rusage RU;
  for (;;) {
    pid_t Got = wait4(Pid, &Status, WNOHANG, &RU);
    if (Got == Pid)
      return static_cast<uint64_t>(RU.ru_maxrss);
    if (Got < 0 && errno != EINTR)
      return 0;
    if (nowSeconds() > Deadline) {
      kill(Pid, SIGKILL);
      while (wait4(Pid, &Status, 0, &RU) < 0 && errno == EINTR) {
      }
      return static_cast<uint64_t>(RU.ru_maxrss);
    }
    usleep(2000);
  }
}

} // namespace perfbench
