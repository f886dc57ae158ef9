//===- Workloads.cpp - The benchmark's four workloads --------------------------===//

#include "Workloads.h"

#include "Common.h"
#include "Oracle.h"
#include "Spans.h"

#include "ir/Builder.h"
#include "serve/Client.h"
#include "workload/Batch.h"
#include "workload/Suite.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <thread>
#include <unistd.h>

using namespace spa;

namespace perfbench {

namespace {

//===-- Inputs ------------------------------------------------------------===//

/// The programs of each workload: suite shapes from Suite.cpp at a fixed
/// scale; only the generator seed varies with --seed.
struct WorkloadInputs {
  double Scale;
  std::vector<unsigned> Suite; ///< Indices into paperSuite(Scale).
};

const WorkloadInputs IntervalLarge = {0.1, {9, 12, 15}}; // nethack python ghostscript
const WorkloadInputs CheckBatch = {0.15, {0, 1, 2, 3, 4, 5, 6, 7, 8}}; // gzip..sendmail
const WorkloadInputs Octagon = {0.2, {6, 7, 8}}; // screen a2ps sendmail
const WorkloadInputs ServeEdits = {0.1, {8}};    // sendmail
/// serve-edits: a round is 25 edits and 8 repeats (every fourth request);
/// a run does at least 4 rounds, so at least 100 edited versions.
constexpr unsigned EditsPerRound = 25;
constexpr unsigned ServeMinRounds = 4;
/// serve-edits runs a fixed number of rounds, one per this many seconds of
/// the run: later rounds meet a fuller cache, so a count that varied with
/// the machine's speed would move every figure.
constexpr double ServeRoundSeconds = 3.5;
constexpr unsigned BatchLanes = 1;

struct Input {
  std::string Name, Path, Source;
};

uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Offsets of the numeric literals of \p Src (digit runs that do not
/// continue an identifier).
std::vector<std::pair<size_t, size_t>> literals(const std::string &Src) {
  std::vector<std::pair<size_t, size_t>> Out;
  auto Ident = [](char C) { return std::isalnum(static_cast<unsigned char>(C)) || C == '_'; };
  for (size_t I = 0; I < Src.size();) {
    if (std::isdigit(static_cast<unsigned char>(Src[I])) &&
        (I == 0 || !Ident(Src[I - 1]))) {
      size_t J = I;
      while (J < Src.size() && std::isdigit(static_cast<unsigned char>(Src[J])))
        ++J;
      if (J - I < 9)
        Out.push_back({I, J - I});
      I = J;
    } else {
      ++I;
    }
  }
  return Out;
}

/// The source of suite program \p Idx for workload seed \p Seed: the
/// program Suite.cpp defines (its shape and its own generator seed), with
/// every numeric literal raised by 0, 1 or 2 as the seed picks.  The
/// seed thus changes constants, loop bounds, allocation sizes and
/// recursion depths, and with them the fixpoint and the interpreter's
/// runs, but not the program's call and dependency structure, which set
/// most of the cost; a fresh generator seed per run would change that
/// structure and with it the cost by more than the bounds allow.
std::string seededSource(const SuiteEntry &E, uint64_t Seed, unsigned Idx) {
  std::string Src = generateSource(E.Config);
  uint64_t Key = mix(Seed * 64 + Idx);
  std::string Out;
  size_t Prev = 0;
  for (auto [Pos, Len] : literals(Src)) {
    long long V = std::atoll(Src.substr(Pos, Len).c_str());
    Out += Src.substr(Prev, Pos - Prev) +
           std::to_string(V + static_cast<long long>((Key = mix(Key)) % 3));
    Prev = Pos + Len;
  }
  return Out + Src.substr(Prev);
}

/// Generates, builds (to reject a broken input up front) and writes each
/// program of \p W.  Returns false when one does not build.
bool makeInputs(const WorkloadInputs &W, const RunOptions &O,
                std::vector<Input> &Out) {
  std::vector<SuiteEntry> Suite = paperSuite(W.Scale);
  for (unsigned Idx : W.Suite) {
    const SuiteEntry &E = Suite.at(Idx);
    Input In;
    In.Name = E.Name;
    In.Source = seededSource(E, O.Seed, Idx);
    In.Path = O.WorkDir + "/" + E.Name + ".spa";
    BuildResult B = buildProgramFromSource(In.Source);
    if (!B.ok()) {
      std::fprintf(stderr, "perfbench: %s does not build: %s\n",
                   E.Name.c_str(), B.Error.c_str());
      return false;
    }
    if (!writeFile(In.Path, In.Source))
      return false;
    Out.push_back(std::move(In));
  }
  return true;
}

std::vector<uint64_t> interpSeeds(uint64_t Seed) {
  return {Seed * 3 + 1, Seed * 3 + 2, Seed * 3 + 3};
}

std::string seedsArg(uint64_t Seed) {
  std::string S = "--seeds=";
  for (uint64_t V : interpSeeds(Seed))
    S += std::to_string(V) + ",";
  S.pop_back();
  return S;
}

unsigned verifyLanes() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

//===-- Result line -------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

/// The per-layer metrics every traced run prints, in order.  Layers a
/// workload does not exercise read 0 there.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"lang.parse_s", "s"},
    {"ir.lower_s", "s"},
    {"ir.points", "count"},
    {"ir.locs", "count"},
    {"core.pre_s", "s"},
    {"core.defuse_s", "s"},
    {"core.defuse.avg_def", "count"},
    {"core.defuse.avg_use", "count"},
    {"core.depbuild_s", "s"},
    {"core.depbuild.nobypass_s", "s"},
    {"core.dep.nodes", "count"},
    {"core.dep.phis", "count"},
    {"core.dep.edges_before_bypass", "count"},
    {"core.dep.edges", "count"},
    {"core.dep.bypass_removed", "count"},
    {"core.fix_s", "s"},
    {"core.fix.visits", "count"},
    {"core.fix.widenings", "count"},
    {"core.fix.state_entries", "count"},
    {"core.fix.partitions", "count"},
    {"core.check_s", "s"},
    {"core.check.derefs", "count"},
    {"core.check.proved_safe", "count"},
    {"oct.pack_s", "s"},
    {"oct.depbuild_s", "s"},
    {"oct.packs", "count"},
    {"oct.pack_size_mean", "count"},
    {"oct.fix_s", "s"},
    {"oct.fix.visits", "count"},
    {"oct.closures", "count"},
    {"oct.dep.bypass_removed", "count"},
    {"serve.server_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"serve.repeat_ms", "ms"},
    {"serve.partitions_total", "count"},
    {"serve.partitions_reused_frac", "ratio"},
    {"serve.edit_p90_ms", "ms"},
    {"workload.batch_overhead_s", "s"},
    {"obs.tracing_overhead_s", "s"},
};

/// Record keys of a child that are averaged over a round's programs
/// instead of summed.
bool isMeanKey(const std::string &K) {
  return K == "core.defuse.avg_def" || K == "core.defuse.avg_use" ||
         K == "oct.pack_size_mean";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I)
    Out += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
           jsonNumber(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  Out += "}}\n";
  std::fputs(Out.c_str(), stdout);
  std::fflush(stdout);
}

//===-- Shared run state --------------------------------------------------===//

/// What every workload accumulates over its rounds.
struct RunState {
  const RunOptions &O;
  double SetupS = 0;
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  /// Per untraced round: wall time and summed analysis time.
  std::vector<double> RoundS, AnalyzeS;
  std::vector<double> TracedRoundS;
  /// Per traced round: its wall time without the calls made only for the
  /// per-layer metrics (child.extra spans), and, where the traced round
  /// runs other operations than the untraced ones (check-batch), the wall
  /// time of the same operations untraced.  See tracingOverhead().
  std::vector<double> TracedNetS, TracedRefS;
  /// Latency of every operation of the untraced rounds: program
  /// analyses, batch items, or edit requests (repeats excluded).
  std::vector<double> OpMs;
  /// Rounds per run when fixed (0: as many as fit in the run).
  unsigned FixedRounds = 0;
  uint64_t PeakRssKiB = 0;
  double BoundedOutputs = 0;
  /// Per-layer values of each traced round (medians are reported).
  std::vector<Record> Layers;
  SpanLog AllSpans; ///< Every span of the run, written out at the end.

  explicit RunState(const RunOptions &O) : O(O) {}

  void fail(const std::string &Why) {
    if (Correct)
      std::fprintf(stderr, "perfbench: incorrect: %s\n", Why.c_str());
    Correct = false;
  }

  /// Closed loop over whole rounds: starts another round while the last
  /// one still fits in the run (or until FixedRounds are done); a traced
  /// run alternates untraced and traced rounds and does at least one of
  /// each.
  void loop(const std::function<double(bool Traced)> &Round) {
    double LoopStart = nowSeconds();
    double Last = 0;
    for (unsigned R = 0;; ++R) {
      bool Traced = O.Trace && R % 2 == 1;
      double Wall = Round(Traced);
      std::fprintf(stderr, "perfbench: round %u%s %.3f s\n", R,
                   Traced ? " (traced)" : "", Wall);
      (Traced ? TracedRoundS : RoundS).push_back(Wall);
      Last = std::max(Last, Wall);
      if (FixedRounds ? R + 1 == FixedRounds
                      : !(O.Trace && TracedRoundS.empty()) &&
                            nowSeconds() - LoopStart + Last > O.Seconds)
        break;
    }
  }

  /// Round timings are medians over the run's rounds and the latency is
  /// the median over all its operations: on a shared machine the median
  /// of many repeats moves far less from run to run than their best one.
  std::vector<Metric> endToEnd() const {
    return {
        {"setup_s", "s", SetupS},
        {"round_s", "s", median(RoundS)},
        {"analyze_s", "s", median(AnalyzeS)},
        {"op_p50_ms", "ms", median(OpMs)},
        {"peak_rss_mib", "MiB", static_cast<double>(PeakRssKiB) / 1024.0},
        {"bounded_outputs", "count", BoundedOutputs},
    };
  }

  std::vector<Metric> perLayer() const {
    std::vector<Metric> Ms;
    for (const auto &[Name, Unit] : LayerMetrics) {
      std::vector<double> Vs;
      for (const Record &L : Layers) {
        auto It = L.find(Name);
        Vs.push_back(It == L.end() ? 0 : It->second);
      }
      Ms.push_back({Name, Unit, median(Vs)});
    }
    Ms.back().Value = tracingOverhead();
    return Ms;
  }

  /// Median over traced rounds of the round's net wall time minus its
  /// reference: the same operations untraced where the round ran them
  /// (TracedRefS), else the mean of the untraced rounds on either side
  /// (rounds alternate untraced, traced, ...; neighbours share the
  /// machine's drift and, on serve-edits, the cache's fill).
  double tracingOverhead() const {
    std::vector<double> D;
    for (size_t K = 0; K < TracedNetS.size(); ++K) {
      double Ref = 0;
      if (K < TracedRefS.size())
        Ref = TracedRefS[K];
      else if (K + 1 < RoundS.size())
        Ref = (RoundS[K] + RoundS[K + 1]) / 2;
      else if (K < RoundS.size())
        Ref = RoundS[K];
      else
        continue;
      D.push_back(TracedNetS[K] - Ref);
    }
    return median(D);
  }

  /// Runs the self-test (after the timed part, with the other checks, in
  /// a child) and prints the result line.
  int finish() {
    std::fprintf(stderr,
                 "perfbench: setup %.4f s, %.4f s of it before the harness "
                 "started\n",
                 SetupS, O.HarnessStart - O.Start);
    ChildResult C = runChild({O.Self, "selftest"});
    if (C.ExitCode != 0)
      fail("self-test: a check cannot fail or rejects a right result");
    if (O.Trace) {
      writeFile(O.WorkDir + "/../spans-" + O.Workload + ".jsonl",
                AllSpans.toJsonLines());
      printResult(Correct, Attempted, Failed, perLayer());
    } else {
      printResult(Correct, Attempted, Failed, endToEnd());
    }
    return 0;
  }
};

/// Folds one traced round's spans and child records into per-layer
/// values: span self times for the *_s metrics, summed (or averaged)
/// child counts for the rest.
Record layerRecord(const SpanLog &Log, const std::vector<Record> &Children) {
  Record L;
  for (const auto &[Name, Self] : Log.selfTimes())
    L[Name + "_s"] += Self;
  size_t N = 0;
  for (const Record &C : Children) {
    ++N;
    for (const auto &[K, V] : C)
      if (K != "analyze_s")
        L[K] += V;
  }
  for (auto &[K, V] : L)
    if (isMeanKey(K) && N)
      V /= static_cast<double>(N);
  return L;
}

//===-- Programs analyzed in child processes ------------------------------===//

/// One round: every program once, in a fresh child, one at a time.
double programRound(RunState &S, const std::string &Kind,
                    const std::vector<Input> &Inputs, bool Traced) {
  SpanLog Log;
  std::vector<Record> Recs;
  double AnalyzeSum = 0;
  double T0 = nowSeconds();
  {
    Span Round(Traced ? &Log : nullptr, "workload.round");
    for (size_t I = 0; I < Inputs.size(); ++I) {
      std::vector<std::string> Argv = {S.O.Self, "child", Kind,
                                       Inputs[I].Path};
      if (Traced) {
        Log.open("workload.child");
        Argv.push_back("--spans");
        Argv.push_back("--parent=" + std::to_string(Log.current()));
      }
      double C0 = nowSeconds();
      ChildResult C = runChild(Argv);
      double C1 = nowSeconds();
      if (Traced) {
        Log.close();
        Log.appendRecordLines(C.Out);
      }
      ++S.Attempted;
      if (C.ExitCode != 0) {
        ++S.Failed;
        continue;
      }
      Record R = parseRecord(C.Out);
      if (!Traced) {
        S.OpMs.push_back((C1 - C0) * 1000);
        S.PeakRssKiB = std::max(S.PeakRssKiB, C.MaxRssKiB);
      }
      AnalyzeSum += R["analyze_s"];
      Recs.push_back(std::move(R));
    }
  }
  double Wall = nowSeconds() - T0;
  if (Traced) {
    S.Layers.push_back(layerRecord(Log, Recs));
    S.AllSpans.append(Log.spans());
    S.TracedNetS.push_back(Wall - Log.total("child.extra"));
  } else {
    S.AnalyzeS.push_back(AnalyzeSum);
  }
  return Wall;
}

/// Runs the oracle children (one per program, several at a time) and
/// folds their verdicts into \p S.  \p Extra adds per-program arguments.
std::vector<Record>
verifyPrograms(RunState &S, const std::string &Kind,
               const std::vector<Input> &Inputs,
               const std::function<void(size_t, std::vector<std::string> &)>
                   &Extra = nullptr) {
  std::vector<std::vector<std::string>> Argvs;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    Argvs.push_back({S.O.Self, "child", Kind, Inputs[I].Path, "--verify",
                     seedsArg(S.O.Seed)});
    if (Extra)
      Extra(I, Argvs.back());
  }
  std::vector<ChildResult> Rs = runChildren(Argvs, verifyLanes());
  std::vector<Record> Recs;
  S.BoundedOutputs = 0;
  for (size_t I = 0; I < Rs.size(); ++I) {
    Record R = parseRecord(Rs[I].Out);
    if (Rs[I].ExitCode != 0)
      S.fail("verification child for " + Inputs[I].Name + " exited with " +
             std::to_string(Rs[I].ExitCode));
    else if (R["oracle.failures"] != 0 || R["oracle.checked"] == 0)
      S.fail("oracle on " + Inputs[I].Name + ": " +
             jsonNumber(R["oracle.failures"]) + " of " +
             jsonNumber(R["oracle.checked"]) + " facts failed");
    else if (R["degraded"] != 0)
      S.fail(Inputs[I].Name + " degraded");
    S.BoundedOutputs += R["bounded_outputs"];
    Recs.push_back(std::move(R));
  }
  return Recs;
}

int runPrograms(RunState &S, const std::string &Kind,
                const WorkloadInputs &W) {
  std::vector<Input> Inputs;
  if (!makeInputs(W, S.O, Inputs))
    return 2;
  S.SetupS = nowSeconds() - S.O.Start;
  S.loop([&](bool Traced) { return programRound(S, Kind, Inputs, Traced); });
  // Octagon: the first (smallest) program is also compared against the
  // dense DBM backend.
  verifyPrograms(S, Kind, Inputs, [&](size_t I, std::vector<std::string> &A) {
    if (Kind == "oct" && I == 0)
      A.push_back("--dbm");
  });
  return S.finish();
}

//===-- check-batch -------------------------------------------------------===//

int runCheckBatch(RunState &S) {
  std::vector<Input> Inputs;
  if (!makeInputs(CheckBatch, S.O, Inputs))
    return 2;
  std::vector<BatchItem> Items;
  for (const Input &In : Inputs)
    Items.emplace_back(In.Name, In.Source);
  BatchOptions BO;
  BO.Check = true;
  BO.Isolate = true;
  BO.Analyzer.Jobs = BatchLanes;
  S.SetupS = nowSeconds() - S.O.Start;

  BatchResult First;
  std::vector<double> Overheads;
  S.loop([&](bool Traced) {
    SpanLog Log;
    double T0 = nowSeconds();
    BatchResult R;
    {
      Span B(Traced ? &Log : nullptr, "workload.batch");
      R = runBatch(Items, BO);
    }
    double Wall = nowSeconds() - T0;
    double ItemSum = 0;
    for (size_t I = 0; I < R.Items.size(); ++I) {
      const BatchItemResult &It = R.Items[I];
      ++S.Attempted;
      if (!It.Ok || It.Degraded) {
        ++S.Failed;
        continue;
      }
      ItemSum += It.Seconds;
      if (!Traced) {
        S.OpMs.push_back(It.Seconds * 1000);
        S.PeakRssKiB = std::max(S.PeakRssKiB, It.PeakRssKiB);
      }
    }
    if (First.Items.empty())
      First = R;
    Overheads.push_back(Wall - ItemSum);
    if (!Traced) {
      S.AnalyzeS.push_back(ItemSum);
      return Wall;
    }
    // The per-layer split of the checker configuration comes from the
    // same programs analyzed layer by layer in traced children; the same
    // children untraced give the tracing overhead its reference.
    RunState Inner(S.O);
    programRound(Inner, "check", Inputs, true);
    double RefWall = programRound(Inner, "check", Inputs, false);
    S.Attempted += Inner.Attempted;
    S.Failed += Inner.Failed;
    S.TracedNetS.push_back(Inner.TracedNetS.at(0));
    S.TracedRefS.push_back(RefWall);
    Record L = Inner.Layers.at(0);
    L["workload.batch_overhead_s"] = median(Overheads);
    S.Layers.push_back(std::move(L));
    S.AllSpans.append(Log.spans());
    S.AllSpans.append(Inner.AllSpans.spans());
    return Wall;
  });

  std::vector<Record> Recs = verifyPrograms(S, "check", Inputs);
  for (size_t I = 0; I < Recs.size() && I < First.Items.size(); ++I) {
    const BatchItemResult &It = First.Items[I];
    if (It.Checks != Recs[I]["core.check.derefs"] ||
        It.Alarms != Recs[I]["alarms"])
      S.fail("batch verdicts for " + It.Name + " (" +
             std::to_string(It.Checks) + " checks, " +
             std::to_string(It.Alarms) +
             " alarms) differ from the in-process checker run");
  }
  return S.finish();
}

//===-- serve-edits -------------------------------------------------------===//

/// The edited versions: edit N = Round * EditsPerRound + K of a run raises
/// literal Pick[N % |Pick|] of the base program (Pick is a seeded
/// permutation of all its literals) by 1 + N / |Pick|, so every version of
/// a run is distinct and differs from the base in exactly one literal.
struct EditPlan {
  std::string Base;
  std::vector<std::pair<size_t, size_t>> Lits;
  std::vector<size_t> Pick;

  std::string version(unsigned Round, unsigned K) const {
    size_t N = size_t(Round) * EditsPerRound + K;
    auto [Pos, Len] = Lits[Pick[N % Pick.size()]];
    long long V = std::atoll(Base.substr(Pos, Len).c_str()) + 1 +
                  static_cast<long long>(N / Pick.size());
    return Base.substr(0, Pos) + std::to_string(V) + Base.substr(Pos + Len);
  }
};

int runServeEdits(RunState &S) {
  EditPlan Plan;
  Plan.Base = seededSource(paperSuite(ServeEdits.Scale).at(ServeEdits.Suite[0]),
                           S.O.Seed, ServeEdits.Suite[0]);
  Plan.Lits = literals(Plan.Base);
  if (Plan.Lits.size() < EditsPerRound) {
    std::fprintf(stderr, "perfbench: base program has only %zu literals\n",
                 Plan.Lits.size());
    return 2;
  }
  Plan.Pick.resize(Plan.Lits.size());
  std::iota(Plan.Pick.begin(), Plan.Pick.end(), 0);
  for (size_t I = Plan.Pick.size(); I > 1; --I)
    std::swap(Plan.Pick[I - 1], Plan.Pick[mix(S.O.Seed ^ I) % I]);

  std::string Sock = S.O.WorkDir + "/serve.sock";
  int Pid = spawnBackground({S.O.ServeBin, "--socket=" + Sock, "--jobs=1"});
  if (Pid <= 0)
    return 2;
  serve::Client C;
  std::string Err;
  for (double Deadline = nowSeconds() + 30; nowSeconds() < Deadline;
       usleep(2000))
    if (C.connect(Sock, Err) == serve::ServeErrc::None)
      break;
  auto Stop = [&] {
    std::string E2;
    if (C.connected())
      C.shutdown(E2);
    return reapBackground(Pid, 10);
  };
  serve::AnalyzeRequest Req;
  serve::AnalyzeResponse BaseResp;
  Req.Program = Plan.Base;
  if (!C.connected() ||
      C.analyze(Req, BaseResp, Err) != serve::ServeErrc::None) {
    std::fprintf(stderr, "perfbench: daemon did not answer: %s\n",
                 Err.c_str());
    Stop();
    return 2;
  }
  S.SetupS = nowSeconds() - S.O.Start;
  S.FixedRounds = std::max(
      ServeMinRounds,
      static_cast<unsigned>(std::lround(S.O.Seconds / ServeRoundSeconds)));

  // Digest each response reported, per version; repeats must match too.
  struct Seen {
    unsigned Round, K;
    uint64_t Digest;
  };
  std::vector<Seen> Responses;
  std::vector<double> ServerMs, WireMs, RepeatMs;
  double Reused = 0, Total = 0;
  unsigned Rounds = 0;

  S.loop([&](bool Traced) {
    SpanLog Log;
    unsigned Round = Rounds++;
    unsigned Edits = 0;
    double AnalyzeSum = 0;
    double T0 = nowSeconds();
    for (unsigned I = 0; I < EditsPerRound + EditsPerRound / 3; ++I) {
      // Every fourth request repeats one of the round's last few edits.
      bool Repeat = I % 4 == 3;
      unsigned K = Repeat ? Edits - 1 - (I * 7) % Edits : Edits++;
      serve::AnalyzeRequest R;
      R.Program = Plan.version(Round, K);
      serve::AnalyzeResponse Resp;
      Span Sp(Traced ? &Log : nullptr, "serve.request");
      double C0 = nowSeconds();
      serve::ServeErrc E = C.analyze(R, Resp, Err);
      double Ms = (nowSeconds() - C0) * 1000;
      ++S.Attempted;
      if (E != serve::ServeErrc::None || Resp.Degraded || Resp.TimedOut) {
        ++S.Failed;
        continue;
      }
      Responses.push_back({Round, K, Resp.ResultDigest});
      AnalyzeSum += Resp.WallSeconds;
      if (Repeat) {
        RepeatMs.push_back(Ms);
        continue;
      }
      if (!Traced)
        S.OpMs.push_back(Ms);
      ServerMs.push_back(Resp.WallSeconds * 1000);
      WireMs.push_back(Ms - Resp.WallSeconds * 1000);
      Reused += Resp.PartitionsReused;
      Total += Resp.PartitionsTotal;
    }
    double Wall = nowSeconds() - T0;
    if (Round + 1 == ServeMinRounds)
      S.PeakRssKiB = peakRssKiB(Pid);
    if (!Traced) {
      S.AnalyzeS.push_back(AnalyzeSum);
    } else {
      S.Layers.push_back({});
      S.AllSpans.append(Log.spans());
      S.TracedNetS.push_back(Wall);
    }
    return Wall;
  });
  Stop();

  if (S.O.Trace)
    for (Record &L : S.Layers) {
      L["serve.server_ms"] = median(ServerMs);
      L["serve.wire_ms"] = median(WireMs);
      L["serve.repeat_ms"] = median(RepeatMs);
      L["serve.edit_p90_ms"] = quantile(S.OpMs, 0.9);
      L["serve.partitions_total"] = BaseResp.PartitionsTotal;
      L["serve.partitions_reused_frac"] = Total > 0 ? Reused / Total : 0;
    }

  // Cold in-process digests, one per distinct version, in children.
  std::vector<std::string> Files = {S.O.WorkDir + "/base.spa"};
  writeFile(Files[0], Plan.Base);
  for (unsigned R = 0; R < Rounds; ++R)
    for (unsigned K = 0; K < EditsPerRound; ++K) {
      Files.push_back(S.O.WorkDir + "/v" + std::to_string(R) + "-" +
                      std::to_string(K) + ".spa");
      writeFile(Files.back(), Plan.version(R, K));
    }
  unsigned Lanes = verifyLanes();
  std::vector<std::vector<std::string>> Argvs(Lanes);
  for (unsigned L = 0; L < Lanes; ++L)
    Argvs[L] = {S.O.Self, "child", "digest"};
  for (size_t I = 0; I < Files.size(); ++I)
    Argvs[I % Lanes].push_back(Files[I]);
  std::vector<ChildResult> Rs = runChildren(Argvs, Lanes);
  std::vector<uint64_t> Cold(Files.size(), 0);
  for (unsigned L = 0; L < Lanes; ++L) {
    if (Rs[L].ExitCode != 0)
      S.fail("digest child exited with " + std::to_string(Rs[L].ExitCode));
    size_t Idx;
    unsigned long long D, B;
    for (const char *P = Rs[L].Out.c_str(); *P;) {
      if (std::sscanf(P, "digest %zu %llu", &Idx, &D) == 2)
        Cold[L + Idx * Lanes] = D;
      else if (std::sscanf(P, "bounded_outputs %llu", &B) == 1)
        S.BoundedOutputs = static_cast<double>(B);
      const char *NL = std::strchr(P, '\n');
      P = NL ? NL + 1 : P + std::strlen(P);
    }
  }
  CheckResult Digests = checkDigest(BaseResp.ResultDigest, Cold[0], "base");
  for (const Seen &V : Responses)
    Digests.merge(checkDigest(V.Digest, Cold[1 + V.Round * EditsPerRound + V.K],
                              "version " + std::to_string(V.Round) + "/" +
                                  std::to_string(V.K)));
  if (!Digests.ok())
    S.fail(std::to_string(Digests.Failures) + " of " +
           std::to_string(Digests.Checked) +
           " served digests differ from the cold run, first " + Digests.First);
  return S.finish();
}

} // namespace

int runWorkload(const RunOptions &O) {
  RunState S(O);
  if (O.Workload == "interval-large")
    return runPrograms(S, "interval", IntervalLarge);
  if (O.Workload == "octagon")
    return runPrograms(S, "oct", Octagon);
  if (O.Workload == "check-batch")
    return runCheckBatch(S);
  if (O.Workload == "serve-edits")
    return runServeEdits(S);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               O.Workload.c_str());
  return 2;
}

} // namespace perfbench
