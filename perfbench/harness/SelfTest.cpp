//===- SelfTest.cpp - Shows that every correctness check can fail --------------===//
//
// Each check of Oracle.h is run twice on one small generated program:
// once on the analyzer's real result, where it must pass, and once on a
// deliberately wrong copy (a narrowed interval, a bottom octagon, a
// dropped or missing alarm, a flipped digest), where it must fail.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "Workloads.h"

#include "core/Analyzer.h"
#include "interp/Interp.h"
#include "ir/Builder.h"
#include "workload/Suite.h"

using namespace spa;

namespace perfbench {

namespace {

constexpr uint64_t InterpSeed = 1;

bool expect(bool Pass, const CheckResult &C, const char *What,
            std::string &Why) {
  if (Pass && (!C.ok() || C.Checked == 0))
    Why = std::string(What) + " fails on the real result: " + C.First;
  else if (!Pass && C.ok())
    Why = std::string(What) + " accepts a wrong result";
  else
    return true;
  return false;
}

/// A (point, location, value) the interpreter observes at a semantic def.
bool observedInt(const Program &Prog, const AnalysisRun &Run, PointId &P,
                 LocId &L, int64_t &V) {
  bool Found = false;
  InterpOptions IO;
  IO.InputSeed = InterpSeed;
  Interp I(Prog, Run.Pre.CG, IO);
  I.run([&](PointId At, const Interp &It) {
    if (Found)
      return;
    for (LocId D : Run.DU.Defs[At.value()]) {
      const CValue &CV = It.varValue(D);
      if (!Prog.loc(D).isSummary() && CV.K == CValue::Kind::Int) {
        P = At;
        L = D;
        V = CV.I;
        Found = true;
        return;
      }
    }
  });
  return Found;
}

} // namespace

bool runSelfTest(std::string &Why) {
  SuiteEntry E = paperSuite(0.1).at(6);
  E.Config.Seed = 7;
  BuildResult B = buildProgramFromSource(generateSource(E.Config));
  if (!B.ok()) {
    Why = "self-test program does not build: " + B.Error;
    return false;
  }
  const Program &Prog = *B.Prog;
  std::vector<uint64_t> Seeds = {InterpSeed};

  // Interval oracle: a narrowed interval at an observed def must fail.
  AnalysisRun Run = analyzeProgram(Prog, AnalyzerOptions());
  std::vector<AbsState> Out = Run.Sparse->Out;
  if (!expect(true,
              checkIntervalOracle(Prog, Run.Pre.CG, Run.DU.Defs, Out, Seeds),
              "interval oracle", Why))
    return false;
  PointId P;
  LocId L;
  int64_t V = 0;
  if (!observedInt(Prog, Run, P, L, V)) {
    Why = "self-test program observes no integer def";
    return false;
  }
  Value Narrowed = Out[P.value()].get(L);
  Narrowed.Itv = Interval::constant(V + 1);
  Out[P.value()].set(L, Narrowed);
  if (!expect(false,
              checkIntervalOracle(Prog, Run.Pre.CG, Run.DU.Defs, Out, Seeds),
              "interval oracle", Why))
    return false;

  // Checker: a dropped check breaks the dereference count; an overrun at
  // a point the checker calls safe is a missing alarm.
  AnalyzerOptions NoBypass;
  NoBypass.Dep.Bypass = false;
  AnalysisRun CRun = analyzeProgram(Prog, NoBypass);
  CheckerSummary Sum = checkBufferOverruns(Prog, CRun);
  if (Sum.Checks.empty()) {
    Why = "self-test program has no dereference";
    return false;
  }
  if (!expect(true, checkDerefCount(Prog, Sum), "dereference count", Why))
    return false;
  CheckerSummary Dropped = Sum;
  Dropped.Checks.pop_back();
  if (!expect(false, checkDerefCount(Prog, Dropped), "dereference count",
              Why))
    return false;
  PointId Probe = Sum.Checks.front().P;
  std::vector<PointId> Overrun = {Probe};
  CheckerSummary Flagged = Sum, Unflagged = Sum;
  for (AccessCheck &C : Flagged.Checks)
    if (C.P == Probe)
      C.Result = AccessCheck::Verdict::Alarm;
  for (AccessCheck &C : Unflagged.Checks)
    if (C.P == Probe)
      C.Result = AccessCheck::Verdict::Safe;
  if (!expect(true, checkOverrunsAlarmed(Overrun, Flagged), "overrun alarms",
              Why))
    return false;
  if (!expect(false, checkOverrunsAlarmed(Overrun, Unflagged),
              "overrun alarms", Why))
    return false;

  // Digest: a flipped bit must differ.
  uint64_t D = 0x1234;
  if (!expect(true, checkDigest(D, D, "digest"), "digest", Why) ||
      !expect(false, checkDigest(D ^ 1, D, "digest"), "digest", Why))
    return false;

  // Octagon oracle and backend agreement: bottom states must fail both.
  OctRun Oct = runOctAnalysis(Prog, OctOptions());
  OctOptions DbmOpts;
  DbmOpts.Backend = OctBackendKind::Dbm;
  OctRun Dbm = runOctAnalysis(Prog, DbmOpts);
  if (!expect(true, checkOctOracle(Prog, Oct, Seeds), "octagon oracle", Why) ||
      !expect(true, checkOctAgree(Oct, Dbm), "octagon agreement", Why))
    return false;
  for (OctState &S : Dbm.Sparse->Out)
    if (!S.empty()) {
      S.clear();
      break;
    }
  for (OctState &S : Oct.Sparse->Out)
    S.clear();
  if (!expect(false, checkOctOracle(Prog, Oct, Seeds), "octagon oracle",
              Why))
    return false;
  OctRun Oct2 = runOctAnalysis(Prog, OctOptions());
  if (!expect(false, checkOctAgree(Oct2, Dbm), "octagon agreement", Why))
    return false;
  return true;
}

} // namespace perfbench
