//===- Child.cpp - One analysis in a fresh process -----------------------------===//

#include "Child.h"

#include "Common.h"
#include "Oracle.h"
#include "Spans.h"

#include "core/Analyzer.h"
#include "core/Checker.h"
#include "ir/Builder.h"
#include "lang/Parser.h"
#include "obs/Metrics.h"
#include "oct/OctAnalysis.h"
#include "oct/Packing.h"
#include "serve/Service.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

using namespace spa;

namespace perfbench {

namespace {

struct ChildArgs {
  std::string Kind;
  std::vector<std::string> Files;
  bool Verify = false;
  bool Dbm = false;
  std::vector<uint64_t> Seeds;
  bool Spans = false;
  uint64_t Parent = 0;
};

double counter(const char *Name) {
  return spa::obs::Registry::global().value(Name);
}

void reportCheck(Record &Rec, const CheckResult &C) {
  Rec["oracle.checked"] += static_cast<double>(C.Checked);
  Rec["oracle.failures"] += static_cast<double>(C.Failures);
  if (!C.ok())
    std::fprintf(stderr, "perfbench: check failed: %s\n", C.First.c_str());
}

/// Interval analysis, timed through the facade (untraced) or layer by
/// layer (traced).  Check = the checker configuration (bypass off).
int runInterval(const ChildArgs &A, const std::string &Src, SpanLog *Log,
                Record &Rec) {
  bool Check = A.Kind == "check";
  std::unique_ptr<Program> Prog;
  std::optional<AnalysisRun> Opt;
  CheckerSummary Sum;
  double T0 = nowSeconds();
  if (!Log) {
    BuildResult B = buildProgramFromSource(Src);
    if (!B.ok()) {
      std::fprintf(stderr, "perfbench: build failed: %s\n", B.Error.c_str());
      return 2;
    }
    Prog = std::move(B.Prog);
    AnalyzerOptions O;
    O.Dep.Bypass = !Check;
    Opt.emplace(analyzeProgram(*Prog, O));
    if (Check)
      Sum = checkBufferOverruns(*Prog, *Opt);
  } else {
    Span Whole(Log, "child.analyze");
    ParseResult PR;
    {
      Span S(Log, "lang.parse");
      PR = parseProgram(Src);
    }
    if (!PR.Ok) {
      std::fprintf(stderr, "perfbench: parse failed: %s\n", PR.Error.c_str());
      return 2;
    }
    {
      Span S(Log, "ir.lower");
      BuildResult B = buildProgram(PR.Program);
      Prog = std::move(B.Prog);
    }
    if (!Prog)
      return 2;
    {
      Span S(Log, "core.pre");
      Opt.emplace(AnalysisRun{runPreAnalysis(*Prog, SemanticsOptions()),
                              DefUseInfo{}, {}, {}, {}, 0, 0});
    }
    AnalysisRun &Run = *Opt;
    {
      Span S(Log, "core.defuse");
      Run.DU = computeDefUse(*Prog, Run.Pre);
    }
    DepOptions D;
    D.Bypass = !Check;
    {
      Span S(Log, "core.depbuild");
      Run.Graph = buildDepGraph(*Prog, Run.Pre.CG, Run.DU, D);
    }
    SparseOptions SO;
    SO.DegradeTo = &Run.Pre.Global;
    {
      Span S(Log, "core.fix");
      Run.Sparse = runSparseAnalysis(*Prog, Run.Pre.CG, *Run.Graph, SO);
    }
    if (Check) {
      Span S(Log, "core.check");
      Sum = checkBufferOverruns(*Prog, Run);
    }
  }
  Rec["analyze_s"] = nowSeconds() - T0;
  const AnalysisRun &Run = *Opt;

  if (Log && !Check) {
    // The same call with the contraction off: the difference to
    // core.depbuild is what the bypass costs.  Under child.extra, which
    // the tracing overhead leaves out.
    Span E(Log, "child.extra");
    Span S(Log, "core.depbuild.nobypass");
    DepOptions D;
    D.Bypass = false;
    buildDepGraph(*Prog, Run.Pre.CG, Run.DU, D);
  }

  const SparseGraph &G = *Run.Graph;
  Rec["ir.points"] = static_cast<double>(Prog->numPoints());
  Rec["ir.locs"] = static_cast<double>(Prog->numLocs());
  Rec["core.defuse.avg_def"] = Run.DU.avgSemanticDefSize();
  Rec["core.defuse.avg_use"] = Run.DU.avgSemanticUseSize();
  Rec["core.dep.nodes"] = static_cast<double>(G.numNodes());
  Rec["core.dep.phis"] = static_cast<double>(G.Phis.size());
  Rec["core.dep.edges_before_bypass"] = static_cast<double>(G.EdgesBeforeBypass);
  Rec["core.dep.edges"] = static_cast<double>(G.Edges->edgeCount());
  Rec["core.dep.bypass_removed"] = static_cast<double>(G.BypassRemoved);
  Rec["core.fix.visits"] = static_cast<double>(Run.Sparse->Visits);
  Rec["core.fix.widenings"] = counter("fixpoint.widenings");
  Rec["core.fix.state_entries"] = static_cast<double>(Run.Sparse->StateEntries);
  Rec["core.fix.partitions"] =
      static_cast<double>(computeDepComponents(*Prog, G).NumComps);
  Rec["degraded"] = Run.degraded() ? 1 : 0;
  if (Check) {
    Rec["core.check.derefs"] = static_cast<double>(Sum.Checks.size());
    Rec["core.check.proved_safe"] = Sum.numSafe();
    Rec["alarms"] = Sum.numAlarms();
  }

  if (A.Verify) {
    // A contracted (bypass-on) graph only guarantees the semantic defs;
    // a bypass-off run holds every node def.
    const DefSets &Defs = Check ? G.NodeDefs : Run.DU.Defs;
    std::vector<PointId> Overruns;
    reportCheck(Rec, checkIntervalOracle(*Prog, Run.Pre.CG, Defs,
                                         Run.Sparse->Out, A.Seeds, &Overruns));
    if (Check) {
      reportCheck(Rec, checkOverrunsAlarmed(Overruns, Sum));
      reportCheck(Rec, checkDerefCount(*Prog, Sum));
    }
    Rec["bounded_outputs"] =
        static_cast<double>(countBoundedOutputs(Defs, Run.Sparse->Out));
  }
  return 0;
}

int runOct(const ChildArgs &A, const std::string &Src, SpanLog *Log,
           Record &Rec) {
  std::unique_ptr<Program> Prog;
  std::optional<OctRun> Opt;
  double T0 = nowSeconds();
  if (!Log) {
    BuildResult B = buildProgramFromSource(Src);
    if (!B.ok()) {
      std::fprintf(stderr, "perfbench: build failed: %s\n", B.Error.c_str());
      return 2;
    }
    Prog = std::move(B.Prog);
    Opt.emplace(runOctAnalysis(*Prog, OctOptions()));
  } else {
    Span Whole(Log, "child.analyze");
    ParseResult PR;
    {
      Span S(Log, "lang.parse");
      PR = parseProgram(Src);
    }
    if (!PR.Ok)
      return 2;
    {
      Span S(Log, "ir.lower");
      Prog = buildProgram(PR.Program).Prog;
    }
    if (!Prog)
      return 2;
    double RunStart = nowSeconds();
    {
      Span S(Log, "oct.run");
      Opt.emplace(runOctAnalysis(*Prog, OctOptions()));
    }
    // The octagon fixpoint has no public entry of its own: it is the
    // facade's span minus the facade's own timings of the stages before
    // it (pre-analysis, packing and def-use, dependency construction).
    const OctRun &Run = *Opt;
    Rec["oct.fix_s"] =
        std::max(0.0, nowSeconds() - RunStart - Run.PreSeconds -
                          Run.DefUseSeconds -
                          (Run.Graph ? Run.Graph->BuildSeconds : 0));
  }
  Rec["analyze_s"] = nowSeconds() - T0;
  const OctRun &Run = *Opt;

  if (Log) {
    // The stages before the fixpoint as separate calls, after the facade
    // so that its time is not shortened by value pools these calls would
    // have filled; they see warm pools instead.  Under child.extra, which
    // the tracing overhead leaves out.
    Span E(Log, "child.extra");
    std::optional<PreAnalysisResult> Pre;
    {
      Span S(Log, "core.pre");
      Pre.emplace(runPreAnalysis(*Prog, SemanticsOptions()));
    }
    Packing Packs;
    {
      Span S(Log, "oct.pack");
      Packs = computePacking(*Prog, *Pre, OctOptions().MaxPackSize);
    }
    DefUseInfo DU;
    {
      Span S(Log, "oct.defuse");
      DU = computeOctDefUse(*Prog, *Pre, Packs);
    }
    {
      Span S(Log, "oct.depbuild");
      DepOptions D;
      D.NumLocsOverride = Packs.numPacks();
      buildDepGraph(*Prog, Pre->CG, DU, D);
    }
  }

  Rec["ir.points"] = static_cast<double>(Prog->numPoints());
  Rec["ir.locs"] = static_cast<double>(Prog->numLocs());
  Rec["oct.packs"] = Run.Packs.numPacks();
  Rec["oct.pack_size_mean"] = Run.Packs.avgGroupSize();
  Rec["oct.fix.visits"] = static_cast<double>(Run.Sparse->Visits);
  Rec["oct.closures"] = counter("oct.closures");
  Rec["oct.dep.bypass_removed"] = static_cast<double>(Run.Graph->BypassRemoved);
  Rec["degraded"] = Run.degraded() ? 1 : 0;

  if (A.Verify) {
    reportCheck(Rec, checkOctOracle(*Prog, Run, A.Seeds));
    if (A.Dbm) {
      OctOptions O;
      O.Backend = OctBackendKind::Dbm;
      OctRun Dense = runOctAnalysis(*Prog, O);
      reportCheck(Rec, checkOctAgree(Run, Dense));
    }
    Rec["bounded_outputs"] = static_cast<double>(countOctBoundedOutputs(Run));
  }
  return 0;
}

/// Cold in-process digests with the daemon's default options; the first
/// file also reports its bounded outputs.
int runDigests(const ChildArgs &A) {
  for (size_t I = 0; I < A.Files.size(); ++I) {
    BuildResult B = buildProgramFromSource(readFile(A.Files[I]));
    if (!B.ok()) {
      std::fprintf(stderr, "perfbench: build failed: %s\n", B.Error.c_str());
      return 2;
    }
    AnalysisRun Run =
        analyzeProgram(*B.Prog, serve::ServiceOptions().Analyzer);
    std::printf("digest %zu %llu\n", I,
                static_cast<unsigned long long>(
                    serve::hashSparseStates(*Run.Sparse)));
    if (I == 0)
      std::printf("bounded_outputs %llu\n",
                  static_cast<unsigned long long>(
                      countBoundedOutputs(Run.DU.Defs, Run.Sparse->Out)));
  }
  return 0;
}

} // namespace

int childMain(const std::vector<std::string> &Args) {
  if (Args.size() < 2) {
    std::fprintf(stderr, "perfbench: child needs a kind and a file\n");
    return 2;
  }
  ChildArgs A;
  A.Kind = Args[0];
  for (size_t I = 1; I < Args.size(); ++I) {
    const std::string &W = Args[I];
    if (W == "--verify")
      A.Verify = true;
    else if (W == "--dbm")
      A.Dbm = true;
    else if (W.rfind("--seeds=", 0) == 0) {
      for (const char *P = W.c_str() + 8; *P;) {
        char *End;
        A.Seeds.push_back(std::strtoull(P, &End, 10));
        P = *End ? End + 1 : End;
      }
    } else if (W == "--spans")
      A.Spans = true;
    else if (W.rfind("--parent=", 0) == 0)
      A.Parent = std::strtoull(W.c_str() + 9, nullptr, 10);
    else
      A.Files.push_back(W);
  }
  if (A.Kind == "digest")
    return runDigests(A);

  std::string Src = readFile(A.Files.at(0));
  SpanLog Log;
  Log.setRootParent(A.Parent);
  SpanLog *L = A.Spans ? &Log : nullptr;
  Record Rec;
  int Rc;
  if (A.Kind == "interval" || A.Kind == "check")
    Rc = runInterval(A, Src, L, Rec);
  else if (A.Kind == "oct")
    Rc = runOct(A, Src, L, Rec);
  else {
    std::fprintf(stderr, "perfbench: unknown child kind '%s'\n",
                 A.Kind.c_str());
    return 2;
  }
  if (Rc != 0)
    return Rc;
  std::fputs(formatRecord(Rec).c_str(), stdout);
  std::fputs(Log.toRecordLines().c_str(), stdout);
  return 0;
}

} // namespace perfbench
