//===- Oracle.cpp - Correctness checks computed apart from the analyzer --------===//

#include "Oracle.h"

#include "interp/Interp.h"

#include <set>

using namespace spa;

namespace perfbench {

namespace {

/// gamma-membership: is the concrete value \p CV covered by \p AV?
bool contained(const Interp &I, const CValue &CV, const Value &AV) {
  switch (CV.K) {
  case CValue::Kind::Uninit:
    return true; // Reading an uninitialized cell traps; no constraint.
  case CValue::Kind::Int:
    return AV.Itv.contains(CV.I);
  case CValue::Kind::Fun:
    return AV.Funcs.contains(CV.F);
  case CValue::Kind::Ptr: {
    LocId Base = CV.Heap ? I.heapBlocks()[CV.Block].Site : CV.VarBase;
    return AV.Pts.contains(Base) && AV.Offset.contains(CV.Off) &&
           AV.Size.contains(I.blockSize(CV));
  }
  }
  return false;
}

bool bounded(const Interval &I) {
  return !I.isBot() && I.lo() != bound::NegInf && I.hi() != bound::PosInf;
}

uint64_t derefsIn(const IExpr &E) {
  switch (E.Kind) {
  case IExprKind::Deref:
    return 1;
  case IExprKind::Binary:
    return derefsIn(*E.Lhs) + derefsIn(*E.Rhs);
  default:
    return 0;
  }
}

/// Dereferences counted by walking the IR's load and store commands.
uint64_t countDerefs(const Program &Prog) {
  uint64_t N = 0;
  for (const Point &Pt : Prog.Points) {
    const Command &C = Pt.Cmd;
    switch (C.Kind) {
    case CmdKind::Assign:
    case CmdKind::RetStmt:
    case CmdKind::Alloc:
      N += derefsIn(*C.E);
      break;
    case CmdKind::Store:
      N += 1 + derefsIn(*C.E);
      break;
    case CmdKind::Assume:
      N += derefsIn(*C.Cnd->Lhs) + derefsIn(*C.Cnd->Rhs);
      break;
    case CmdKind::Call:
      for (const auto &A : C.Args)
        N += derefsIn(*A);
      break;
    default:
      break;
    }
  }
  return N;
}

} // namespace

CheckResult checkIntervalOracle(const Program &Prog, const CallGraphInfo &CG,
                                const DefSets &Defs,
                                const std::vector<AbsState> &Out,
                                const std::vector<uint64_t> &InputSeeds,
                                std::vector<PointId> *Overruns) {
  CheckResult R;
  for (uint64_t Seed : InputSeeds) {
    InterpOptions IOpts;
    IOpts.InputSeed = Seed;
    Interp Run(Prog, CG, IOpts);
    InterpResult IR = Run.run([&](PointId P, const Interp &I) {
      for (LocId L : Defs[P.value()]) {
        if (Prog.loc(L).isSummary())
          continue;
        ++R.Checked;
        if (!contained(I, I.varValue(L), Out[P.value()].get(L)))
          R.fail("interpreter value of " + Prog.loc(L).Name + " at {" +
                 Prog.pointToString(P) + "} outside " +
                 Out[P.value()].get(L).str());
      }
    });
    if (Overruns)
      Overruns->insert(Overruns->end(), IR.OverrunPoints.begin(),
                       IR.OverrunPoints.end());
  }
  return R;
}

CheckResult checkOverrunsAlarmed(const std::vector<PointId> &Overruns,
                                 const CheckerSummary &Sum) {
  std::set<uint32_t> Alarmed;
  for (const AccessCheck &C : Sum.Checks)
    if (C.Result != AccessCheck::Verdict::Safe)
      Alarmed.insert(C.P.value());
  CheckResult R;
  for (PointId P : Overruns) {
    ++R.Checked;
    if (!Alarmed.count(P.value()))
      R.fail("interpreter overran a buffer at point " +
             std::to_string(P.value()) + " but the checker raised no alarm");
  }
  return R;
}

CheckResult checkDerefCount(const Program &Prog, const CheckerSummary &Sum) {
  CheckResult R;
  R.Checked = 1;
  uint64_t Want = countDerefs(Prog);
  uint64_t Got = uint64_t(Sum.numSafe()) + Sum.numAlarms();
  if (Got != Want)
    R.fail("proved safe + alarms = " + std::to_string(Got) + " but the IR has " +
           std::to_string(Want) + " dereferences");
  return R;
}

uint64_t countBoundedOutputs(const DefSets &Defs,
                             const std::vector<AbsState> &Out) {
  uint64_t N = 0;
  for (size_t P = 0; P < Defs.size(); ++P)
    for (LocId L : Defs[P])
      N += bounded(Out[P].get(L).Itv);
  return N;
}

CheckResult checkOctOracle(const Program &Prog, const OctRun &Run,
                           const std::vector<uint64_t> &InputSeeds) {
  CheckResult R;
  for (uint64_t Seed : InputSeeds) {
    InterpOptions IOpts;
    IOpts.InputSeed = Seed;
    Interp I(Prog, Run.Pre.CG, IOpts);
    I.run([&](PointId P, const Interp &It) {
      for (LocId PL : Run.DU.Defs[P.value()]) {
        PackId Pack(PL.value());
        const OctVal *O = Run.Sparse->Out[P.value()].lookup(Pack);
        for (LocId Member : Run.Packs.vars(Pack)) {
          if (Prog.loc(Member).isSummary())
            continue;
          const CValue &CV = It.varValue(Member);
          if (CV.K != CValue::Kind::Int)
            continue;
          ++R.Checked;
          Interval Itv =
              O ? O->project(static_cast<uint32_t>(
                      Run.Packs.indexIn(Pack, Member)))
                : Interval();
          if (!Itv.contains(CV.I))
            R.fail("interpreter value " + std::to_string(CV.I) + " of " +
                   Prog.loc(Member).Name + " at {" + Prog.pointToString(P) +
                   "} outside pack projection " + Itv.str());
        }
      }
    });
  }
  return R;
}

namespace {

void compareOctStates(const OctState &A, const OctState &B, uint32_t Node,
                      CheckResult &R) {
  ++R.Checked;
  if (A.size() != B.size()) {
    R.fail("node " + std::to_string(Node) + " holds " +
           std::to_string(A.size()) + " packs against " +
           std::to_string(B.size()));
    return;
  }
  for (const auto &[Pack, AV] : A) {
    const OctVal *BV = B.lookup(Pack);
    std::string Where =
        "node " + std::to_string(Node) + " pack " + std::to_string(Pack.value());
    if (!BV || BV->numVars() != AV.numVars()) {
      R.fail(Where + " is missing or differs in arity");
      return;
    }
    for (uint32_t V = 0; V < AV.numVars(); ++V) {
      bool Same = AV.project(V) == BV->project(V);
      for (uint32_t W = V + 1; Same && W < AV.numVars(); ++W)
        Same = AV.projectDiff(V, W) == BV->projectDiff(V, W) &&
               AV.projectSum(V, W) == BV->projectSum(V, W);
      if (!Same) {
        R.fail(Where + " differs on variable " + std::to_string(V) + ": " +
               AV.str() + " against " + BV->str());
        return;
      }
    }
    if (AV.str() != BV->str()) {
      R.fail(Where + " renders differently: " + AV.str() + " against " +
             BV->str());
      return;
    }
  }
}

} // namespace

CheckResult checkOctAgree(const OctRun &A, const OctRun &B) {
  CheckResult R;
  if (!A.Sparse || !B.Sparse || A.Sparse->Out.size() != B.Sparse->Out.size()) {
    R.fail("runs differ in node count");
    return R;
  }
  for (uint32_t N = 0; N < A.Sparse->Out.size(); ++N) {
    compareOctStates(A.Sparse->In[N], B.Sparse->In[N], N, R);
    compareOctStates(A.Sparse->Out[N], B.Sparse->Out[N], N, R);
  }
  return R;
}

uint64_t countOctBoundedOutputs(const OctRun &Run) {
  uint64_t N = 0;
  for (size_t P = 0; P < Run.DU.Defs.size(); ++P)
    for (LocId PL : Run.DU.Defs[P]) {
      const OctVal *O = Run.Sparse->Out[P].lookup(PackId(PL.value()));
      if (!O)
        continue;
      for (uint32_t V = 0; V < O->numVars(); ++V)
        N += bounded(O->project(V));
    }
  return N;
}

CheckResult checkDigest(uint64_t Got, uint64_t Want, const std::string &What) {
  CheckResult R;
  R.Checked = 1;
  if (Got != Want)
    R.fail(What + ": digest " + std::to_string(Got) + " differs from " +
           std::to_string(Want));
  return R;
}

} // namespace perfbench
