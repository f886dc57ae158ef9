//===- SparseAnalysis.cpp - Sparse fixpoint engine -----------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
//
// Parallel execution model (docs/PARALLELISM.md): the dependency graph
// decomposes into connected components of the cross-procedure edge
// relation (functions tied by an interprocedural dependency — shared
// location footprints routed through call/entry/exit summaries — land in
// one component, as do whole callgraph SCCs).  No dependency edge crosses
// components, so each component is a closed fixpoint subsystem: in the
// sequential schedule, the pop subsequence restricted to a component is
// exactly what a per-component worklist would pop, and the per-node
// results — including widening decisions, which only consult per-(node,
// location) arrival counts — are therefore *bit-identical* under any
// assignment of components to shards.  Typical programs where main
// (transitively) touches every function collapse to one component; the
// engine then falls back to the sequential global worklist.
//
//===----------------------------------------------------------------------===//

#include "core/SparseAnalysis.h"

#include "core/PreAnalysis.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "support/Fault.h"
#include "support/Resource.h"
#include "support/ThreadPool.h"
#include "support/WorkList.h"

#include <algorithm>
#include <atomic>
#include <numeric>

using namespace spa;

namespace {

/// Read-only state view over a node's input buffer, usable with the
/// semantics templates.
class InputView {
public:
  explicit InputView(const AbsState &S) : S(S) {}
  const Value &get(LocId L) const { return S.get(L); }

private:
  const AbsState &S;
};

/// Mutable working state for a node's transfer: reads fall back to the
/// input buffer; writes land in an overlay.  The node's new output is the
/// overlay merged over the input, restricted to its def set.
class WorkingState {
public:
  explicit WorkingState(const AbsState &In) : In(In) {}

  const Value &get(LocId L) const {
    const Value *V = Overlay.lookup(L);
    return V ? *V : In.get(L);
  }

  void set(LocId L, Value V) { Overlay.set(L, std::move(V)); }

  bool weakSet(LocId L, const Value &V) {
    if (V.isBot())
      return false;
    Value Merged = get(L);
    if (!Merged.joinWith(V))
      return false;
    Overlay.set(L, std::move(Merged));
    return true;
  }

  /// Extracts the output partial state over \p Defs: overlay values where
  /// written, input passthrough otherwise (the identity on spurious
  /// definitions).  Consumes the overlay: written values are moved out,
  /// not copied — this runs once per node visit, so the copy churn of
  /// points-to vectors inside Value would otherwise dominate allocation.
  AbsState extract(const std::vector<LocId> &Defs) {
    AbsState Out;
    Out.reserve(Defs.size());
    // Defs is sorted, so each set() appends at the end in O(1).
    for (LocId L : Defs) {
      if (Value *OV = Overlay.lookup(L)) {
        if (!OV->isBot())
          Out.set(L, std::move(*OV));
      } else {
        const Value &V = In.get(L);
        if (!V.isBot())
          Out.set(L, V);
      }
    }
    return Out;
  }

private:
  const AbsState &In;
  FlatMap<LocId, Value> Overlay;
};

/// Shards of graph nodes with no dependency edges between shards.  Each
/// shard's node list is ascending.  Returns a single shard holding every
/// node when \p Jobs <= 1 or the graph is one component.
std::vector<std::vector<uint32_t>>
partitionNodes(const Program &Prog, const SparseGraph &Graph, unsigned Jobs) {
  size_t N = Graph.numNodes();
  auto AllNodes = [&] {
    std::vector<std::vector<uint32_t>> One(1);
    One[0].resize(N);
    std::iota(One[0].begin(), One[0].end(), 0);
    return One;
  };
  if (Jobs <= 1 || Prog.numFuncs() <= 1)
    return AllNodes();

  // Components of the function graph induced by dependency edges (the
  // same computation the ledger attributes partition rows by).
  DepComponents DC = computeDepComponents(Prog, Graph);
  size_t NumComps = DC.NumComps;
  SPA_OBS_GAUGE_SET("par.fix.partitions", NumComps);
  if (NumComps <= 1)
    return AllNodes();
  const std::vector<uint32_t> &CompOfNode = DC.CompOfNode;
  std::vector<uint32_t> CompSize(NumComps, 0);
  for (uint32_t Node = 0; Node < N; ++Node)
    ++CompSize[CompOfNode[Node]];

  // Greedy balance: biggest components first onto the least-loaded
  // shard.  Deterministic (ties by id / shard index), though any
  // assignment yields identical analysis results.
  size_t NumShards = std::min<size_t>(Jobs, NumComps);
  std::vector<uint32_t> Order(NumComps);
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return CompSize[A] > CompSize[B];
  });
  std::vector<size_t> Load(NumShards, 0);
  std::vector<uint32_t> ShardOfComp(NumComps);
  for (uint32_t C : Order) {
    size_t Best = 0;
    for (size_t S = 1; S < NumShards; ++S)
      if (Load[S] < Load[Best])
        Best = S;
    ShardOfComp[C] = static_cast<uint32_t>(Best);
    Load[Best] += CompSize[C];
  }

  std::vector<std::vector<uint32_t>> Shards(NumShards);
  for (size_t S = 0; S < NumShards; ++S)
    Shards[S].reserve(Load[S]);
  for (uint32_t Node = 0; Node < N; ++Node)
    Shards[ShardOfComp[CompOfNode[Node]]].push_back(Node);
  return Shards;
}

/// Ledger growth units of a value step Old -> New: clamped-positive set
/// cardinality deltas (points-to and callee sets) plus one unit per
/// interval component that moved.  A pure function of the two values, so
/// the per-node totals are deterministic across job counts.
uint64_t growthUnits(const Value &Old, const Value &New) {
  uint64_t G = 0;
  if (New.Pts.size() > Old.Pts.size())
    G += New.Pts.size() - Old.Pts.size();
  if (New.Funcs.size() > Old.Funcs.size())
    G += New.Funcs.size() - Old.Funcs.size();
  if (!(New.Itv == Old.Itv))
    ++G;
  if (!(New.Offset == Old.Offset))
    ++G;
  if (!(New.Size == Old.Size))
    ++G;
  return G;
}

} // namespace

SparseResult spa::runSparseAnalysis(const Program &Prog,
                                    const CallGraphInfo &CG,
                                    const SparseGraph &Graph,
                                    const SparseOptions &Opts) {
  SparseResult R;
  size_t N = Graph.numNodes();
  R.In.resize(N);
  R.Out.resize(N);

  // Cost ledger: one row per graph node, written only by the shard that
  // owns the node, so counts are race-free and jobs-independent.  The
  // conditional folds to `nullptr` under -DSPA_OBS=OFF, compiling every
  // recording site below out.
  obs::Ledger *Led = obs::LedgerEnabled ? Opts.Led : nullptr;
  if (Led)
    Led->resize(static_cast<uint32_t>(N));

  // Node priorities: the anchor point's supergraph RPO index (phi nodes
  // schedule with their join point).
  // Phi nodes logically execute just before their join point, so they get
  // a slightly smaller priority; otherwise the phi -> join-point edge
  // would look retreating and trigger spurious widening.
  std::vector<uint32_t> PointRpo = computeSuperRpo(Prog, CG);
  std::vector<uint32_t> Prio(N);
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t R2 = 2 * PointRpo[Graph.anchor(I).value()] + 1;
    Prio[I] = Graph.isPhi(I) ? R2 - 1 : R2;
  }

  // Widening nodes: loop heads / recursive entries and their phis.
  std::vector<bool> WidenPoint = computeWideningPoints(Prog, CG);
  std::vector<bool> WidenNode(N);
  for (uint32_t I = 0; I < N; ++I)
    WidenNode[I] = WidenPoint[Graph.anchor(I).value()];

  // Changing-arrival counts per (node, location) for delayed widening.
  std::vector<FlatMap<LocId, uint32_t>> ArrivalCount(N);

  // One worklist loop over a closed node set (no dependency edges leave
  // it).  Shards touch disjoint slices of R.In/R.Out/ArrivalCount, so
  // concurrent shard loops share those arrays without synchronization.
  std::atomic<bool> TimedOut{false};
  std::atomic<bool> Degraded{false};
  auto RunShard = [&](size_t ShardIdx, const std::vector<uint32_t> &Nodes,
                      uint64_t &VisitsOut,
                      std::vector<uint32_t> &PendingOut) {
    // Flight-recorder scope: the watchdog monitors this lane's
    // heartbeat only while it is inside the loop below.
    SPA_OBS_FIX_SCOPE();
    obs::journalSetPartition(ShardIdx);
    SPA_OBS_JOURNAL(PartitionBegin, ShardIdx, Nodes.size());
    WorkList WL(Prio);
    // Every node runs at least once: constants and ⊥-input effects must
    // materialize even with no incoming dependencies (the fixpoint
    // applies F̂_s at every point).
    for (uint32_t I : Nodes)
      WL.push(I);

    uint64_t Visits = 0;
    uint64_t LastSampleUs = 0;
    uint64_t Widenings = 0;
    Timer Clock;
    while (!WL.empty()) {
      SPA_OBS_HEARTBEAT();
      if ((Visits & 1023) == 0) {
        // Amortized stall-context refresh plus the in-fixpoint fault
        // checkpoint (SPA_FAULT=stall@fixloop hangs exactly here,
        // between heartbeats, which is what the watchdog catches).
        obs::journalSetWorklistDepth(WL.size());
        maybeInjectFault("fixloop");
      }
      if (Opts.TimeLimitSec > 0 && (Visits & 1023) == 0 &&
          Clock.seconds() > Opts.TimeLimitSec) {
        TimedOut.store(true, std::memory_order_relaxed);
        break;
      }
      // One budget step per visit, checked before the pop: the shared
      // token is sticky, so once any shard trips every shard stops at
      // its next visit and records its pending frontier for the sound
      // degradation below.
      if (Opts.Bud && !Opts.Bud->charge()) {
        Degraded.store(true, std::memory_order_relaxed);
        WL.forEachPending([&](uint32_t P) { PendingOut.push_back(P); });
        break;
      }
      uint32_t Node = WL.pop();
      ++Visits;
      if (Led) {
        ++Led->row(Node).Visits;
        // Sampled wall time: read the clock every 32 visits and charge
        // the inter-sample delta to the node at the sample boundary.
        // Cheap, and explicitly the one non-deterministic ledger field.
        if ((Visits & 31) == 0) {
          uint64_t NowUs = static_cast<uint64_t>(Clock.seconds() * 1e6);
          Led->row(Node).TimeMicros += NowUs - LastSampleUs;
          LastSampleUs = NowUs;
        }
      }

      // Transfer.
      AbsState NewOut;
      if (Graph.isPhi(Node)) {
        // A phi is the identity on its location: output = joined input.
        const PhiNode &Phi = Graph.phi(Node);
        const Value &V = R.In[Node].get(Phi.L);
        if (!V.isBot())
          NewOut.set(Phi.L, V);
      } else {
        WorkingState WS(R.In[Node]);
        applyCommand(Prog, &CG, PointId(Node), WS, Opts.Sem);
        NewOut = WS.extract(Graph.NodeDefs[Node]);
      }

      // Publish changed locations along dependency edges.
      AbsState &Out = R.Out[Node];
      std::vector<LocId> ChangedLocs;
      for (const auto &[L, V] : NewOut)
        if (Out.weakSet(L, V))
          ChangedLocs.push_back(L);
      if (ChangedLocs.empty())
        continue;

      Graph.Edges->forEachOut(Node, [&](LocId L, uint32_t Dst) {
        if (!std::binary_search(ChangedLocs.begin(), ChangedLocs.end(), L))
          return;
        const Value &V = Out.get(L);
        // Widening must cut every dependency cycle: it applies (after the
        // configured delay) at loop-head/recursion nodes and on retreating
        // edges (source scheduled at or after the target).
        bool CutsCycle = WidenNode[Dst] || Prio[Node] >= Prio[Dst];
        AbsState &InDst = R.In[Dst];
        const Value &Old = InDst.get(L);
        bool DoWiden = false;
        if (CutsCycle) {
          uint32_t &Count = ArrivalCount[Dst].getOrCreate(L);
          DoWiden = Count >= Opts.WideningDelay;
        }
        if (!DoWiden && V.leq(Old)) {
          // No-change fast path: with interned sets this is usually a
          // handful of id compares, and it skips the join allocation and
          // the full New == Old product comparison below.  Join-only
          // arrivals cannot widen, so skipping them is exact.
          SPA_OBS_COUNT("fixpoint.joins", 1);
          if (Led)
            ++Led->row(Dst).NoChangeSkips;
          return;
        }
        if (DoWiden) {
          SPA_OBS_COUNT("fixpoint.widenings", 1);
          // Widening bursts are the classic non-termination precursor;
          // drop a breadcrumb every 64 so the journal tail shows where
          // extrapolation concentrated.
          if (((++Widenings) & 63) == 0)
            SPA_OBS_JOURNAL(WidenBurst, Dst, Widenings);
        } else {
          SPA_OBS_COUNT("fixpoint.joins", 1);
        }
        if (Led) {
          obs::PointCost &PC = Led->row(Dst);
          if (DoWiden)
            ++PC.Widenings;
          else
            ++PC.Joins;
        }
        Value New = DoWiden ? Old.widen(Old.join(V)) : Old.join(V);
        if (New == Old)
          return;
        if (CutsCycle)
          ++ArrivalCount[Dst].getOrCreate(L);
        SPA_OBS_COUNT("fixpoint.deliveries", 1);
        if (Led) {
          obs::PointCost &PC = Led->row(Dst);
          ++PC.Deliveries;
          PC.Growth += growthUnits(Old, New);
        }
        InDst.set(L, std::move(New));
        WL.push(Dst);
      });
    }
    VisitsOut = Visits;
    SPA_OBS_JOURNAL(PartitionEnd, ShardIdx, Visits);
  };

  std::vector<std::vector<uint32_t>> Shards =
      partitionNodes(Prog, Graph, Opts.Jobs);
  SPA_OBS_GAUGE_SET("par.fix.shards", Shards.size());

  Timer Clock;
  std::vector<uint64_t> ShardVisits(Shards.size(), 0);
  std::vector<std::vector<uint32_t>> ShardPending(Shards.size());
  if (Shards.size() == 1) {
    RunShard(0, Shards[0], ShardVisits[0], ShardPending[0]);
  } else {
    ThreadPool::global().parallelFor(Shards.size(), Opts.Jobs, [&](size_t S) {
      RunShard(S, Shards[S], ShardVisits[S], ShardPending[S]);
    });
  }
  for (uint64_t V : ShardVisits)
    R.Visits += V;
  R.TimedOut = TimedOut.load(std::memory_order_relaxed);
  R.Degraded = Degraded.load(std::memory_order_relaxed);

  if (R.Degraded) {
    // Sound degradation (docs/ROBUSTNESS.md): the affected nodes —
    // pending entries plus everything forward-reachable over dependency
    // edges — are where values might still have risen; join their
    // buffers with T̂pre restricted to their use/def sets.  T̂pre
    // over-approximates every reachable memory (Section 3.2), so any
    // state ⊒ T̂pre on those components is sound; non-affected nodes
    // already consumed their producers' final values.
    std::vector<bool> Affected(N, false);
    std::vector<uint32_t> Stack;
    for (const std::vector<uint32_t> &Pending : ShardPending)
      for (uint32_t Node : Pending) {
        if (!Affected[Node]) {
          Affected[Node] = true;
          Stack.push_back(Node);
        }
      }
    while (!Stack.empty()) {
      uint32_t Node = Stack.back();
      Stack.pop_back();
      Graph.Edges->forEachOut(Node, [&](LocId, uint32_t Dst) {
        if (!Affected[Dst]) {
          Affected[Dst] = true;
          Stack.push_back(Dst);
        }
      });
    }

    AbsState TopState;
    const AbsState *G = Opts.DegradeTo;
    if (!G) {
      TopState = topAbsState(Prog);
      G = &TopState;
    }
    auto JoinRestricted = [&](AbsState &Dst, const std::vector<LocId> &Ls) {
      for (LocId L : Ls) {
        const Value &V = G->get(L);
        if (!V.isBot())
          Dst.weakSet(L, V);
      }
    };
    uint64_t NumAffected = 0;
    for (uint32_t Node = 0; Node < N; ++Node) {
      if (!Affected[Node])
        continue;
      ++NumAffected;
      R.DegradedNodeIds.push_back(Node); // Ascending: N is scanned in order.
      if (Graph.isPhi(Node)) {
        std::vector<LocId> PhiLoc{Graph.phi(Node).L};
        JoinRestricted(R.In[Node], PhiLoc);
        JoinRestricted(R.Out[Node], PhiLoc);
      } else {
        JoinRestricted(R.In[Node], Graph.NodeUses[Node]);
        JoinRestricted(R.Out[Node], Graph.NodeDefs[Node]);
      }
    }
    SPA_OBS_GAUGE_SET("fixpoint.degraded_points", NumAffected);
    SPA_OBS_JOURNAL(DegradeTier, /*Engine=*/2, NumAffected);
  }

  for (const AbsState &S : R.In)
    R.StateEntries += S.size();
  for (const AbsState &S : R.Out)
    R.StateEntries += S.size();
  R.Seconds = Clock.seconds();
  SPA_OBS_COUNT("fixpoint.visits", R.Visits);
  SPA_OBS_GAUGE_SET("fixpoint.state_entries", R.StateEntries);
  return R;
}
