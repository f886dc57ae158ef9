//===- Oracle.h - Correctness checks computed apart from the analyzer ----------===//
//
// Every benchmark run checks what the analyzer produced against facts the
// analyzer did not compute itself:
//
//   - the concrete interpreter (src/interp): every value a location takes
//     at a point that defines it must lie in the analysis' output there;
//     every out-of-bounds dereference it hits must be an alarm;
//   - a walk over the IR's loads and stores: proved-safe plus alarms must
//     equal the dereferences the program contains;
//   - a cold in-process run: a served result digest must equal it;
//   - the dense DBM backend: the default octagon backend must agree with
//     it pack by pack.
//
// Each check returns a CheckResult; the self-test (SelfTest.cpp) feeds
// every check a deliberately wrong result and requires it to fail.
//
//===----------------------------------------------------------------------===//

#ifndef SPA_PERFBENCH_ORACLE_H
#define SPA_PERFBENCH_ORACLE_H

#include "core/Checker.h"
#include "oct/OctAnalysis.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct CheckResult {
  uint64_t Checked = 0;  ///< Facts compared.
  uint64_t Failures = 0; ///< Facts that did not hold.
  std::string First;     ///< Description of the first failure.

  bool ok() const { return Failures == 0; }
  void fail(const std::string &Msg) {
    if (Failures++ == 0)
      First = Msg;
  }
  void merge(const CheckResult &O) {
    Checked += O.Checked;
    if (!O.ok() && ok())
      First = O.First;
    Failures += O.Failures;
  }
};

using DefSets = std::vector<std::vector<spa::LocId>>;

/// Interpreter containment for interval results.  \p Defs must match how
/// \p Out was produced: DefUseInfo::Defs for bypass-on runs (a contracted
/// buffer only covers semantic defs), SparseGraph::NodeDefs for
/// bypass-off runs.  Out-of-bounds points the interpreter hit are
/// appended to \p Overruns when given.
CheckResult checkIntervalOracle(const spa::Program &Prog,
                                const spa::CallGraphInfo &CG,
                                const DefSets &Defs,
                                const std::vector<spa::AbsState> &Out,
                                const std::vector<uint64_t> &InputSeeds,
                                std::vector<spa::PointId> *Overruns = nullptr);

/// Every point where the interpreter overran a buffer carries a non-safe
/// verdict.
CheckResult checkOverrunsAlarmed(const std::vector<spa::PointId> &Overruns,
                                 const spa::CheckerSummary &Sum);

/// proved_safe + alarms == the dereferences counted by walking the IR's
/// load and store commands.
CheckResult checkDerefCount(const spa::Program &Prog,
                            const spa::CheckerSummary &Sum);

/// (point, defined location) outputs whose interval is finite on both
/// sides: the precision signal.
uint64_t countBoundedOutputs(const DefSets &Defs,
                             const std::vector<spa::AbsState> &Out);

/// Interpreter containment on the octagon's pack projections (sparse
/// engine, bypass on: pack-space DefUseInfo::Defs).
CheckResult checkOctOracle(const spa::Program &Prog, const spa::OctRun &Run,
                           const std::vector<uint64_t> &InputSeeds);

/// Same per-node packs and the same pack values (all unary, difference
/// and sum projections, and the rendered form) in two sparse octagon runs
/// of one program, e.g. the default backend against the dense DBM.
CheckResult checkOctAgree(const spa::OctRun &A, const spa::OctRun &B);

/// (point, defined pack, member) projections finite on both sides.
uint64_t countOctBoundedOutputs(const spa::OctRun &Run);

CheckResult checkDigest(uint64_t Got, uint64_t Want, const std::string &What);

} // namespace perfbench

#endif // SPA_PERFBENCH_ORACLE_H
