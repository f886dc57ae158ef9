//===- Child.h - One analysis in a fresh process -------------------------------===//
//
// Every program a workload analyzes is analyzed in a child process of its
// own (the harness binary re-executed in child mode), so each analysis
// starts from a cold allocator and reports its own peak RSS.  The child
// prints a Record (see Common.h) on stdout.
//
//   spa-perfbench child <kind> <source-file> [--verify] [--dbm]
//                       [--seeds=a,b,c] [--spans --parent=ID]
//   spa-perfbench child digest <source-file>...
//
// Kinds:
//   interval  sparse interval analysis, defaults (bypass on)
//   check     sparse interval analysis with bypass off + overrun checker
//   oct       sparse octagon analysis, default backend
//   digest    hashSparseStates of a cold run with spa-serve's options,
//             one "digest <index> <value>" line per file
//
// Without --spans the child times source text -> result with the
// facades (analyzeProgram / runOctAnalysis), as a user of the library
// would call them.  With --spans it calls each layer itself, bracketing
// every call with a span, and prints the spans after its Record; that
// traced path is what the per-layer metrics come from.  --verify runs
// the oracle checks (Oracle.h) after the timed part.
//
//===----------------------------------------------------------------------===//

#ifndef SPA_PERFBENCH_CHILD_H
#define SPA_PERFBENCH_CHILD_H

#include <string>
#include <vector>

namespace perfbench {

/// Entry point of child mode; \p Args are the words after "child".
int childMain(const std::vector<std::string> &Args);

} // namespace perfbench

#endif // SPA_PERFBENCH_CHILD_H
