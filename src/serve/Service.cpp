//===- Service.cpp - Resident analysis service ----------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"

#include "core/Checker.h"
#include "core/DepSnapshot.h"
#include "ir/Builder.h"
#include "ir/Snapshot.h"
#include "obs/Journal.h"
#include "obs/MetricsSink.h"
#include "obs/Trace.h"
#include "support/Resource.h"

#include <cstdio>

using namespace spa;
using namespace spa::serve;

uint64_t spa::serve::fnv1a64(const void *Data, size_t Len, uint64_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = Seed ? Seed : 14695981039346656037ull;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

namespace {

/// Incremental FNV-1a accumulator for the structured hashes below.
struct Fnv {
  uint64_t H = 14695981039346656037ull;

  void bytes(const void *Data, size_t Len) { H = fnv1a64(Data, Len, H); }
  void u8(uint8_t V) { bytes(&V, 1); }
  void u32(uint32_t V) { bytes(&V, 4); }
  void u64(uint64_t V) { bytes(&V, 8); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
};

void hashValue(Fnv &F, const Value &V) {
  auto Itv = [&](const Interval &I) {
    // Canonical bottom: isBot() admits any Lo > Hi representation but
    // operator== treats them all equal, so the digest must too.
    if (I.isBot()) {
      F.i64(bound::PosInf);
      F.i64(bound::NegInf);
    } else {
      F.i64(I.lo());
      F.i64(I.hi());
    }
  };
  Itv(V.Itv);
  Itv(V.Offset);
  Itv(V.Size);
  F.u32(static_cast<uint32_t>(V.Pts.size()));
  for (LocId L : V.Pts)
    F.u32(L.value());
  F.u32(static_cast<uint32_t>(V.Funcs.size()));
  for (FuncId G : V.Funcs)
    F.u32(G.value());
}

void hashState(Fnv &F, const AbsState &S) {
  F.u32(static_cast<uint32_t>(S.size()));
  for (const auto &[L, V] : S) { // FlatMap iterates sorted by LocId.
    F.u32(L.value());
    hashValue(F, V);
  }
}

/// Resident size of a cache entry: the struct plus the response text it
/// replays (LRU accounting only; no correctness rides on it).
uint64_t estimateEntryBytes(const CacheEntry &E) {
  return sizeof(CacheEntry) + E.Resp.AlarmsText.size() +
         E.Resp.InvariantsText.size();
}

/// One line per non-safe check, indented exactly like the cold
/// `spa-analyze --check` listing so clients can print it verbatim.
std::string renderAlarms(const Program &Prog, const CheckerSummary &Sum) {
  std::string Out;
  for (const AccessCheck &C : Sum.Checks)
    if (C.Result != AccessCheck::Verdict::Safe) {
      Out += "  ";
      Out += C.str(Prog);
      Out += '\n';
    }
  return Out;
}

/// main's exit invariants, byte-identical to cold `spa-analyze` output
/// so the client can print the response verbatim.
std::string renderInvariants(const Program &Prog, const SparseResult &R) {
  std::string Out = "invariants at main's exit:\n";
  FuncId Main = Prog.mainFunc();
  if (!Main.isValid())
    return Out;
  PointId Exit = Prog.function(Main).Exit;
  char Line[512];
  for (const auto &[L, V] : R.In[Exit.value()]) {
    std::snprintf(Line, sizeof(Line), "  %-16s = %s\n",
                  Prog.loc(L).Name.c_str(), V.str().c_str());
    Out += Line;
  }
  return Out;
}

} // namespace

uint64_t spa::serve::hashSparseStates(const SparseResult &R) {
  Fnv F;
  F.u32(static_cast<uint32_t>(R.In.size()));
  for (const AbsState &S : R.In)
    hashState(F, S);
  for (const AbsState &S : R.Out)
    hashState(F, S);
  F.u8(R.TimedOut ? 1 : 0);
  F.u8(R.Degraded ? 1 : 0);
  F.u32(static_cast<uint32_t>(R.DegradedNodeIds.size()));
  for (uint32_t Node : R.DegradedNodeIds)
    F.u32(Node);
  return F.H;
}

Service::Service(ServiceOptions O) : Opts(std::move(O)) {
  // The server analyzes exactly the way a default `spa-analyze` run
  // does: sparse engine, bypass on.  The checker stays sound on the
  // contracted buffers because it reads pointer operands only at points
  // that genuinely *use* them, which bypassing preserves
  // (tests/server_test.cpp pins this equivalence); keeping the options
  // fixed also makes cache entries independent of the per-request check
  // flag.
  Opts.Analyzer.Engine = EngineKind::Sparse;
  StartMicros = obs::obsNowMicros();
  LastTelemetryMicros = StartMicros;
}

Service::~Service() = default;

void Service::touch(CacheEntry &E) { E.LastUse = ++Tick; }

void Service::exportCacheGauges() {
  SPA_OBS_GAUGE_SET("serve.cache.entries", Entries.size());
  SPA_OBS_GAUGE_SET("serve.cache.bytes", TotalBytes);
}

void Service::evictToBudget() {
  while (!Entries.empty() && (TotalBytes > Opts.MaxCacheBytes ||
                              Entries.size() > Opts.MaxCacheEntries)) {
    auto Victim = Entries.begin();
    for (auto It = Entries.begin(); It != Entries.end(); ++It)
      if (It->second->LastUse < Victim->second->LastUse)
        Victim = It;
    uint64_t Digest = Victim->first;
    uint64_t Bytes = Victim->second->Bytes;
    for (auto It = SrcMemo.begin(); It != SrcMemo.end();)
      It = It->second == Digest ? SrcMemo.erase(It) : std::next(It);
    TotalBytes -= Bytes;
    Entries.erase(Victim);
    SPA_OBS_COUNT("serve.cache.evictions", 1);
    SPA_OBS_JOURNAL(ServeEvict, Digest, Bytes);
  }
}

void Service::insertEntry(std::unique_ptr<CacheEntry> E, uint64_t SrcDigest) {
  uint64_t Digest = E->ProgDigest;
  E->Bytes = estimateEntryBytes(*E);
  TotalBytes += E->Bytes;
  touch(*E);
  SrcMemo[SrcDigest] = Digest;
  Entries[Digest] = std::move(E);
  evictToBudget();
  exportCacheGauges();
}

double Service::uptimeSeconds() const {
  return (obs::obsNowMicros() - StartMicros) / 1e6;
}

std::string Service::statsJson() const {
  std::string Out = "{\n  \"schema\": \"spa-serve-stats-v1\",\n";
  Out += "  \"uptime_seconds\": " +
         obs::MetricsSink::formatValue(uptimeSeconds()) + ",\n";
  Out += "  \"epoch_ns\": " + std::to_string(obs::obsEpochNanos()) + ",\n";
  Out += "  \"cache\": {\"entries\": " + std::to_string(Entries.size()) +
         ", \"bytes\": " + std::to_string(TotalBytes) + "},\n";
  Out += "  \"metrics\": " +
         obs::MetricsSink::toJson(obs::Registry::global()) + "\n}\n";
  return Out;
}

std::string Service::statsProm() const {
  return obs::Registry::global().renderProm();
}

std::string Service::telemetryJson() {
  SPA_OBS_COUNT("telemetry.frames", 1);
  double Now = obs::obsNowMicros();
  double IntervalSec = (Now - LastTelemetryMicros) / 1e6;
  LastTelemetryMicros = Now;

  // serve.* counter deltas against the previous frame's baseline.
  std::vector<std::pair<std::string, double>> Deltas;
  obs::Registry::global().forEachInstrument(
      [&](const std::string &Name, const obs::Counter &C) {
        if (Name.rfind("serve.", 0) != 0)
          return;
        double V = static_cast<double>(C.value());
        double D = V - LastCounters[Name];
        LastCounters[Name] = V;
        Deltas.emplace_back(Name, D);
      },
      [](const std::string &, const obs::Gauge &) {});

  double Requests = obs::Registry::global().value("serve.requests");
  double Hits = obs::Registry::global().value("serve.cache.hits");
  double ReqDelta = 0;
  for (const auto &[Name, D] : Deltas)
    if (Name == "serve.requests")
      ReqDelta = D;

  auto Num = [](double V) { return obs::MetricsSink::formatValue(V); };
  std::string Out = "{\n  \"schema\": \"spa-serve-telemetry-v1\",\n";
  Out += "  \"seq\": " + std::to_string(++TelemetrySeq) + ",\n";
  Out += "  \"uptime_seconds\": " + Num(uptimeSeconds()) + ",\n";
  Out += "  \"interval_seconds\": " + Num(IntervalSec) + ",\n";
  Out += "  \"requests_total\": " + Num(Requests) + ",\n";
  Out += "  \"requests_delta\": " + Num(ReqDelta) + ",\n";
  Out += "  \"request_rate\": " +
         Num(IntervalSec > 0 ? ReqDelta / IntervalSec : 0) + ",\n";
  Out += "  \"hit_ratio\": " + Num(Requests > 0 ? Hits / Requests : 0) + ",\n";
  Out += "  \"cache_entries\": " + std::to_string(Entries.size()) + ",\n";
  Out += "  \"cache_bytes\": " + std::to_string(TotalBytes) + ",\n";
  Out += "  \"partitions_resolved\": " +
         Num(obs::Registry::global().value("serve.partitions.resolved")) +
         ",\n";
  Out += "  \"counters\": {";
  bool First = true;
  for (const auto &[Name, D] : Deltas) {
    Out += First ? "" : ", ";
    First = false;
    Out += "\"" + Name + "\": " + Num(D);
  }
  Out += "}\n}\n";
  return Out;
}

ServeErrc Service::analyze(const AnalyzeRequest &Req, AnalyzeResponse &Resp,
                           std::string &Error) {
  Timer Wall;
  // Per-request observability scoping: last-value gauges restart, while
  // monotone serve.* counters keep accumulating for --serve-stats.
  obs::Registry::global().resetGauges();
  SPA_OBS_COUNT("serve.requests", 1);
  uint64_t ReqId = ++RequestSeq;
  // Request-scoped span tree: everything the pipeline records below
  // (build, fixpoint, checker spans) nests under this root; the daemon
  // retains the tree in the tracer's bounded ring (tools/spa-serve.cpp
  // sets the capacity).
  SPA_OBS_TRACE("serve.request");

  if (Opts.FaultArmed) {
    // One-shot injected fault (SPA_FAULT): fail THIS request with a
    // typed error, then disarm — the lifecycle test asserts the daemon
    // survives and the next request succeeds.  The abort event keeps the
    // journal honest about the per-request gauges the recovery dropped:
    // resetGauges() above started the request's gauge scope, but no
    // ServeRequest record will ever follow for this id.
    Opts.FaultArmed = false;
    SPA_OBS_COUNT("serve.faults.injected", 1);
    SPA_OBS_JOURNAL(ServeAbort, ReqId, 0);
    Error = "injected fault (SPA_FAULT armed at daemon start)";
    return ServeErrc::Injected;
  }

  const bool Incremental =
      Opts.Incremental && !(Req.Flags & ReqFlagNoIncremental);

  // The whole program is the one partition the response reports: reused
  // on a hit, solved on a miss.
  auto Finish = [&](bool Hit) {
    Resp.CacheHit = Hit ? 1 : 0;
    Resp.PartitionsTotal = 1;
    Resp.PartitionsReused = Hit ? 1 : 0;
    Resp.PartitionsSolved = Hit ? 0 : 1;
    SPA_OBS_GAUGE_SET("serve.partitions.total", Resp.PartitionsTotal);
    SPA_OBS_GAUGE_SET("serve.partitions.reused", Resp.PartitionsReused);
    SPA_OBS_GAUGE_SET("serve.partitions.resolved", Resp.PartitionsSolved);
    Resp.WallSeconds = Wall.seconds();
    SPA_OBS_GAUGE_SET("serve.request.seconds", Resp.WallSeconds);
    Resp.MetricsJson = obs::MetricsSink::toJson(obs::Registry::global());
    return ServeErrc::None;
  };
  auto FinishHit = [&](CacheEntry &E) {
    touch(E);
    Resp = E.Resp;
    SPA_OBS_COUNT("serve.cache.hits", 1);
    SPA_OBS_JOURNAL(ServeCacheHit, E.ProgDigest, 1);
    exportCacheGauges();
    return Finish(true);
  };

  // Fast path: byte-identical request (the repeated-CI-request case) —
  // skip even the parse.  Keyed on the raw bytes plus the snapshot flag,
  // which changes how they are interpreted.
  uint64_t SrcDigest = fnv1a64(Req.Program.data(), Req.Program.size(),
                               (Req.Flags & ReqFlagSnapshot) ? 0x9e3779b9ull
                                                             : 0);
  if (Incremental) {
    auto MIt = SrcMemo.find(SrcDigest);
    if (MIt != SrcMemo.end()) {
      auto EIt = Entries.find(MIt->second);
      if (EIt != Entries.end())
        return FinishHit(*EIt->second);
    }
  }

  // Materialize the program.
  std::unique_ptr<Program> Prog;
  SparseGraph DecodedGraph;
  bool HaveDecodedGraph = false;
  if (Req.Flags & ReqFlagSnapshot) {
    SnapshotLoadResult L = loadSnapshot(
        reinterpret_cast<const uint8_t *>(Req.Program.data()),
        Req.Program.size());
    if (!L.ok()) {
      Error = L.Error.str();
      return ServeErrc::SnapshotError;
    }
    Prog = std::move(L.Prog);
    if (L.HasDepGraph) {
      DepSnapshotResult Dec = decodeDepGraph(*Prog, L.DepGraph);
      if (depSnapshotUsable(Dec, Opts.Analyzer.Dep)) {
        DecodedGraph = std::move(Dec.Graph);
        HaveDecodedGraph = true;
        SPA_OBS_COUNT("serve.depgraph.warm_starts", 1);
      }
    }
  } else {
    BuildResult BR = buildProgramFromSource(Req.Program);
    if (!BR.ok()) {
      Error = BR.Error;
      return ServeErrc::BuildError;
    }
    Prog = std::move(BR.Prog);
  }

  // Canonical content digest: the deterministic snapshot encoding, so
  // source text and snapshot requests for the same program share one
  // cache entry.
  std::vector<uint8_t> Canon = saveSnapshot(*Prog);
  uint64_t ProgDigest = fnv1a64(Canon.data(), Canon.size());
  Canon.clear();
  Canon.shrink_to_fit();
  Resp = AnalyzeResponse{};
  Resp.ProgramDigest = ProgDigest;

  if (Incremental) {
    auto EIt = Entries.find(ProgDigest);
    if (EIt != Entries.end()) {
      SrcMemo[SrcDigest] = ProgDigest;
      return FinishHit(*EIt->second);
    }
  }
  SPA_OBS_COUNT("serve.cache.misses", 1);

  AnalyzerOptions AOpts = Opts.Analyzer;
  if (Req.Jobs)
    AOpts.Jobs = Req.Jobs;
  if (HaveDecodedGraph)
    AOpts.PrebuiltGraph = &DecodedGraph;

  AnalysisRun Run = analyzeProgram(*Prog, AOpts);
  if (!Run.Sparse) {
    Error = "analysis produced no sparse result";
    return ServeErrc::ServerError;
  }
  SparseResult &R = *Run.Sparse;
  Resp.Degraded = Run.degraded() ? 1 : 0;
  Resp.TimedOut = Run.timedOut() ? 1 : 0;
  Resp.ResultDigest = hashSparseStates(R);

  CheckerSummary Sum = checkBufferOverruns(*Prog, Run);
  Resp.Checks = static_cast<uint32_t>(Sum.Checks.size());
  Resp.Alarms = Sum.numAlarms();
  Resp.AlarmsText = renderAlarms(*Prog, Sum);
  Resp.InvariantsText = renderInvariants(*Prog, R);

  if (Run.Ledger) {
    obs::PointCost Totals = Run.Ledger->totals();
    Resp.LedgerVisits = Totals.Visits;
    Resp.LedgerGrowth = Totals.Growth;
  }

  SPA_OBS_JOURNAL(ServeRequest, ProgDigest, 1);

  // Cache the response.  Degraded/timed-out runs are NOT cached: their
  // states depend on where the budget tripped, which is not a function
  // of the program content the digest covers.
  if (Incremental && !Resp.Degraded && !Resp.TimedOut) {
    auto E = std::make_unique<CacheEntry>();
    E->ProgDigest = ProgDigest;
    E->Resp = Resp; // Template; per-request fields are set by Finish.
    insertEntry(std::move(E), SrcDigest);
  } else {
    exportCacheGauges();
  }
  return Finish(false);
}
