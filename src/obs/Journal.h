//===- Journal.h - Per-thread flight-recorder journal ----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flight recorder: a per-thread, fixed-size, lock-free ring buffer
/// of structured POD events (phase transitions, partition begin/end,
/// budget charges and trips, degradation-tier changes, widening bursts,
/// fault arms, batch item boundaries).  Unlike the metrics registry,
/// which aggregates, the journal keeps *recency*: after a crash or stall
/// the last few hundred events per thread reconstruct what the analyzer
/// was doing when it died (docs/OBSERVABILITY.md, "why did this run
/// die").
///
/// Concurrency contract: each thread writes only its own slot.  A record
/// is published by a release store of the slot head, so a reader that
/// acquire-loads the head sees fully written records at indices below
/// it.  Readers in the crashing thread's own signal handler are exact;
/// readers racing a *live* writer thread may observe the single record
/// at the head being overwritten (bounded, documented tearing — the
/// postmortem consumer treats the newest record of a still-running
/// thread as advisory).  Nothing here locks or allocates after slot
/// acquisition, so the reader side is async-signal-safe.
///
/// Heartbeats ride in the same slot: every fixpoint loop bumps a
/// monotonic per-slot counter each visit (one relaxed increment), and
/// the watchdog (obs/Postmortem.h) samples them to distinguish a stuck
/// fixpoint from a slow one.
///
/// -DSPA_OBS=OFF compiles all of this out: the macros become no-ops and
/// the inline stubs below keep call sites building with zero residue.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_OBS_JOURNAL_H
#define SPA_OBS_JOURNAL_H

#include "obs/Metrics.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace spa {
namespace obs {

/// Journal event taxonomy (docs/OBSERVABILITY.md).  Values are stable
/// across processes of the same build, so a child's numeric event kinds
/// shipped over the batch pipe decode in the parent.
enum class JournalEventKind : uint16_t {
  None = 0,
  PhaseBegin,      ///< A = phase id (journalPhaseId).
  PhaseEnd,        ///< A = phase id.
  PartitionBegin,  ///< A = partition id, B = nodes in partition.
  PartitionEnd,    ///< A = partition id, B = visits performed.
  BudgetCharge,    ///< A = total steps used (amortized milestone).
  BudgetTrip,      ///< A = BudgetReason, B = steps at trip.
  DegradeTier,     ///< A = engine id, B = nodes degraded.
  WidenBurst,      ///< A = node id of last widening, B = burst count.
  FaultArm,        ///< A = FaultPlan::Kind, B = 0.
  BatchItemBegin,  ///< A = item index.
  BatchItemEnd,    ///< A = item index, B = BatchOutcome.
  HeartbeatStall,  ///< Written by the watchdog: A = slot, B = heartbeat.
  OomTrip,         ///< Allocation failure under a hard memory cap.
  OctCloseBurst,   ///< A = node id, B = closure ticks (4096-crossing visit).
  SnapshotSave,    ///< A = bytes written, B = section count.
  SnapshotLoad,    ///< A = bytes consumed, B = SnapErrc (0 = ok).
  ShardDispatch,   ///< A = item index, B = shard index.
  ShardWorkerExit, ///< A = shard index, B = 1 if unexpected death.
  ServeRequest,    ///< A = program digest (low 64), B = 1 (program solved).
  ServeCacheHit,   ///< A = program digest, B = 1 (served from cache).
  ServeEvict,      ///< A = evicted program digest, B = bytes released.
  ServeAbort,      ///< A = request id of a request killed mid-flight.
};

/// Human name of \p K ("phase.begin", "budget.trip", ...).
const char *journalEventName(JournalEventKind K);

/// Phase-name <-> small-integer mapping for PhaseBegin/PhaseEnd payloads
/// (the journal stores no pointers; a name outlives the process only as
/// an id).  Unknown names map to 0 ("?").
uint16_t journalPhaseId(const char *Phase);
const char *journalPhaseName(uint16_t Id);

/// One journal record: 32 bytes of PODs, written in place then published
/// by the slot-head release store.
struct JournalRecord {
  uint64_t Seq = 0;        ///< Global publication order (cross-thread).
  uint32_t TimeMicros = 0; ///< Since journal epoch (wraps after ~71 min).
  uint16_t Kind = 0;       ///< JournalEventKind.
  uint16_t Pad = 0;
  uint64_t A = 0, B = 0;   ///< Event payload (see the kind taxonomy).
};

#if SPA_OBS_ENABLED

/// Ring capacity per thread slot (power of two).  256 events is several
/// partitions' worth of tail at the amortized recording rates — enough
/// to reconstruct the last phase, small enough that a full dump of every
/// slot stays a few tens of KiB.
constexpr uint32_t JournalRingCap = 256;

/// Maximum concurrently journaled threads.  Slots free on thread exit
/// and are reused; a thread beyond the cap records nothing (still safe).
constexpr uint32_t JournalMaxSlots = 64;

/// One thread's journal slot.  The layout is read directly by the
/// async-signal-safe postmortem writer, hence everything is an atomic or
/// plain POD and the struct lives in a static table (no heap).
struct JournalSlot {
  /// Number of records ever written; Ring[(Head-1) & (Cap-1)] is the
  /// newest.  Release-stored after the record body.
  std::atomic<uint64_t> Head{0};
  /// Monotonic progress counter: fixpoint loops bump it every visit.
  std::atomic<uint64_t> Heartbeat{0};
  /// Nesting depth of fixpoint scopes; the watchdog only monitors slots
  /// with FixDepth > 0 (a thread parsing or building is not "stalled").
  std::atomic<uint32_t> FixDepth{0};
  /// Advisory context for stall reports (relaxed, amortized updates).
  std::atomic<uint64_t> WorklistDepth{0};
  std::atomic<uint64_t> Partition{0};
  std::atomic<uint32_t> OsTid{0}; ///< gettid() of the owning thread.
  std::atomic<uint8_t> Used{0};   ///< Slot claimed by a live thread.
  JournalRecord Ring[JournalRingCap];
};

/// The static slot table, exposed for the postmortem writer and the
/// watchdog (both read with atomics only; neither allocates).
JournalSlot *journalSlots();
constexpr uint32_t journalNumSlots() { return JournalMaxSlots; }

/// Appends one event to the calling thread's ring.  Hot-path cost: one
/// TLS load, one relaxed fetch_add (global sequence), one 32-byte store,
/// one release store.  Call sites are amortized (phase edges, partition
/// edges, 1024-step budget boundaries), never per-visit.
void journalRecord(JournalEventKind Kind, uint64_t A = 0, uint64_t B = 0);

/// Bumps the calling thread's heartbeat (every fixpoint visit).
void journalHeartbeat();

/// Amortized stall-report context updates (relaxed stores).
void journalSetWorklistDepth(uint64_t Depth);
void journalSetPartition(uint64_t Part);

/// Sum of all slots' heartbeats (tests; the stall summary).
uint64_t journalHeartbeatTotal();

/// Micros since the shared observability epoch (obs/Trace.h
/// obsEpochNanos) — the same timebase the tracer stamps spans with, so
/// journal events overlay directly on a merged Chrome trace.
uint64_t journalNowMicros();

/// Normal-context JSON dump of every live slot's ring (schema
/// spa-journal-v1; same per-thread layout as the postmortem "threads"
/// section).  The header records "epoch_ns", the shared observability
/// epoch all t_us values are relative to.  Not signal-safe — this is
/// the --journal-out path of a run that *survived*; the crash path is
/// the postmortem writer.
std::string journalToJson();

/// Drops every slot not owned by the calling thread and re-arms the
/// caller's slot in a fork child: the child inherits copies of the
/// parent's worker-thread slots, which would otherwise masquerade as
/// live threads in its postmortem.
void journalResetForChild();

/// Marks entry/exit of a fixpoint loop for the watchdog.
class JournalFixScope {
public:
  JournalFixScope();
  ~JournalFixScope();
  JournalFixScope(const JournalFixScope &) = delete;
  JournalFixScope &operator=(const JournalFixScope &) = delete;
};

#define SPA_OBS_JOURNAL(Kind, A, B)                                            \
  ::spa::obs::journalRecord(::spa::obs::JournalEventKind::Kind,                \
                            static_cast<uint64_t>(A),                          \
                            static_cast<uint64_t>(B))
#define SPA_OBS_HEARTBEAT() ::spa::obs::journalHeartbeat()
#define SPA_OBS_FIX_SCOPE() ::spa::obs::JournalFixScope SPA_OBS_CONCAT(ObsFix_, __LINE__)

#else // !SPA_OBS_ENABLED

inline void journalRecord(JournalEventKind, uint64_t = 0, uint64_t = 0) {}
inline void journalHeartbeat() {}
inline void journalSetWorklistDepth(uint64_t) {}
inline void journalSetPartition(uint64_t) {}
inline uint64_t journalHeartbeatTotal() { return 0; }
inline uint64_t journalNowMicros() { return 0; }
inline std::string journalToJson() {
  return "{\n  \"schema\": \"spa-journal-v1\",\n  \"threads\": []\n}\n";
}
inline void journalResetForChild() {}

class JournalFixScope {
public:
  JournalFixScope() = default;
};

#define SPA_OBS_JOURNAL(Kind, A, B)                                            \
  do {                                                                         \
    if (false) {                                                               \
      (void)(A);                                                               \
      (void)(B);                                                               \
    }                                                                          \
  } while (0)
#define SPA_OBS_HEARTBEAT()                                                    \
  do {                                                                         \
  } while (0)
#define SPA_OBS_FIX_SCOPE()                                                    \
  do {                                                                         \
  } while (0)

#endif // SPA_OBS_ENABLED

} // namespace obs
} // namespace spa

#endif // SPA_OBS_JOURNAL_H
