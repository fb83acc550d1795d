#ifndef DURASSD_SIM_CRASH_HARNESS_H_
#define DURASSD_SIM_CRASH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/types.h"
#include "host/durability_mode.h"

namespace durassd {

/// Full-stack crash-consistency torture harness.
///
/// One Run() executes a deterministic randomized workload against a complete
/// stack (engine -> file system -> SSD -> FTL -> NAND), cuts power at a
/// chosen virtual instant — optionally again *during* the subsequent
/// recovery ("nested cut"), and optionally with NAND fault injection live —
/// then replays recovery and checks the ACID invariants an engine on that
/// configuration is entitled to.
///
/// The oracle is built by a probe pass: the identical seeded workload runs
/// once on a pristine stack with no cuts, recording the committed key/value
/// snapshot at every commit boundary plus every value ever written per key.
/// Determinism of the simulator guarantees the real (crashing) run follows
/// the probe bit-for-bit up to the cut, so "commit #c in the real run"
/// corresponds exactly to probe snapshot c.
///
/// Invariant tiers, keyed by configuration:
///
///   kStrict   — durable device cache (DuraSSD), or volatile cache with
///               write barriers on (for the DB, double-write must also be
///               on; a torn home page is otherwise unrepairable):
///               recovery MUST succeed; the recovered state must equal
///               snapshot[c] or — only when a commit was in flight at the
///               cut — snapshot[c+1] (the commit-uncertain window);
///               recovering, cutting again immediately and recovering once
///               more must reproduce the identical state.
///   kClean    — volatile cache + barriers, DB without double-write:
///               as kStrict, except recovery may instead fail *cleanly*
///               (Corruption/DataLoss) when a torn page is detected.
///   kPrefix   — volatile cache, no barriers (the unsafe deployment the
///               paper warns about): acknowledged commits may be lost.
///               KvStore: the recovered state must still equal SOME probe
///               snapshot j <= c+1 (append-only headers give a prefix
///               property). Database: recovery must either fail cleanly or
///               succeed with a state containing no fabricated data (every
///               recovered value was really written to that key at some
///               point). Idempotency is not checked: a second cut can
///               legitimately lose more un-flushed state.
///
/// Violations are reported as self-contained strings that embed the full
/// reproducer (every Options field); when a Tracer is attached each one is
/// also recorded as a kInvariantViolation event.
class CrashHarness {
 public:
  enum class Engine { kDatabase, kKvStore };

  struct Options {
    Engine engine = Engine::kDatabase;
    bool durable_cache = true;   ///< DuraSSD vs volatile-cache device.
    bool write_barriers = true;  ///< FS barrier mount option.
    bool double_write = true;    ///< DB only: InnoDB doublewrite.
    /// DB only: fsync after every page write (commercial-RDBMS O_DSYNC
    /// mode — the fsync-frequency sweep of Sec. 4.3.2).
    bool sync_every_page_write = false;
    /// Device command-queue mode (durable-cache devices only; volatile
    /// presets are always unordered): true = DuraSSD ordered NCQ, false =
    /// force the unordered queue so cuts land with out-of-order
    /// acknowledgments in flight.
    bool ordered_queue = true;
    /// Durable-cache devices only: destage pending sectors as large
    /// sequential log segments (checksummed header + data stripe) instead
    /// of in-place page programs. Invariants are unchanged — the log adds
    /// a checksummed replay pass before the dump replay on recovery.
    bool log_structured_destage = false;
    /// DB only: checkpoint destage queue depth — > 1 exercises the async
    /// submit/complete path, so cuts land with commands in flight.
    uint32_t checkpoint_queue_depth = 1;
    uint32_t kv_batch_size = 1;  ///< KV only: updates per fsync.
    uint64_t seed = 1;
    int ops = 60;                ///< Mutating operations in the workload.
    int ops_per_txn = 3;         ///< DB only: mutations per transaction.
    uint64_t keyspace = 64;      ///< Distinct keys (small => overwrites).
    /// Where in the probe run's virtual duration to cut power, in (0, 1).
    double cut_fraction = 0.5;
    /// Cut power a second time, in the middle of recovering from the
    /// first cut (requires an extra deterministic replay to learn the
    /// recovery duration).
    bool nested_cut = false;
    /// Run with the NAND fault model live (bit errors within the ECC
    /// budget, program/erase failures): invariants are unchanged — the
    /// device must absorb the faults.
    bool inject_faults = false;
    /// Engine commit discipline (threaded into Wal / DoubleWriteBuffer /
    /// KvStore). kBarrier makes commits durable via barrier submission; on
    /// a volatile device the barrier degenerates to fsync, so the invariant
    /// tier is unchanged by this knob. The default reproduces the pre-mode
    /// behavior bit-for-bit.
    DurabilityMode durability_mode = DurabilityMode::kDurableOrderedNcq;
    /// Snap the cut instant to a barrier / sync completion boundary
    /// enumerated from a probe-pass device trace (cut_fraction then selects
    /// WHICH boundary instead of a fraction of the total runtime). This is
    /// how epoch-edge instants — the moments the epoch oracle bites — get
    /// exercised deterministically.
    bool cut_at_barrier_boundary = false;
    /// Negative self-test of the oracle: replace the recovered state with a
    /// deliberately forged cross-epoch reordering (the last pre-cut epoch's
    /// updates kept while an older epoch's are reverted) and expect the run
    /// to report a violation. A Run with this set REPORTING ok is itself
    /// the bug. Skips the idempotency phase.
    bool plant_epoch_reorder = false;
    // --- Tiered (flash-extended-cache) scenarios ---
    /// Mount the engine on a TieredDevice: a small durable-cache flash
    /// tier fronting an HDD capacity tier, with the persistent cache
    /// directory journaled on flash. Host acks are flash-journal acks, so
    /// the stack earns the kStrict oracle regardless of `durable_cache`
    /// (which is ignored).
    bool tiered = false;
    /// Flash-tier size as a percentage of the capacity tier.
    double tier_flash_pct = 10.0;
    /// Read-miss admission: 0 = admit all, 1 = bypass sequential scans.
    uint32_t tier_admission = 1;
    /// Dirty victims per group-destage round.
    uint32_t tier_destage_batch = 16;
    /// false = drop the directory at PowerOn (cold-start baseline): the
    /// invariants must hold either way — only warmth differs.
    bool tier_warm = true;

    /// Optional: kInvariantViolation events are recorded here.
    Tracer* tracer = nullptr;

    /// Self-contained reproducer string (also prefixes every violation).
    std::string ToString() const;

    /// Parses a ToString() line back into Options (unknown tokens are
    /// ignored; `tracer` is not representable). Round-trip is exact:
    /// FromString(o.ToString()) runs the identical scenario — this is what
    /// makes the torture tests' printed repro lines copy-pasteable.
    static Options FromString(const std::string& repro);
  };

  struct Report {
    bool ok = true;                       ///< No violations.
    std::vector<std::string> violations;  ///< Self-describing, with repro.
    int cuts = 0;            ///< Power cuts performed (1, or 2 if nested).
    int recovery_attempts = 0;
    bool recovered = false;  ///< Final recovery succeeded (kPrefix/kClean
                             ///< configs may legitimately fail cleanly).
    bool commit_in_flight = false;  ///< A commit straddled the cut.
    uint64_t commits_acked = 0;     ///< Commits acknowledged before the cut.
    uint64_t snapshot_matched = 0;  ///< Probe snapshot the recovered state
                                    ///< equalled (when recovered).
    bool degraded = false;   ///< Device ended the run in degraded mode.
  };

  /// Executes one torture scenario. Deterministic: identical Options give
  /// an identical Report.
  static Report Run(const Options& options);
};

}  // namespace durassd

#endif  // DURASSD_SIM_CRASH_HARNESS_H_
