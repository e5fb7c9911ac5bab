#ifndef IOLAP_IOLAP_AGGREGATE_REGISTRY_H_
#define IOLAP_IOLAP_AGGREGATE_REGISTRY_H_

#include <unordered_map>
#include <vector>

#include "bootstrap/variation_range.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/expr.h"
#include "plan/logical_plan.h"

namespace iolap {

/// The engine's *serial apply phase* as a static capability (no runtime
/// lock; see ThreadRole). Every batch splits into parallel evaluation
/// phases — which only read the plan, the rows, and the frozen registry —
/// and a serial apply phase on the driving thread that performs all state
/// mutation in deterministic row/group order. Mutation-side APIs
/// (AggregateRegistry publication, BlockExecutor routing/publication)
/// declare IOLAP_REQUIRES(engine_serial_phase); the driver (and any test
/// or bench that drives these APIs directly) enters the phase with
/// `ScopedThreadRole serial(engine_serial_phase);`. Under Clang
/// -Wthread-safety this turns "mutation escaped into a parallel lambda" —
/// the race class that would silently break Theorem 1's bit-identical
/// replay guarantee — into a compile error.
extern ThreadRole engine_serial_phase;

/// The shared store of every aggregate block's current output: the runtime
/// "rel" that the paper's lineage references `(rel(γ), t.key)` resolve
/// against (§6.2). Each entry holds the group's current aggregate values,
/// their bootstrap trial replicas, and — for blocks whose values feed
/// classification — the variation-range trackers of §5.1.
///
/// Values are stored *unscaled* (multiplicity scale 1) together with the
/// block's current scale m_i; lookups re-scale lazily (SUM/COUNT results
/// are linear in the scale, everything else invariant — see
/// AggFunction::ScalesLinearly). This lets the delta engine publish only
/// the groups an incoming batch actually touched: untouched groups are
/// merely Refresh()ed, which re-runs the integrity check on the stored
/// replica envelope under the new scale without re-materializing replicas.
///
/// In the paper this relation is broadcast to all workers each batch so the
/// lazy-evaluation join is local; here a lookup is a hash probe and the
/// broadcast is charged to the shipped-bytes cost model by the executor.
class AggregateRegistry final : public AggLookupResolver,
                                public RangeConstraintSink {
 public:
  /// `plan` supplies per-block group-key arity and per-aggregate scaling
  /// behaviour; `slack` is the §5.1 ε.
  AggregateRegistry(const QueryPlan* plan, double slack);

  struct PublishResult {
    bool ok = true;
    /// On an integrity-check failure: the latest batch that is still
    /// consistent (-1 = restart from scratch).
    int rollback_to = -1;
    /// Refresh only: the group has no entry yet (publish it fully).
    bool missing = false;
    /// The failure is a failpoint-injected spurious verdict, not a real
    /// constraint violation. The controller replays injected-only
    /// recoveries with *unfrozen* ranges: the replay cannot livelock (no
    /// decision actually went bad) and reproduces the fault-free execution
    /// bit for bit — see docs/INTERNALS.md §9.
    bool injected = false;
  };

  /// Sets block `block`'s current multiplicity scale m_i; call once per
  /// batch before publishing or refreshing its groups.
  void SetBlockScale(int block, double scale)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Publishes (or overwrites) group `key` of block `block` at `batch`
  /// with *unscaled* results: `main` has one value per aggregate column,
  /// `trials[a]` the unscaled replicas of aggregate a. `track_ranges`
  /// enables variation-range maintenance and the integrity check (enabled
  /// for blocks consumed downstream).
  /// `analytic_sd`, when non-null (analytic error mode), supplies the
  /// unscaled per-aggregate stddevs used to synthesize the replica
  /// envelope (±2σ) instead of deriving it from `trials`.
  PublishResult Publish(int block, const Row& key, int batch,
                        std::vector<Value> main,
                        std::vector<std::vector<double>> trials,
                        bool track_ranges,
                        const std::vector<double>* analytic_sd = nullptr)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Integrity-checks an *untouched* group under the current scale using
  /// its stored replica envelope. Sets `missing` when the group was never
  /// published (caller falls back to a full Publish).
  PublishResult Refresh(int block, const Row& key, int batch,
                        bool track_ranges) IOLAP_REQUIRES(engine_serial_phase);

  /// Failure recovery: forgets groups first published after `batch` and
  /// rolls the surviving groups' range constraints back to it, freezing
  /// classification ranges for `freeze_updates` replayed batches (see
  /// VariationRangeTracker::RecoverTo).
  void RollbackTo(int batch, int freeze_updates = 0)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Recovery-storm degradation (staircase level 1): scales the envelope
  /// slack ε of every live tracker and of trackers created from now on.
  void ScaleSlack(double factor) IOLAP_REQUIRES(engine_serial_phase);

  /// Number of groups currently published for `block`.
  size_t GroupCount(int block) const;

  /// Approximate bytes of `block`'s published relation (key + replicated
  /// values): the per-batch broadcast payload of the lazy-evaluation join.
  /// A running counter, kept on publish and erase.
  size_t RelationBytes(int block) const { return relations_[block].bytes; }

  /// Every relation plus its variation-range trackers (running counters).
  size_t TotalBytes() const;

  // --- RangeConstraintSink -----------------------------------------------
  // Routes the obligations of pruning decisions (ClassifyPredicate with a
  // constraint sink) to the per-group variation-range trackers. A value
  // with no obligations can never fail the integrity check; values that
  // repeatedly betray their obligations are permanently demoted to
  // Unbounded ranges (their consumers simply stay non-deterministic).
  void RequireUpper(int block, int col, const Row& key, double bound) override
      IOLAP_REQUIRES(engine_serial_phase);
  void RequireLower(int block, int col, const Row& key, double bound) override
      IOLAP_REQUIRES(engine_serial_phase);
  void RequireContainment(int block, int col, const Row& key) override
      IOLAP_REQUIRES(engine_serial_phase);

  // --- AggLookupResolver -------------------------------------------------
  // `col` indexes the block's output schema; group-key columns resolve to
  // the key itself (deterministic), aggregate columns to published values
  // re-scaled to the block's current m_i.
  //
  // Deliberately NOT role-annotated: lookups are the parallel evaluation
  // phases' hot path and read the registry while it is frozen (no Publish /
  // Refresh / Require* runs concurrently — which is exactly what the
  // IOLAP_REQUIRES annotations above enforce). FindEntry's thread_local
  // memo keeps the concurrent probes allocation- and contention-free.
  Value Lookup(int block, int col, const Row& key) const override;
  Value LookupTrial(int block, int col, const Row& key,
                    int trial) const override;
  /// Batched, typed probe for the compiled expression path: one entry
  /// lookup for all trials instead of one per trial, unboxed straight from
  /// the stored replica doubles. Result-identical to NumericValue::Of of
  /// LookupTrial for each trial in [0, num_trials).
  void LookupTrials(int block, int col, const Row& key, int num_trials,
                    NumericValue* out) const override;
  Interval LookupRange(int block, int col, const Row& key) const override;

 private:
  struct Entry {
    int first_batch = 0;
    /// Graceful per-value degradation: after repeated failures the range
    /// is reported as Unbounded forever — rows consulting it simply stay
    /// in the non-deterministic set, and this value can never trigger a
    /// rollback again. Pruning on well-behaved values continues.
    bool range_disabled = false;
    std::vector<Value> main;                  // unscaled
    std::vector<std::vector<double>> trials;  // unscaled
    /// Unscaled replica envelopes (min / max / stddev) per aggregate:
    /// what Refresh() re-scales instead of walking `trials`.
    std::vector<double> env_lo;
    std::vector<double> env_hi;
    std::vector<double> env_sd;
    std::vector<VariationRangeTracker> ranges;  // empty if not tracked
  };
  struct Relation {
    int num_keys = 0;
    double scale = 1.0;
    std::vector<bool> linear;  // per aggregate column
    std::unordered_map<Row, Entry, RowHash, RowEq> entries;
    // Validates the thread_local lookup memo in FindEntry. Assigned a
    // globally unique value at construction and re-assigned on every
    // erase (RollbackTo), so a memoized entry pointer can never alias a
    // different relation or survive the erase that freed it. Entry
    // pointers are otherwise stable (node-based map), so inserts need no
    // bump.
    uint64_t memo_epoch = 0;
    /// Σ over entries of RowByteSize(key) + ValueBytes(entry), and of
    /// their trackers' ByteSize(): what RelationBytes / TotalBytes report.
    size_t bytes = 0;
    size_t tracker_bytes = 0;
    // Integrity failures charged per group. Deliberately NOT rolled back:
    // a failure recovery erases entries created after the recovery point,
    // and without the persistent count a chronically misbehaving value
    // would be recreated with a clean slate and fail identically forever.
    std::unordered_map<Row, int, RowHash, RowEq> failure_counts;
  };

  /// Bytes of an entry's published values (main + trial replicas).
  static size_t ValueBytes(const Entry& entry);
  static size_t TrackerBytes(const Entry& entry);

  const Entry* FindEntry(int block, const Row& key) const;
  /// Mutable tracker access for constraint registration; null when the
  /// entry is missing, disabled, or untracked.
  VariationRangeTracker* TrackerFor(int block, int col, const Row& key)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Scale applied to aggregate column `a` under `rel`'s current m_i.
  double ColScale(const Relation& rel, size_t a) const {
    return rel.linear[a] ? rel.scale : 1.0;
  }

  /// Per-column integrity updates for `entry` under the current scale;
  /// shared by Publish and Refresh. `batch` feeds the fault-injection
  /// seams (registry-envelope-fault keys its schedule on it).
  void CheckRanges(Relation& rel, const Row& key, Entry& entry, int batch,
                   PublishResult* result) IOLAP_REQUIRES(engine_serial_phase);

  /// Rescans the private state from scratch (tests/checkpoint_test.cc).
  friend class CheckpointTestPeer;

  double slack_;
  std::vector<Relation> relations_;  // indexed by block id
};

}  // namespace iolap

#endif  // IOLAP_IOLAP_AGGREGATE_REGISTRY_H_
