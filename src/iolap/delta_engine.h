#ifndef IOLAP_IOLAP_DELTA_ENGINE_H_
#define IOLAP_IOLAP_DELTA_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bootstrap/error_estimate.h"
#include "bootstrap/poisson_multiplicities.h"
#include "catalog/partitioner.h"
#include "common/thread_pool.h"
#include "exec/batch.h"
#include "exec/expr_program.h"
#include "exec/program_verifier.h"
#include "exec/hash_aggregate.h"
#include "exec/operators.h"
#include "iolap/aggregate_registry.h"
#include "plan/uncertainty_analysis.h"

namespace iolap {

/// How a query is executed.
enum class ExecutionMode {
  /// Traditional batch OLAP: one pass over all data, no bootstrap — the
  /// paper's "baseline".
  kBaseline,
  /// Classical higher-order delta rules (DBToaster-style HDA, §3.1/§8):
  /// inner aggregates are delta-maintained, but every operator that reads a
  /// refining aggregate re-evaluates all previously-processed data each
  /// batch.
  kHda,
  /// The paper's contribution: uncertainty-driven fine-grained delta
  /// updates. OPT1/OPT2 toggles below select the §8.2 ablation points.
  kIolap,
};

/// How approximate results are error-estimated and how variation-range
/// envelopes are derived.
enum class ErrorMethod {
  /// Simulation (poissonized) bootstrap — the paper's default.
  kBootstrap,
  /// Closed-form estimates from input moments (the §9 "analytical
  /// bootstrap [39] is orthogonal" hook): no trial replicas at all, so the
  /// per-tuple ×trials cost disappears. Supported for COUNT/SUM/AVG;
  /// other aggregates report no estimate and classify conservatively.
  kAnalytic,
};

/// What a program-verifier rejection does to the query (see
/// EngineOptions::verify_programs; verification itself is not optional).
enum class ProgramVerifyMode {
  /// Drop the rejected program, keep the interpreter for that block, count
  /// the rejection in QueryMetrics. The default: verification can only
  /// cost speed, never a result.
  kEnforce,
  /// Any rejection fails query Init with an error naming the violated
  /// rule. For CI corpus gates and tests, where a rejection is always a
  /// compiler bug that must not hide behind the interpreter fallback.
  kStrict,
};

/// Engine knobs; defaults follow the paper's setup (§8: bootstrap with 100
/// trials, slack ε = 2).
struct EngineOptions {
  ExecutionMode mode = ExecutionMode::kIolap;
  ErrorMethod error_method = ErrorMethod::kBootstrap;
  /// OPT1 (§5): variation-range classification of tuple uncertainty. When
  /// off, every tuple whose filter decision reads an uncertain aggregate is
  /// re-evaluated every batch.
  bool tuple_partition = true;
  /// OPT2 (§6): lineage-based lazy evaluation. When off, re-evaluating a
  /// saved tuple re-derives it through the block's join pipeline instead of
  /// refreshing only its uncertain attributes.
  bool lazy_lineage = true;
  /// Bootstrap trials for error estimation and variation ranges.
  int num_trials = 100;
  /// Slack ε of the variation-range estimator.
  double slack = 2.0;
  /// Mini-batch count for the streamed relation.
  size_t num_batches = 40;
  PartitionOptions partition;
  uint64_t seed = 42;
  /// Per-batch state checkpoints retained for failure recovery; rollbacks
  /// deeper than this degrade to a full restart.
  size_t checkpoint_history = 8;
  /// Failure-recovery attempts per batch before the engine falls back to
  /// classification-free (always-correct) processing for the rest of the
  /// run.
  int max_recoveries_per_batch = 32;
  /// Apply the Appendix B viewlet-transformation rewrites (query
  /// decomposition) at compile time. Off by default; see
  /// plan/rewrite_rules.h and bench_ablation_rewrite.
  bool apply_rewrite_rules = false;
  /// Lower filters, aggregate arguments and projections into compiled
  /// register programs (exec/expr_program) with trial-invariant hoisting,
  /// replacing the interpreted per-trial hot loop. Results are bit-identical
  /// to the interpreter (expressions the compiler cannot prove identical
  /// keep the interpreter per block or per row); off = always interpret.
  bool compile_expressions = true;
  /// Static verification of compiled programs (exec/program_verifier.h +
  /// plan/plan_verifier.h) is always on: every program must be proven
  /// sound — and consistent with its plan fragment — before the engine
  /// accepts it. kEnforce (default) drops a rejected program and keeps the
  /// interpreter for that block, counting the rejection in QueryMetrics;
  /// kStrict additionally fails query Init on any rejection, so CI's
  /// corpus gate turns a compiler bug into a hard error instead of a
  /// silent slowdown.
  ProgramVerifyMode verify_programs = ProgramVerifyMode::kEnforce;
  /// Worker threads for intra-batch parallelism (classification and
  /// per-trial re-evaluation of the non-deterministic set, bootstrap trial
  /// accumulation, group re-materialization). 0 = inline execution, no pool.
  /// Results are bit-identical for every value — parallel phases only
  /// *evaluate*; all state mutation happens in serial row/trial order (see
  /// docs/INTERNALS.md, "Parallelism model").
  size_t num_threads = 0;
  /// Deterministic fault-injection spec armed for the duration of each
  /// Run(), merged after the IOLAP_FAILPOINTS environment spec (so entries
  /// here win on collisions). Grammar in common/failpoint.h; empty = no
  /// injection.
  std::string failpoints;
};

/// Per-batch counters produced by one block (folded into BatchMetrics).
struct BlockBatchStats {
  uint64_t input_rows = 0;
  uint64_t recomputed_rows = 0;
  /// What the shuffle/broadcast cost model charges for this batch (see
  /// kModelWorkers in delta_engine.cc).
  uint64_t shipped_bytes = 0;
  /// Rows copied into an owned ExecRow (see BatchMetrics).
  uint64_t rows_materialized = 0;
};

/// Executes one lineage block incrementally: join deltas through cached
/// join states, classify filter decisions against variation ranges,
/// maintain the aggregate sketch and the non-deterministic set, publish the
/// block's (scaled) aggregate relation to the registry. One BlockExecutor
/// per block, driven in topological order by the QueryController.
class BlockExecutor {
 public:
  /// Returned by ProcessBatch when no rollback is needed.
  static constexpr int kNoRollback = -2;

  /// `pool` (nullable, not owned) provides intra-batch parallelism; null
  /// runs every phase inline on the caller.
  BlockExecutor(const QueryPlan* plan, int block_id,
                const std::vector<BlockAnnotations>* annotations,
                const EngineOptions* options, AggregateRegistry* registry,
                BootstrapWeights bootstrap, bool consumed_downstream,
                bool feeds_join, ThreadPool* pool = nullptr);

  /// Runs one mini-batch. `input_deltas[k]` views the new rows of input k
  /// this batch (borrowed: valid for this call only); `scale` is
  /// m_i = |D| / |D_i|. Returns kNoRollback on success, otherwise the batch
  /// to roll back to (-1 = full restart) after a variation-range integrity
  /// failure. Not for snapshot consumers (see ProcessSnapshot).
  int ProcessBatch(int batch, double scale,
                   const std::vector<DeltaView>& input_deltas,
                   BlockBatchStats* stats);

  /// ProcessBatch for a snapshot consumer (stateless()): `snapshot` is the
  /// upstream's full output relation this batch, handed over so the
  /// consumer refreshes its uncertain attributes in place.
  int ProcessSnapshot(int batch, double scale, RowBatch snapshot,
                      BlockBatchStats* stats);

  /// Groups that first appeared this batch (keys + current values), the
  /// delta feed for downstream kBlockOutput joins.
  const RowBatch& new_output_rows() const { return new_output_rows_; }

  /// One group of this batch's aggregate output snapshot.
  struct OutputGroup {
    Row key;
    std::vector<Value> main;
    std::vector<std::vector<double>> trials;
    /// Analytic mode: scaled, fpc-corrected stddev per aggregate
    /// (negative = no closed form for that aggregate).
    std::vector<double> analytic_sd;
  };

  /// Enables per-batch output snapshots. The top block collects with trial
  /// replicas (they feed the user-facing error estimates); blocks that only
  /// feed snapshot consumers skip the trial copies (`with_trials = false`),
  /// since consumers re-derive replicas through lineage lookups.
  void set_collect_output(bool collect, bool with_trials = true) {
    collect_output_ = collect;
    collect_trials_ = collect && with_trials;
  }

  /// The batch's full aggregate output (valid after ProcessBatch when
  /// collection is enabled). Unlike the registry relation, this snapshot
  /// contains no ghost groups: a group whose only contributions came from
  /// non-deterministic rows disappears the batch those rows stop passing.
  const std::vector<OutputGroup>& latest_output() const {
    return latest_output_;
  }

  /// Compile→verify counters for this block's programs (row + projection),
  /// filled at construction; the controller folds them into QueryMetrics
  /// and enforces ProgramVerifyMode::kStrict.
  const ProgramVerifierStats& verifier_stats() const {
    return verifier_stats_;
  }

  /// Current full output of a non-aggregate (top SPJ) block: permanently
  /// selected rows plus currently-passing non-deterministic rows, with
  /// uncertain attributes refreshed and projections applied. When
  /// `estimates` is non-null it receives, per emitted row, the bootstrap
  /// trial replicas of each projection (empty for deterministic columns).
  Table CurrentSpjOutput(
      std::vector<std::vector<std::vector<double>>>* estimates = nullptr) const;

  /// Size of the non-deterministic set (Fig. 9(e)).
  size_t PendingCount() const { return pending_.size(); }

  size_t JoinStateBytes() const;
  /// Sketch, pending set, sink rows and emitted keys, from running
  /// counters kept on append, erase and restore (no per-call walk).
  size_t OtherStateBytes() const;

  /// Disables range-based pruning for the rest of the run (recovery storm
  /// fallback; keeps results exact at HDA-like cost).
  void DisableClassification() { classification_disabled_ = true; }

  /// Recovery-storm staircase level 2 (softer than DisableClassification):
  /// Classify stops deciding — every uncertain-filter tuple routes to the
  /// non-deterministic set and no *new* obligations are registered — but
  /// range maintenance stays on, so the obligations already registered are
  /// still verified and can still escalate the recovery.
  void DisablePruning() { pruning_disabled_ = true; }

  /// True when the last ProcessBatch's rollback request (if any) came only
  /// from failpoint-injected spurious verdicts: the controller replays it
  /// with unfrozen ranges, reproducing the fault-free run bit for bit.
  bool rollback_injected() const { return rollback_injected_; }

  /// A block whose single input is an upstream aggregate's output is a
  /// *snapshot consumer*: it re-evaluates the upstream's (small) output
  /// relation from scratch every batch instead of keeping delta state.
  /// This is how post-aggregation projections and HAVING filters run —
  /// O(#groups) per batch — and it is immune to revocable group
  /// membership, because the snapshot never contains ghost groups.
  bool stateless() const { return stateless_; }

  // --- checkpointing for failure recovery (§5.1) -------------------------

  struct Checkpoint {
    int batch = 0;
    std::vector<JoinStep::Watermark> join_marks;
    std::vector<ExecRow> pending;
    /// The sketch's cells, shared with the live state and with the other
    /// checkpoints that captured them (see GroupedAggregateState).
    GroupedAggregateState::Snapshot sketch;
    size_t sink_watermark = 0;
    size_t emitted_watermark = 0;
    /// The executor's running byte counters at capture, restored with it.
    size_t pending_bytes = 0;
    size_t sink_bytes = 0;
    size_t emitted_bytes = 0;
    /// Content hash computed at capture (see ChecksumCheckpoint). Restoring
    /// verifies it; a mismatch means the snapshot is corrupt and the
    /// controller escalates to an older checkpoint or a full restart
    /// instead of silently replaying bad state.
    uint64_t checksum = 0;

    /// Approximate retained bytes. A sketch cell already in `counted` is
    /// skipped and every other one is added to it, so summing over a
    /// checkpoint ring with one shared set counts each shared cell once —
    /// which is what the ring holds in memory.
    size_t ByteSize(
        std::unordered_set<const GroupedAggregateState::GroupCells*>* counted)
        const;
  };

  /// Captures the executor's state after `batch`. Freezes the sketch cells
  /// opened since the previous capture (see GroupedAggregateState).
  /// Stateless blocks rebuild everything from the upstream snapshot each
  /// batch, so their checkpoint holds the batch number alone.
  std::shared_ptr<const Checkpoint> MakeCheckpoint(int batch);

  /// Order-insensitive content hash over everything a restore would replay
  /// (batch, join watermarks, pending rows, sketch accumulator results).
  /// Sketch cells contribute their hash cached at freeze time; with
  /// `recompute_cells` every cell is re-hashed from its contents instead.
  static uint64_t ChecksumCheckpoint(const Checkpoint& checkpoint,
                                     bool recompute_cells = false);

  /// True when `checkpoint`'s checksum matches its content, recomputed
  /// from scratch (no cached cell hash is trusted). The
  /// checkpoint-restore-fault failpoint forces a mismatch here.
  static bool VerifyCheckpoint(const Checkpoint& checkpoint);

  void Restore(const Checkpoint& checkpoint);
  /// Drops all state (full restart).
  void Reset();

 private:
  // --- intra-batch parallelism ------------------------------------------
  // ProcessBatch splits each hot loop into a pure *evaluation* phase (runs
  // on the pool; reads only the row, the immutable plan, and the registry,
  // which is frozen during a batch) and a serial *apply* phase that mutates
  // engine state in the original row order. The same structure runs inline
  // when no pool is attached, so results are bit-identical for every
  // thread count.

  /// One constraint registration buffered during parallel classification
  /// and replayed onto the registry in serial row order. Replay-time
  /// registration is equivalent: within a batch ConstrainUpper/Lower only
  /// fold min/max bounds that always contain the tracker's current range,
  /// so neither classification outcomes nor the final registered bounds
  /// depend on registration order.
  struct ConstraintOp {
    enum class Kind : uint8_t { kUpper, kLower, kContainment };
    Kind kind;
    int block;
    int col;
    Row key;
    double bound = 0.0;
  };

  /// Per-row output of the parallel evaluation phase.
  struct RowEval {
    IntervalTruth truth = IntervalTruth::kUndecided;
    /// Row routes to the non-deterministic path (undecided, or decided
    /// true but permanently unsketchable).
    bool pending_route = false;
    /// Main (trial = -1) filter decision of a pending-routed row.
    bool main_pass = false;
    /// Set when some trial-variant argument took a string value: the
    /// arguments then live in boxed_vals instead of trial_vals.
    bool boxed = false;
    /// The row's packed bootstrap multiplicities (BootstrapWeights::Fill,
    /// one byte per trial, in row_weights_); null when the row is not
    /// streamed or contributes to no aggregate. For a pending-routed
    /// aggregate row this is its *trial mask* instead: the multiplicity
    /// (1 for a non-streamed row) where the row survives that trial —
    /// nonzero weight and a passing filter — and 0 elsewhere, so its
    /// trial weight is weight * weights[t].
    const uint8_t* weights = nullptr;
    Row key;                       // group key (aggregate blocks only)
    /// HashRow(key), computed during the parallel evaluation phase so the
    /// serial apply phase probes the group maps without re-hashing.
    uint64_t key_hash = 0;
    /// Agg args at trial -1 (pending-routed aggregate rows). Folded into
    /// the main replicas when main_pass; a trial-invariant argument's value
    /// is also its value in every trial.
    std::vector<Value> main_vals;
    /// RowRef::weight of a pending-routed aggregate row.
    double weight = 0.0;
    /// Trial-variant agg args per surviving trial, agg-major
    /// [a * num_trials + t]; stale outside the surviving trials. Sized
    /// only by blocks with a trial-variant argument.
    std::vector<NumericValue> trial_vals;
    /// Same layout as trial_vals, allocated on the first boxed row.
    std::unique_ptr<std::vector<Value>> boxed_vals;
    std::vector<ConstraintOp> constraints;

    /// Back to a fresh slot's state, keeping the vectors' capacity.
    void Reset();
    /// Switches to boxed storage, boxing the lanes filled so far.
    void BoxTrialVals();
  };

  /// Deferred trial-replica contribution of a certain row: the same value
  /// lands in every trial replica, weighted by the row's packed bootstrap
  /// multiplicities (null = weight in every trial). Flushed by
  /// FlushDeferredTrials, partitioned by trial.
  struct CertainTrialAdd {
    TrialAccumulatorSet* acc;
    Value v;
    double weight;
    const uint8_t* weights;
  };

  /// Deferred trial-replica contribution of a pending row: its trial mask
  /// and values live in row_scratch_[eval_idx].
  struct PendingTrialAdd {
    TrialAccumulatorSet* acc;
    uint32_t eval_idx;
    uint32_t agg;
  };

  EvalContext MainContext() const;

  /// Incremental multi-way join of this batch's input deltas (two or
  /// more inputs); the joined rows are owned.
  RowBatch JoinDeltas(const std::vector<DeltaView>& input_deltas);

  /// Evaluates and routes this batch's fresh rows plus the saved
  /// non-deterministic set, then publishes. `owned` (nullable) is the
  /// storage `fresh` views when the executor owns it: those rows are
  /// refreshed in place and moved, not copied, into the state they enter.
  /// Borrowed rows are never written (a block that reads them has no
  /// uncertain attribute to refresh).
  int EvaluateBatch(int batch, double scale, const DeltaView& fresh,
                    RowBatch* owned, BlockBatchStats* stats);

  /// Refreshes the row's uncertain attributes in place by re-evaluating
  /// their lineage (§6.2). With `charge_regeneration` (OPT2 off, for saved
  /// state rows), additionally performs the work of re-deriving the tuple
  /// through the block's join pipeline (hash probes + rematerialization).
  void RefreshRow(ExecRow* row, bool charge_regeneration) const;

  /// Classifies the filter decision for `row` (§5.2 SELECT rule),
  /// registering decided-outcome obligations onto `sink` (buffered; the
  /// caller replays them serially).
  IntervalTruth Classify(RowRef row, RangeConstraintSink* sink) const;

  /// Evaluation phase for one (already refreshed) row: classify, pack the
  /// row's bootstrap multiplicities into `weights` (num_trials bytes, the
  /// row's own slot) when it feeds an aggregate, and — when the row routes
  /// to the non-deterministic path — the per-trial filter/argument
  /// evaluations, leaving the row's trial mask in `weights` (see
  /// RowEval::weights). Resets `ev` first, so it overwrites a reused slot (and a
  /// retried attempt) completely. Writes only the row's own slots; safe to
  /// run concurrently per row. `prog_state` is the caller's lane-private
  /// compiled-program scratch (null = interpret).
  void EvaluateRow(RowRef row, uint8_t* weights, RowEval* ev,
                   ExprProgramState* prog_state) const;

  /// Compiled fast path for the non-deterministic part of EvaluateRow:
  /// one Bind (prologue + batched aggregate probes), the main pass, and —
  /// for aggregate blocks — the trial lanes via EvalTrials. Returns false
  /// when the row hit a construct the program does not cover — the caller
  /// redoes the row with the interpreter, so results never change.
  bool EvaluateRowCompiled(RowRef row, uint8_t* slot, RowEval* ev,
                           ExprProgramState* ps) const;

  /// Starts a pending aggregate row's trial state in its multiplicity
  /// `slot`: the trial mask before any filter decision (the packed
  /// multiplicity wherever the weighted multiplicity is nonzero), the row
  /// weight, and room for its trial-variant arguments.
  void StartTrialMask(RowRef row, uint8_t* slot, RowEval* ev) const;

  /// Routes an evaluated row: sketch/sink for certain rows, the pending
  /// (non-deterministic) set otherwise. A row entering the sink or the
  /// pending set is moved from `owned` when non-null, else copied (and
  /// counted in rows_materialized_). Serial apply phase.
  void RouteRow(RowRef row, ExecRow* owned, size_t eval_idx, int batch,
                GroupedAggregateState* temp, std::vector<ExecRow>* new_pending)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Adds a certain row's aggregate contributions to `target`: main
  /// replicas immediately, trial replicas deferred to the flush. `weights`
  /// is the row's packed multiplicities (RowEval::weights).
  void AccumulateCertain(RowRef row, const uint8_t* weights, int batch,
                         GroupedAggregateState* target)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Applies a pending row of an aggregate block: its revocable
  /// contributions go to `temp` from its precomputed RowEval, main
  /// accumulators immediately, trial replicas deferred to the flush.
  void ApplyPending(RowRef row, size_t eval_idx, int batch,
                    GroupedAggregateState* temp)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Drains the deferred trial-replica adds, partitioned across the pool
  /// by trial index: lanes own disjoint trial replicas, and each replica
  /// receives its adds in serial-apply (row) order, so the result is
  /// bit-identical for every thread count. Every record is one range fold
  /// over the lane's trials; a pending row's folds its masked
  /// multiplicities. (Entered from the serial phase; the internal fan-out
  /// mutates lane-disjoint replicas only.)
  void FlushDeferredTrials() IOLAP_REQUIRES(engine_serial_phase);

  /// Publishes sketch ∪ temp to the registry; returns rollback target or
  /// kNoRollback.
  int PublishOutput(int batch, double scale, const GroupedAggregateState& temp,
                    BlockBatchStats* stats) IOLAP_REQUIRES(engine_serial_phase);

  Row GroupKeyOf(RowRef row) const;

  /// Converts unscaled analytic stddevs into presentation stddevs: scaled
  /// like the aggregate and shrunk by the finite-population correction
  /// sqrt(1 - 1/m) so the estimate collapses to zero on the final batch.
  std::vector<double> DisplayAnalyticSd(const std::vector<double>& unscaled,
                                        double effective_scale) const;

  bool classification_enabled() const {
    return options_->mode == ExecutionMode::kIolap &&
           options_->tuple_partition && !classification_disabled_;
  }
  bool lazy_enabled() const {
    return options_->mode == ExecutionMode::kIolap && options_->lazy_lineage;
  }

  /// Rescans the private state from scratch (tests/checkpoint_test.cc).
  friend class CheckpointTestPeer;

  const QueryPlan* plan_;
  const Block* block_;
  const BlockAnnotations* ann_;
  const EngineOptions* options_;
  AggregateRegistry* registry_;
  ThreadPool* pool_;  // not owned; null = inline
  BootstrapWeights bootstrap_;
  bool consumed_downstream_;
  bool feeds_join_;
  bool any_agg_arg_uncertain_ = false;
  /// Some SPJ column has lineage (it reads an upstream aggregate), so
  /// RefreshRow rewrites rows. Only blocks with a block-output input.
  bool any_attr_uncertain_ = false;
  bool classification_disabled_ = false;
  bool pruning_disabled_ = false;
  bool rollback_injected_ = false;
  bool collect_output_ = false;
  bool collect_trials_ = false;
  bool stateless_ = false;
  /// Set after a rollback/reset: registry values may be newer than the
  /// restored sketches, so the next batch republishes every group.
  bool force_full_publish_ = false;

  // Compiled expression programs (exec/expr_program), built once at plan
  // time and shared read-only across lanes; null = expression not compiled
  // (flag off, or a construct the compiler refuses). row_program_'s roots
  // are [filter?] + aggregate arguments; proj_program_'s are the
  // projections of a non-aggregate block.
  std::unique_ptr<const ExprProgram> row_program_;
  std::unique_ptr<const ExprProgram> proj_program_;
  int filter_root_ = -1;   // root index of the filter in row_program_
  int arg_root_base_ = 0;  // root index of aggregate argument 0
  ProgramVerifierStats verifier_stats_;
  /// Lane-private evaluation scratch, one per pool lane (index = the lane
  /// argument ParallelRanges hands each range; inline mode uses lane 0).
  std::vector<ExprProgramState> prog_states_;
  /// Scratch for proj_program_ (CurrentSpjOutput is const and serial).
  mutable ExprProgramState proj_state_;
  mutable std::vector<NumericValue> proj_lanes_;

  // Operator states (§4.2).
  std::vector<JoinStep> join_steps_;
  std::vector<ExecRow> pending_;  // the non-deterministic set U
  GroupedAggregateState sketch_;
  std::vector<ExecRow> sink_rows_;  // non-aggregate top block only

  // Join-feed bookkeeping: groups already emitted downstream.
  std::vector<Row> emitted_order_;
  // Running byte counts of pending_, sink_rows_ and emitted_order_.
  size_t pending_bytes_ = 0;
  size_t sink_bytes_ = 0;
  size_t emitted_bytes_ = 0;
  std::unordered_set<Row, RowHash, RowEq> emitted_set_;
  RowBatch new_output_rows_;
  /// Non-aggregate block: positions in pending_ of the rows passing now.
  std::vector<uint32_t> pending_passing_;
  std::vector<OutputGroup> latest_output_;
  /// Groups whose last publication included a revocable (non-deterministic)
  /// contribution: they must be republished even if untouched, because the
  /// contribution may have lapsed.
  std::unordered_set<Row, RowHash, RowEq> prev_temp_keys_;

  /// Rows copied into an owned ExecRow this batch; folded into the batch's
  /// stats when it ends.
  uint64_t rows_materialized_ = 0;

  // Per-batch scratch (members only to reuse capacity across batches).
  /// One slot per evaluated row; grown, never shrunk (EvaluateRow resets
  /// a slot before filling it, and only the batch's first rows are read).
  std::vector<RowEval> row_scratch_;
  /// Packed bootstrap multiplicities, num_trials bytes per evaluated row
  /// (slot i belongs to row_scratch_[i]); grown, never shrunk.
  std::vector<uint8_t> row_weights_;
  // Deferred trial adds, drained by FlushDeferredTrials. They hold
  // accumulator pointers, which are stable: GroupCells live on the heap, a
  // cell is opened (cloned if frozen) before the first pointer into it is
  // taken, and no capture runs before the flush, so the pointer stays the
  // live cell's. Their `aggs` vectors are sized once at creation.
  std::vector<CertainTrialAdd> deferred_certain_;
  std::vector<PendingTrialAdd> deferred_pending_;
};

}  // namespace iolap

#endif  // IOLAP_IOLAP_DELTA_ENGINE_H_
