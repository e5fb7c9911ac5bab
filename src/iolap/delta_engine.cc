#include "iolap/delta_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/failpoint.h"
#include "common/hash.h"
#include "plan/plan_verifier.h"

namespace iolap {

namespace {

// True if input `k` of `block` can deliver new rows after batch 0.
bool InputGrows(const QueryPlan& /*plan*/,
                const std::vector<BlockAnnotations>& annotations,
                const Block& block, size_t k) {
  const BlockInput& input = block.inputs[k];
  if (input.kind == BlockInput::Kind::kBaseTable) return input.streamed;
  return annotations[input.source_block].dynamic;
}

uint64_t DoubleBits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

}  // namespace

BlockExecutor::BlockExecutor(const QueryPlan* plan, int block_id,
                             const std::vector<BlockAnnotations>* annotations,
                             const EngineOptions* options,
                             AggregateRegistry* registry,
                             BootstrapWeights bootstrap,
                             bool consumed_downstream, bool feeds_join,
                             ThreadPool* pool)
    : plan_(plan),
      block_(&plan->blocks[block_id]),
      ann_(&(*annotations)[block_id]),
      options_(options),
      registry_(registry),
      pool_(pool),
      bootstrap_(bootstrap),
      consumed_downstream_(consumed_downstream),
      feeds_join_(feeds_join),
      sketch_(&block_->aggs, options->num_trials) {
  for (bool uncertain : ann_->agg_arg_uncertain) {
    any_agg_arg_uncertain_ = any_agg_arg_uncertain_ || uncertain;
  }
  for (bool uncertain : ann_->spj_attr_uncertain) {
    any_attr_uncertain_ = any_attr_uncertain_ || uncertain;
  }
  stateless_ = block_->inputs.size() == 1 &&
               block_->inputs[0].kind == BlockInput::Kind::kBlockOutput;
  for (size_t k = 1; k < block_->inputs.size(); ++k) {
    bool prefix_grows = false;
    for (size_t j = 0; j < k; ++j) {
      prefix_grows = prefix_grows || InputGrows(*plan, *annotations, *block_, j);
    }
    join_steps_.emplace_back(block_->inputs[k].prefix_key_cols,
                             block_->inputs[k].input_key_cols,
                             InputGrows(*plan, *annotations, *block_, k),
                             prefix_grows);
  }

  // Lower this block's hot expressions into compiled register programs
  // (exec/expr_program) through the verifier seam: CompileVerified refuses
  // both what the compiler cannot prove bit-identical and what the static
  // bytecode verifier rejects; the plan invariant prover then checks the
  // accepted program against this block's fragment. Any refusal keeps the
  // interpreter for the block.
  if (options->compile_expressions) {
    auto drop_if_plan_mismatch = [this](
                                     std::unique_ptr<const ExprProgram>* prog,
                                     ProgramRole role) {
      if (*prog == nullptr) return;
      const PlanVerifyResult pv =
          VerifyBlockProgram(*plan_, *block_, **prog, role);
      if (!pv.ok) {
        --verifier_stats_.verified;
        verifier_stats_.RecordRejection("plan-invariant", pv.message);
        prog->reset();
      }
    };
    std::vector<ExprPtr> roots;
    if (block_->filter != nullptr) {
      filter_root_ = 0;
      roots.push_back(block_->filter);
    }
    arg_root_base_ = static_cast<int>(roots.size());
    for (const AggSpec& agg : block_->aggs) roots.push_back(agg.arg);
    if (!roots.empty()) {
      row_program_ = CompileVerified(roots, plan->functions.get(),
                                     &ann_->spj_lineage, &verifier_stats_);
      drop_if_plan_mismatch(&row_program_, ProgramRole::kRowProgram);
    }
    if (!block_->has_aggregate() && !block_->projections.empty()) {
      proj_program_ =
          CompileVerified(block_->projections, plan->functions.get(),
                          &ann_->spj_lineage, &verifier_stats_);
      drop_if_plan_mismatch(&proj_program_, ProgramRole::kProjection);
    }
  }
  if (row_program_ != nullptr) {
    // An argument the analysis calls trial-invariant reads nothing the
    // epilogue defines, so its main value is every trial's value.
    for (size_t a = 0; a < ann_->agg_arg_uncertain.size(); ++a) {
      assert(ann_->agg_arg_uncertain[a] ||
             row_program_->root_trial_invariant(
                 static_cast<size_t>(arg_root_base_) + a));
    }
    prog_states_.resize(pool_ != nullptr ? pool_->num_lanes() : 1);
    for (ExprProgramState& state : prog_states_) {
      row_program_->InitState(&state);
    }
  }
  if (proj_program_ != nullptr) proj_program_->InitState(&proj_state_);
}

EvalContext BlockExecutor::MainContext() const {
  EvalContext ctx;
  ctx.functions = plan_->functions.get();
  ctx.resolver = registry_;
  ctx.column_lineage = &ann_->spj_lineage;
  ctx.trial = -1;
  return ctx;
}

RowBatch BlockExecutor::JoinDeltas(
    const std::vector<DeltaView>& input_deltas) {
  assert(input_deltas.size() == block_->inputs.size() &&
         input_deltas.size() > 1);
  RowBatch current;
  for (size_t k = 1; k < block_->inputs.size(); ++k) {
    RowBatch next;
    rows_materialized_ += join_steps_[k - 1].ProcessBatch(
        k == 1 ? input_deltas[0] : DeltaView(current), input_deltas[k], &next);
    current = std::move(next);
  }
  return current;
}

void BlockExecutor::RefreshRow(ExecRow* row, bool charge_regeneration) const {
  if (charge_regeneration && !lazy_enabled()) {
    // Without lineage-based lazy evaluation, bringing a saved tuple up to
    // date means re-deriving it from its sources: re-probing every join it
    // passed through and rebuilding the tuple (§4.3 "generating a new tuple
    // requires going through the entire plan").
    for (const JoinStep& step : join_steps_) {
      Row key;
      key.reserve(step.prefix_key_cols().size());
      for (int c : step.prefix_key_cols()) key.push_back(row->values[c]);
      volatile size_t probed = step.ProbeCount(key);
      (void)probed;
    }
    ExecRow rebuilt = *row;  // rematerialization
    *row = std::move(rebuilt);
  }
  if (any_attr_uncertain_) {
    const EvalContext ctx = MainContext();
    for (size_t c = 0; c < ann_->spj_lineage.size(); ++c) {
      const ExprPtr& lineage = ann_->spj_lineage[c];
      if (lineage != nullptr) {
        row->values[c] = lineage->Eval(row->values, ctx);
      }
    }
  }
}

IntervalTruth BlockExecutor::Classify(RowRef row,
                                      RangeConstraintSink* sink) const {
  if (block_->filter == nullptr) return IntervalTruth::kAlwaysTrue;
  EvalContext ctx = MainContext();
  // A deterministic filter decides by direct evaluation in every mode
  // (ClassifyPredicate's own fast path, without its per-row tree walk).
  if (!ann_->filter_uncertain) {
    return block_->filter->Eval(row.values, ctx).IsTruthy()
               ? IntervalTruth::kAlwaysTrue
               : IntervalTruth::kAlwaysFalse;
  }
  // With pruning disabled (recovery-storm staircase level 2) fall through
  // to conservative tagging: nothing is decided, so no new obligations are
  // registered — but range maintenance stays on and existing obligations
  // are still verified (unlike DisableClassification).
  if (classification_enabled() && !pruning_disabled_) {
    // Persistent (non-stateless) blocks act on decided outcomes across
    // batches, so every decided comparison must register the bounds that
    // keep it valid (the constraints the §5.1 integrity check enforces).
    // Stateless consumers re-decide everything next batch and impose no
    // obligations.
    if (!stateless_) ctx.constraint_sink = sink;
    return ClassifyPredicate(*block_->filter, row.values, ctx);
  }
  // Conservative §4.1 tagging (also the HDA behaviour): any tuple whose
  // filter reads uncertain values is non-deterministic.
  return IntervalTruth::kUndecided;
}

Row BlockExecutor::GroupKeyOf(RowRef row) const {
  const EvalContext ctx = MainContext();
  Row key;
  key.reserve(block_->group_by.size());
  for (const ExprPtr& g : block_->group_by) {
    key.push_back(g->Eval(row.values, ctx));
  }
  return key;
}

std::vector<double> BlockExecutor::DisplayAnalyticSd(
    const std::vector<double>& unscaled, double effective_scale) const {
  const double fpc =
      effective_scale > 1.0 ? std::sqrt(1.0 - 1.0 / effective_scale) : 0.0;
  std::vector<double> out;
  out.reserve(unscaled.size());
  for (size_t a = 0; a < unscaled.size(); ++a) {
    if (unscaled[a] < 0.0) {
      out.push_back(-1.0);  // no closed form
      continue;
    }
    const double s =
        block_->aggs[a].fn->ScalesLinearly() ? effective_scale : 1.0;
    out.push_back(unscaled[a] * s * fpc);
  }
  return out;
}

void BlockExecutor::AccumulateCertain(RowRef row, const uint8_t* weights,
                                      int batch,
                                      GroupedAggregateState* target) {
  const EvalContext ctx = MainContext();
  GroupedAggregateState::GroupCells& cells =
      target->GetOrCreate(GroupKeyOf(row), batch);
  cells.last_touched = batch;
  const bool defer = bootstrap_.num_trials() > 0;
  for (size_t a = 0; a < block_->aggs.size(); ++a) {
    const Value v = block_->aggs[a].arg->Eval(row.values, ctx);
    cells.aggs[a].AddMainOnly(v, row.weight);
    if (defer) {
      deferred_certain_.push_back({&cells.aggs[a], v, row.weight, weights});
    }
  }
}

void BlockExecutor::StartTrialMask(RowRef row, uint8_t* slot,
                                   RowEval* ev) const {
  const int trials = bootstrap_.num_trials();
  const bool streamed = ev->weights != nullptr;  // slot holds Fill's bytes
  for (int t = 0; t < trials; ++t) {
    const uint8_t m = streamed ? slot[t] : 1;
    slot[t] = row.weight * m != 0.0 ? m : 0;
  }
  ev->weights = slot;
  ev->weight = row.weight;
  if (any_agg_arg_uncertain_) {
    ev->trial_vals.resize(block_->aggs.size() * static_cast<size_t>(trials));
  }
}

void BlockExecutor::RowEval::BoxTrialVals() {
  boxed = true;
  if (boxed_vals == nullptr) boxed_vals = std::make_unique<std::vector<Value>>();
  boxed_vals->resize(trial_vals.size());
  for (size_t i = 0; i < trial_vals.size(); ++i) {
    (*boxed_vals)[i] = trial_vals[i].ToValue();
  }
}

bool BlockExecutor::EvaluateRowCompiled(RowRef row, uint8_t* slot,
                                        RowEval* ev,
                                        ExprProgramState* ps) const {
  // Prologue: trial-invariant subexpressions plus one batched resolver
  // probe per aggregate-lookup site, then the main (trial = -1) pass. A
  // block without aggregates reads only the main pass, so it probes no
  // trial replicas.
  const int trials = block_->has_aggregate() ? bootstrap_.num_trials() : 0;
  if (!row_program_->Bind(ps, row.values, registry_, trials)) return false;
  if (!row_program_->EvalTrial(ps, row.values, -1)) return false;
  ev->main_pass =
      filter_root_ < 0 || row_program_->RootTruthy(*ps, filter_root_);
  if (!block_->has_aggregate()) return true;
  const size_t num_aggs = block_->aggs.size();
  ev->key = GroupKeyOf(row);
  ev->key_hash = HashRow(ev->key);
  ev->main_vals.clear();
  if (ev->main_pass || trials > 0) {
    ev->main_vals.reserve(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      ev->main_vals.push_back(row_program_->RootValue(
          *ps, static_cast<size_t>(arg_root_base_) + a));
    }
  }
  if (trials == 0) return true;
  // The trial lanes: EvalTrials zeroes the mask of every trial whose
  // filter decision fails under that resample; the surviving trials'
  // trial-variant arguments are then read out of the lanes — the same end
  // state the interpreted loop produces.
  const bool streamed = ev->weights != nullptr;
  StartTrialMask(row, slot, ev);
  if (!row_program_->EvalTrials(ps, row.values, trials, filter_root_, slot)) {
    // The interpreter redoes the row from its pristine multiplicities.
    ev->weights = nullptr;
    if (streamed) {
      bootstrap_.Fill(row.stream_uid, slot);
      ev->weights = slot;
    }
    return false;
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    if (!ann_->agg_arg_uncertain[a]) continue;
    const size_t root = static_cast<size_t>(arg_root_base_) + a;
    if (!ev->boxed && row_program_->root_is_string(root)) ev->BoxTrialVals();
    const size_t base = a * static_cast<size_t>(trials);
    if (!ev->boxed) {
      row_program_->RootLanes(*ps, root, trials, &ev->trial_vals[base]);
      continue;
    }
    for (int t = 0; t < trials; ++t) {
      if (slot[t] != 0) {
        (*ev->boxed_vals)[base + t] = row_program_->RootValue(*ps, root, t);
      }
    }
  }
  return true;
}

void BlockExecutor::RowEval::Reset() {
  truth = IntervalTruth::kUndecided;
  pending_route = false;
  main_pass = false;
  boxed = false;
  weights = nullptr;
  key.clear();
  key_hash = 0;
  main_vals.clear();
  weight = 0.0;
  // trial_vals and boxed_vals keep their contents: only the surviving
  // trials' slots are ever read, and every fill rewrites those.
  constraints.clear();
}

void BlockExecutor::EvaluateRow(RowRef row, uint8_t* weights, RowEval* ev,
                                ExprProgramState* prog_state) const {
  // The slot may hold an earlier batch's row, or a doomed attempt of this
  // one (the pool-task-fault retry path): start from a fresh state so
  // re-evaluation is exactly idempotent.
  ev->Reset();

  // Classification with a buffered constraint sink: registrations are
  // replayed by the serial apply phase (see ConstraintOp). This is the same
  // code path in inline mode, so the engine behaves identically with and
  // without a pool.
  struct BufferedSink final : RangeConstraintSink {
    std::vector<ConstraintOp>* ops;
    void RequireUpper(int block, int col, const Row& key,
                      double bound) override {
      ops->push_back({ConstraintOp::Kind::kUpper, block, col, key, bound});
    }
    void RequireLower(int block, int col, const Row& key,
                      double bound) override {
      ops->push_back({ConstraintOp::Kind::kLower, block, col, key, bound});
    }
    void RequireContainment(int block, int col, const Row& key) override {
      ops->push_back({ConstraintOp::Kind::kContainment, block, col, key});
    }
  };
  BufferedSink sink;
  sink.ops = &ev->constraints;
  ev->truth = Classify(row, &sink);

  // Pack the row's bootstrap multiplicities once: the trial loops below
  // and the certain-row flush read these bytes instead of re-hashing
  // (row, trial) per aggregate.
  if (block_->has_aggregate() && ev->truth != IntervalTruth::kAlwaysFalse &&
      row.FromStream() && bootstrap_.num_trials() > 0) {
    bootstrap_.Fill(row.stream_uid, weights);
    ev->weights = weights;
  }

  ev->pending_route =
      ev->truth != IntervalTruth::kAlwaysFalse &&
      !(ev->truth == IntervalTruth::kAlwaysTrue &&
        !(block_->has_aggregate() && any_agg_arg_uncertain_));
  if (!ev->pending_route) return;

  // Non-deterministic path: precompute the main filter decision and the
  // per-trial membership/argument evaluations. These read only the row and
  // the registry (frozen during a batch), never the sketch, so they run
  // concurrently per row; the contributions are applied serially later.
  if (prog_state != nullptr &&
      EvaluateRowCompiled(row, weights, ev, prog_state)) {
    return;
  }
  // Interpreter path: no compiled program, or the row bailed mid-way (the
  // re-assignments below overwrite anything the compiled attempt wrote).
  EvalContext ctx = MainContext();
  ev->main_pass = block_->filter == nullptr ||
                  block_->filter->Eval(row.values, ctx).IsTruthy();
  if (!block_->has_aggregate()) return;
  const size_t num_aggs = block_->aggs.size();
  ev->key = GroupKeyOf(row);
  ev->key_hash = HashRow(ev->key);
  const int trials = bootstrap_.num_trials();
  ev->main_vals.clear();
  if (ev->main_pass || trials > 0) {
    ev->main_vals.reserve(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      ev->main_vals.push_back(block_->aggs[a].arg->Eval(row.values, ctx));
    }
  }
  // Per-trial membership: the decision the filter takes under each
  // bootstrap resample, using the trial replicas of the aggregates it
  // reads. This is what makes the error estimate honest for tuples whose
  // membership is itself uncertain.
  if (trials == 0) return;
  ev->boxed = false;
  StartTrialMask(row, weights, ev);
  for (int t = 0; t < trials; ++t) {
    if (weights[t] == 0) continue;
    ctx.trial = t;
    if (block_->filter != nullptr &&
        !block_->filter->Eval(row.values, ctx).IsTruthy()) {
      weights[t] = 0;
      continue;
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      if (!ann_->agg_arg_uncertain[a]) continue;
      Value v = block_->aggs[a].arg->Eval(row.values, ctx);
      const size_t i = a * static_cast<size_t>(trials) + t;
      if (!ev->boxed) {
        const NumericValue nv = NumericValue::Of(v);
        if (nv.tag != ValueType::kString) {
          ev->trial_vals[i] = nv;
          continue;
        }
        ev->BoxTrialVals();
      }
      (*ev->boxed_vals)[i] = std::move(v);
    }
  }
}

void BlockExecutor::ApplyPending(RowRef row, size_t eval_idx, int batch,
                                 GroupedAggregateState* temp) {
  const RowEval& ev = row_scratch_[eval_idx];
  GroupedAggregateState::GroupCells* cells = nullptr;
  if (ev.main_pass) {
    cells = &temp->GetOrCreate(ev.key, ev.key_hash, batch);
    for (size_t a = 0; a < block_->aggs.size(); ++a) {
      cells->aggs[a].AddMainOnly(ev.main_vals[a], row.weight);
    }
  }
  bool any_trial = false;
  for (int t = 0; t < bootstrap_.num_trials(); ++t) {
    any_trial = any_trial || ev.weights[t] != 0;
  }
  if (!any_trial) return;
  if (cells == nullptr) {
    // Trial-only pass: contribute only when the group's existence is
    // already established by a main-evaluation contribution (sketch or
    // another pending row). A group passing only in resamples must not
    // materialize in the output — Q(D_i) is defined by the main
    // evaluation (ghost groups would violate Theorem 1); its trial
    // replicas are folded only where the group exists. The check is
    // loop-invariant across this row's trials (nothing mutates the maps
    // between them), so one check covers all surviving trials.
    if (sketch_.Find(ev.key, ev.key_hash) == nullptr &&
        temp->Find(ev.key, ev.key_hash) == nullptr) {
      return;
    }
    cells = &temp->GetOrCreate(ev.key, ev.key_hash, batch);
  }
  for (size_t a = 0; a < block_->aggs.size(); ++a) {
    deferred_pending_.push_back({&cells->aggs[a],
                                 static_cast<uint32_t>(eval_idx),
                                 static_cast<uint32_t>(a)});
  }
}

void BlockExecutor::FlushDeferredTrials() {
  const int trials = bootstrap_.num_trials();
  if (trials == 0 || (deferred_certain_.empty() && deferred_pending_.empty())) {
    deferred_certain_.clear();
    deferred_pending_.clear();
    return;
  }
  const auto flush_range = [&](size_t begin, size_t end, size_t /*lane*/) {
    // Certain rows first, then pending rows, each in serial-apply order.
    // The two lists target disjoint accumulators (sketch vs. the batch
    // scratch), so every (accumulator, trial) replica receives its adds in
    // row order, whichever lane owns the trial.
    const int t0 = static_cast<int>(begin);
    const int t1 = static_cast<int>(end);
    for (const CertainTrialAdd& rec : deferred_certain_) {
      rec.acc->AddTrials(rec.v, rec.weight, rec.weights, t0, t1);
    }
    // A pending row folds its trial-masked multiplicities in one range: a
    // trial-invariant argument as the main value (the certain rows' fold),
    // a trial-variant one from its per-trial lanes.
    for (const PendingTrialAdd& rec : deferred_pending_) {
      const RowEval& ev = row_scratch_[rec.eval_idx];
      const uint8_t* mask = ev.weights;
      const size_t base = rec.agg * static_cast<size_t>(trials);
      if (!ann_->agg_arg_uncertain[rec.agg]) {
        rec.acc->AddTrials(ev.main_vals[rec.agg], ev.weight, mask, t0, t1);
      } else if (!ev.boxed) {
        rec.acc->AddTrialLanes(ev.trial_vals.data() + base, ev.weight, mask,
                               t0, t1);
      } else {
        for (int t = t0; t < t1; ++t) {
          rec.acc->AddTrialOnly(t, (*ev.boxed_vals)[base + t],
                                ev.weight * mask[t]);
        }
      }
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelRanges(static_cast<size_t>(trials), flush_range);
  } else {
    flush_range(0, static_cast<size_t>(trials), 0);
  }
  deferred_certain_.clear();
  deferred_pending_.clear();
}

void BlockExecutor::RouteRow(RowRef row, ExecRow* owned, size_t eval_idx,
                             int batch, GroupedAggregateState* temp,
                             std::vector<ExecRow>* new_pending) {
  const RowEval& ev = row_scratch_[eval_idx];
  if (ev.truth == IntervalTruth::kAlwaysFalse) return;
  // The row enters owned state: moved when the executor owns it, else
  // copied out of the borrowed delta. `row` may alias `*owned`, so it is
  // read only before this runs.
  const auto take = [&]() {
    if (owned != nullptr) return std::move(*owned);
    ++rows_materialized_;
    return row.ToOwned();
  };
  if (!ev.pending_route) {
    if (block_->has_aggregate()) {
      AccumulateCertain(row, ev.weights, batch, &sketch_);
    } else {
      sink_bytes_ += row.ByteSize();
      sink_rows_.push_back(take());
    }
    return;
  }
  // Non-deterministic (or permanently unsketchable): contributes revocably
  // this batch and is saved for re-evaluation in the next one.
  if (block_->has_aggregate()) {
    ApplyPending(row, eval_idx, batch, temp);
  } else if (ev.main_pass) {
    pending_passing_.push_back(static_cast<uint32_t>(new_pending->size()));
  }
  pending_bytes_ += row.ByteSize();
  new_pending->push_back(take());
}

int BlockExecutor::ProcessBatch(int batch, double scale,
                                const std::vector<DeltaView>& input_deltas,
                                BlockBatchStats* stats) {
  assert(!stateless_);
  for (const DeltaView& delta : input_deltas) {
    stats->input_rows += delta.size();
  }
  // A single-input block reads its delta in place; a join's output rows
  // are new, so they are built owned.
  if (input_deltas.size() == 1) {
    return EvaluateBatch(batch, scale, input_deltas[0], nullptr, stats);
  }
  RowBatch joined = JoinDeltas(input_deltas);
  return EvaluateBatch(batch, scale, DeltaView(joined), &joined, stats);
}

int BlockExecutor::ProcessSnapshot(int batch, double scale, RowBatch snapshot,
                                   BlockBatchStats* stats) {
  assert(stateless_);
  // Snapshot consumer: the controller passes the upstream's full output
  // relation; re-evaluate it from scratch (it is small — aggregate
  // results) and keep no cross-batch state.
  sketch_.Clear();
  sink_rows_.clear();
  pending_.clear();
  emitted_order_.clear();
  emitted_set_.clear();
  sink_bytes_ = 0;
  pending_bytes_ = 0;
  emitted_bytes_ = 0;
  stats->recomputed_rows += snapshot.size();
  return EvaluateBatch(batch, scale, DeltaView(snapshot), &snapshot, stats);
}

int BlockExecutor::EvaluateBatch(int batch, double scale,
                                 const DeltaView& fresh, RowBatch* owned,
                                 BlockBatchStats* stats) {
  assert(owned != nullptr || !any_attr_uncertain_);
  // What the shuffle cost model charges for this batch's fresh rows (plus
  // per-row bootstrap overhead for streamed rows).
  stats->shipped_bytes += fresh.ShippedBytes(bootstrap_.RowOverheadBytes());

  GroupedAggregateState temp(&block_->aggs, options_->num_trials);
  pending_passing_.clear();
  new_output_rows_.clear();
  std::vector<ExecRow> new_pending;

  // Re-evaluate the saved non-deterministic set (§5.1: delta update based
  // on U_{i-1} and ΔD_i).
  stats->recomputed_rows += pending_.size();
  if (!lazy_enabled()) {
    // Without OPT2 the saved tuples are re-shipped / re-derived.
    stats->shipped_bytes += pending_bytes_;
  }

  // Evaluation phase over fresh ∪ pending rows: refresh (owned rows only),
  // classify (with buffered constraints), and the per-trial re-evaluations
  // of rows bound for the non-deterministic path. Evaluations read only the
  // row and the registry — which is frozen until the apply phase replays
  // constraints and PublishOutput republishes — so rows are independent
  // and the pass parallelizes without changing any outcome.
  const size_t num_fresh = fresh.size();
  const size_t total_rows = num_fresh + pending_.size();
  if (row_scratch_.size() < total_rows) row_scratch_.resize(total_rows);
  // Row i's packed-multiplicity slot (only aggregate blocks fill one).
  const size_t slot_bytes =
      block_->has_aggregate() ? static_cast<size_t>(bootstrap_.num_trials())
                              : 0;
  if (row_weights_.size() < total_rows * slot_bytes) {
    row_weights_.resize(total_rows * slot_bytes);
  }
  const auto weights_slot = [&](size_t i) {
    return slot_bytes > 0 ? row_weights_.data() + i * slot_bytes : nullptr;
  };

  const auto evaluate = [&](size_t begin, size_t end, size_t lane) {
    // Each ParallelRanges lane owns one compiled-program scratch state;
    // inline execution is lane 0.
    ExprProgramState* prog_state =
        row_program_ != nullptr ? &prog_states_[lane] : nullptr;
    for (size_t i = begin; i < end; ++i) {
      if (i < num_fresh) {
        if (owned != nullptr) {
          RefreshRow(&(*owned)[i], /*charge_regeneration=*/false);
        }
        EvaluateRow(fresh[i], weights_slot(i), &row_scratch_[i], prog_state);
      } else {
        ExecRow& row = pending_[i - num_fresh];
        RefreshRow(&row, /*charge_regeneration=*/true);
        EvaluateRow(row, weights_slot(i), &row_scratch_[i], prog_state);
      }
    }
  };
  if (pool_ != nullptr) {
    // Pure evaluation into disjoint scratch slots: re-running a range after
    // a simulated worker crash overwrites the same slots, so the phase is
    // idempotent and participates in pool-task fault injection.
    pool_->ParallelRanges(total_rows, evaluate, /*idempotent=*/true);
  } else {
    evaluate(0, total_rows, 0);
  }

  // Pre-size the group maps with this batch's routing counts (upper bounds
  // on new groups) so the serial apply phase never rehashes mid-loop.
  if (block_->has_aggregate()) {
    size_t certain_rows = 0;
    size_t pending_rows = 0;
    for (size_t i = 0; i < total_rows; ++i) {
      const RowEval& ev = row_scratch_[i];
      if (ev.truth == IntervalTruth::kAlwaysFalse) continue;
      if (ev.pending_route) {
        ++pending_rows;
      } else {
        ++certain_rows;
      }
    }
    sketch_.Reserve(certain_rows);
    temp.Reserve(pending_rows);
  }

  // Apply phase, serial in the original row order: replay the buffered
  // range constraints, then route each row into the sketch / sink /
  // non-deterministic set. Entering the serial-phase role here (a no-op at
  // runtime) is what lets Clang verify that none of the mutation below is
  // reachable from the parallel evaluation lambdas above.
  ScopedThreadRole serial_phase(engine_serial_phase);
  pending_bytes_ = 0;  // RouteRow recounts the new pending set
  for (size_t i = 0; i < total_rows; ++i) {
    for (const ConstraintOp& op : row_scratch_[i].constraints) {
      switch (op.kind) {
        case ConstraintOp::Kind::kUpper:
          registry_->RequireUpper(op.block, op.col, op.key, op.bound);
          break;
        case ConstraintOp::Kind::kLower:
          registry_->RequireLower(op.block, op.col, op.key, op.bound);
          break;
        case ConstraintOp::Kind::kContainment:
          registry_->RequireContainment(op.block, op.col, op.key);
          break;
      }
    }
    if (i < num_fresh) {
      RouteRow(fresh[i], owned != nullptr ? &(*owned)[i] : nullptr, i, batch,
               &temp, &new_pending);
    } else {
      ExecRow& row = pending_[i - num_fresh];
      RouteRow(row, &row, i, batch, &temp, &new_pending);
    }
  }
  pending_ = std::move(new_pending);

  // Drain the deferred trial-replica contributions (trial-partitioned)
  // before publication reads the accumulators.
  FlushDeferredTrials();

  stats->rows_materialized += rows_materialized_;
  rows_materialized_ = 0;
  return PublishOutput(batch, scale, temp, stats);
}

int BlockExecutor::PublishOutput(int batch, double scale,
                                 const GroupedAggregateState& temp,
                                 BlockBatchStats* stats) {
  rollback_injected_ = false;
  if (!block_->has_aggregate()) return kNoRollback;

  // Aggregates directly over the streamed relation scale their magnitude
  // results by m_i (§2 query semantics); aggregates over the outputs of
  // other blocks see already-scaled estimates on a per-seen-group basis.
  bool scans_stream = false;
  for (const BlockInput& input : block_->inputs) {
    scans_stream = scans_stream || (input.kind == BlockInput::Kind::kBaseTable &&
                                    input.streamed);
  }
  const double effective_scale = scans_stream ? scale : 1.0;
  registry_->SetBlockScale(block_->id, effective_scale);

  // Ranges are maintained only when classification consumes them; under
  // HDA / conservative tagging (and after a recovery-storm fallback) every
  // suspect tuple is re-evaluated each batch anyway, so integrity failures
  // would be pure overhead.
  const bool track = consumed_downstream_ && classification_enabled();

  int rollback = kNoRollback;
  // AND-reduced over every failure this batch: the recovery counts as
  // injected only when *no* real constraint violation contributed.
  bool injected_only = true;
  latest_output_.clear();
  std::unordered_set<Row, RowHash, RowEq> temp_keys_now;

  auto note_result = [&](const AggregateRegistry::PublishResult& result) {
    if (!result.ok) {
      injected_only = injected_only && result.injected;
      if (rollback == kNoRollback || result.rollback_to < rollback) {
        rollback = result.rollback_to;
      }
    }
  };

  // Re-scales an unscaled result for presentation / downstream join rows.
  auto scale_value = [&](size_t a, const Value& unscaled) -> Value {
    if (unscaled.is_null() || !block_->aggs[a].fn->ScalesLinearly() ||
        effective_scale == 1.0) {
      return unscaled;
    }
    return Value::Double(unscaled.AsDouble() * effective_scale);
  };

  const bool analytic = options_->error_method == ErrorMethod::kAnalytic;

  // Ordered work list (sketch groups, then temp-only groups): the parallel
  // phase below computes pure per-group materializations; the serial phase
  // afterwards walks the same order doing all registry mutation, so the
  // published state and emission order match the inline engine exactly.
  struct PublishWork {
    const Row* key;
    const GroupedAggregateState::GroupCells* sketch_cells;
    const GroupedAggregateState::GroupCells* temp_cells;
    bool dirty;
    std::vector<Value> main;                  // unscaled (dirty groups)
    std::vector<std::vector<double>> trials;  // unscaled (dirty groups)
    std::vector<double> analytic_sd;          // unscaled (dirty groups)
    OutputGroup out;                          // when collect_output_
  };
  std::vector<PublishWork> work;
  work.reserve(sketch_.num_groups() + temp.num_groups());
  auto add_work = [&](const Row& key,
                      const GroupedAggregateState::GroupCells* sketch_cells,
                      const GroupedAggregateState::GroupCells* temp_cells) {
    if (temp_cells != nullptr) temp_keys_now.insert(key);
    const bool dirty =
        force_full_publish_ || temp_cells != nullptr ||
        (sketch_cells != nullptr && sketch_cells->last_touched == batch) ||
        prev_temp_keys_.count(key) > 0;
    work.push_back({&key, sketch_cells, temp_cells, dirty, {}, {}, {}, {}});
  };
  for (const auto& [key, cells] : sketch_.groups()) {
    add_work(key, cells.get(), temp.Find(key));
  }
  for (const auto& [key, cells] : temp.groups()) {
    if (sketch_.Find(key) == nullptr) add_work(key, nullptr, cells.get());
  }

  // Materializes a dirty group's unscaled results (and, when collecting,
  // its presentation OutputGroup). Pure: reads only the two accumulator
  // cells; every mutation stays in the serial phase.
  auto materialize = [&](PublishWork& w) {
    w.main.clear();
    w.trials.clear();
    w.analytic_sd.clear();
    w.main.reserve(block_->aggs.size());
    w.trials.reserve(block_->aggs.size());
    for (size_t a = 0; a < block_->aggs.size(); ++a) {
      if (w.sketch_cells != nullptr && w.temp_cells != nullptr) {
        TrialAccumulatorSet merged = w.sketch_cells->aggs[a].Clone();
        merged.Merge(w.temp_cells->aggs[a]);
        w.main.push_back(merged.MainResult(1.0));
        w.trials.push_back(merged.TrialResults(1.0));
        if (analytic) {
          w.analytic_sd.push_back(AnalyticUnscaledStddev(
              block_->aggs[a].fn->name(), merged.moment_count(),
              merged.moment_variance()));
        }
      } else {
        const TrialAccumulatorSet& only = w.sketch_cells != nullptr
                                              ? w.sketch_cells->aggs[a]
                                              : w.temp_cells->aggs[a];
        w.main.push_back(only.MainResult(1.0));
        w.trials.push_back(only.TrialResults(1.0));
        if (analytic) {
          w.analytic_sd.push_back(AnalyticUnscaledStddev(
              block_->aggs[a].fn->name(), only.moment_count(),
              only.moment_variance()));
        }
      }
    }
    if (collect_output_) {
      OutputGroup group;
      group.key = *w.key;
      group.main.reserve(w.main.size());
      for (size_t a = 0; a < w.main.size(); ++a) {
        group.main.push_back(scale_value(a, w.main[a]));
      }
      if (collect_trials_) {
        group.trials = w.trials;
        for (size_t a = 0; a < group.trials.size(); ++a) {
          if (block_->aggs[a].fn->ScalesLinearly() && effective_scale != 1.0) {
            for (double& x : group.trials[a]) x *= effective_scale;
          }
        }
        if (analytic) {
          group.analytic_sd = DisplayAnalyticSd(w.analytic_sd,
                                                effective_scale);
        }
      }
      w.out = std::move(group);
    }
  };

  // Builds a clean (untouched) group's OutputGroup from the registry's
  // stored values. Const registry reads only — concurrency-safe; discarded
  // in the rare case the serial Refresh below reports the group missing.
  auto collect_clean = [&](PublishWork& w) {
    OutputGroup group;
    group.key = *w.key;
    const int base = static_cast<int>(block_->group_by.size());
    group.main.reserve(block_->aggs.size());
    for (size_t a = 0; a < block_->aggs.size(); ++a) {
      group.main.push_back(
          registry_->Lookup(block_->id, base + static_cast<int>(a), *w.key));
    }
    if (collect_trials_) {
      group.trials.resize(block_->aggs.size());
      for (size_t a = 0; a < block_->aggs.size(); ++a) {
        group.trials[a].reserve(options_->num_trials);
        for (int t = 0; t < options_->num_trials; ++t) {
          const Value v = registry_->LookupTrial(
              block_->id, base + static_cast<int>(a), *w.key, t);
          group.trials[a].push_back(v.is_null() ? 0.0 : v.AsDouble());
        }
      }
      if (analytic && w.sketch_cells != nullptr) {
        std::vector<double> sd;
        sd.reserve(block_->aggs.size());
        for (size_t a = 0; a < block_->aggs.size(); ++a) {
          sd.push_back(AnalyticUnscaledStddev(
              block_->aggs[a].fn->name(), w.sketch_cells->aggs[a].moment_count(),
              w.sketch_cells->aggs[a].moment_variance()));
        }
        group.analytic_sd = DisplayAnalyticSd(sd, effective_scale);
      }
    }
    w.out = std::move(group);
  };

  // Parallel phase: per-group trial re-materialization (and snapshot
  // assembly), the per-batch ×trials hot spot of publication.
  const auto prepare = [&](size_t i) {
    PublishWork& w = work[i];
    if (w.dirty) {
      materialize(w);
    } else if (collect_output_) {
      collect_clean(w);
    }
  };
  if (pool_ != nullptr) {
    // Pure per-slot materialization (materialize/collect_clean clear their
    // outputs first), so a crashed-and-retried chunk is harmless.
    pool_->ParallelFor(work.size(), prepare, /*idempotent=*/true);
  } else {
    for (size_t i = 0; i < work.size(); ++i) prepare(i);
  }

  // Serial phase in work-list order: integrity checks, registry
  // publication, downstream emission, snapshot assembly.
  for (PublishWork& w : work) {
    if (!w.dirty) {
      // Untouched group: integrity-refresh the stored envelope under the
      // new scale; values are unchanged.
      const auto result = registry_->Refresh(block_->id, *w.key, batch, track);
      if (!result.missing) {
        note_result(result);
        if (collect_output_) latest_output_.push_back(std::move(w.out));
        continue;
      }
      // Never published (first batch after a restore): materialize and
      // publish like a dirty group.
      materialize(w);
    }
    // Emit the group downstream the first time it appears.
    if (feeds_join_ && emitted_set_.find(*w.key) == emitted_set_.end()) {
      emitted_set_.insert(*w.key);
      emitted_order_.push_back(*w.key);
      emitted_bytes_ += RowByteSize(*w.key);
      ExecRow out;
      out.values = *w.key;
      for (size_t a = 0; a < w.main.size(); ++a) {
        out.values.push_back(scale_value(a, w.main[a]));
      }
      new_output_rows_.push_back(std::move(out));
    }
    if (collect_output_) latest_output_.push_back(std::move(w.out));
    note_result(registry_->Publish(block_->id, *w.key, batch,
                                   std::move(w.main), std::move(w.trials),
                                   track, analytic ? &w.analytic_sd : nullptr));
  }
  prev_temp_keys_ = std::move(temp_keys_now);
  force_full_publish_ = false;

  // Spurious integrity verdict (fault injection): report a failure even
  // though every check passed. Only meaningful while classification is
  // live — with track off a natural verdict is impossible too — and only
  // when no real failure already requested a (deeper) recovery. The `arg`
  // option sets the claimed rollback depth (default 1 batch).
  if (track && rollback == kNoRollback &&
      IOLAP_FAILPOINT(Failpoint::kExecIntegrityVerdict, batch)) {
    const int64_t depth = FailpointArg(Failpoint::kExecIntegrityVerdict, 1);
    rollback = static_cast<int>(
        std::max<int64_t>(-1, static_cast<int64_t>(batch) - depth));
  }
  rollback_injected_ = rollback != kNoRollback && injected_only;

  // Broadcast of the refreshed aggregate relation (the §6.2 broadcast
  // join that lazy evaluation relies on): the cost model ships it to every
  // other worker of a virtual cluster of kModelWorkers. This width is the
  // byte model's one parameter (EXPERIMENTS.md, "Shipped bytes").
  constexpr uint64_t kModelWorkers = 20;
  if (consumed_downstream_) {
    stats->shipped_bytes +=
        registry_->RelationBytes(block_->id) * (kModelWorkers - 1);
  }
  return rollback;
}

Table BlockExecutor::CurrentSpjOutput(
    std::vector<std::vector<std::vector<double>>>* estimates) const {
  Table out(block_->output_schema);
  EvalContext ctx = MainContext();
  const int trials = bootstrap_.num_trials();
  const size_t num_proj = block_->projections.size();
  // Compiled projection path over the stored row: one Bind (with its
  // batched aggregate probes) and a main pass that derives the uncertain
  // columns through their compiled lineage (so the stored row needs no
  // refreshed copy), then — with estimates — one lane pass for every
  // trial, whose replicas go straight into the estimate vectors. Returns
  // false on a runtime bail; the caller redoes the row interpreted.
  auto emit_compiled = [&](const ExecRow& stored) -> bool {
    if (proj_program_ == nullptr) return false;
    const int bind_trials = estimates != nullptr ? trials : 0;
    if (!proj_program_->Bind(&proj_state_, stored.values, registry_,
                             bind_trials) ||
        !proj_program_->EvalRefreshed(&proj_state_, stored.values) ||
        (bind_trials > 0 &&
         !proj_program_->EvalTrials(&proj_state_, stored.values, bind_trials,
                                    /*pred_root=*/-1, /*mask=*/nullptr))) {
      return false;
    }
    Row projected;
    projected.reserve(num_proj);
    for (size_t p = 0; p < num_proj; ++p) {
      projected.push_back(proj_program_->RootValue(proj_state_, p));
    }
    if (estimates != nullptr) {
      std::vector<std::vector<double>> row_trials(num_proj);
      for (size_t p = 0; p < num_proj; ++p) {
        if (!ann_->output_attr_uncertain[p]) continue;
        // A NULL replica reports the main value.
        const double fallback = projected[p].AsDouble();
        std::vector<double>& replicas = row_trials[p];
        replicas.resize(static_cast<size_t>(trials));
        if (proj_program_->root_is_string(p)) {
          for (int t = 0; t < trials; ++t) {
            const Value v = proj_program_->RootValue(proj_state_, p, t);
            replicas[t] = v.is_null() ? fallback : v.AsDouble();
          }
          continue;
        }
        proj_lanes_.resize(static_cast<size_t>(trials));
        proj_program_->RootLanes(proj_state_, p, trials, proj_lanes_.data());
        for (int t = 0; t < trials; ++t) {
          const NumericValue& v = proj_lanes_[t];
          replicas[t] = v.is_null() ? fallback : v.f64;
        }
      }
      estimates->push_back(std::move(row_trials));
    }
    out.AddRow(std::move(projected));
    return true;
  };
  auto emit = [&](const ExecRow& stored) {
    if (emit_compiled(stored)) return;
    // Uncertain attributes are re-read from the registry on every output;
    // a block without them emits the stored row as it is.
    ExecRow refreshed;
    if (any_attr_uncertain_) {
      refreshed = stored;
      RefreshRow(&refreshed, /*charge_regeneration=*/false);
    }
    const ExecRow& row = any_attr_uncertain_ ? refreshed : stored;
    ctx.trial = -1;
    Row projected;
    projected.reserve(num_proj);
    for (const ExprPtr& p : block_->projections) {
      projected.push_back(p->Eval(row.values, ctx));
    }
    if (estimates != nullptr) {
      std::vector<std::vector<double>> row_trials(num_proj);
      for (size_t p = 0; p < num_proj; ++p) {
        if (!ann_->output_attr_uncertain[p]) continue;
        row_trials[p].reserve(trials);
        for (int t = 0; t < trials; ++t) {
          ctx.trial = t;
          const Value v = block_->projections[p]->Eval(row.values, ctx);
          row_trials[p].push_back(v.is_null() ? projected[p].AsDouble()
                                              : v.AsDouble());
        }
      }
      estimates->push_back(std::move(row_trials));
    }
    out.AddRow(std::move(projected));
  };
  for (const ExecRow& row : sink_rows_) emit(row);
  for (uint32_t pos : pending_passing_) emit(pending_[pos]);
  return out;
}

size_t BlockExecutor::JoinStateBytes() const {
  size_t total = 0;
  for (const JoinStep& step : join_steps_) total += step.StateBytes();
  return total;
}

size_t BlockExecutor::OtherStateBytes() const {
  return sketch_.ByteSize() + pending_bytes_ + sink_bytes_ + emitted_bytes_;
}

std::shared_ptr<const BlockExecutor::Checkpoint> BlockExecutor::MakeCheckpoint(
    int batch) {
  auto cp = std::make_shared<Checkpoint>();
  cp->batch = batch;
  cp->join_marks.reserve(join_steps_.size());
  for (const JoinStep& step : join_steps_) {
    cp->join_marks.push_back(step.watermark());
  }
  if (!stateless_) {
    cp->pending = pending_;
    cp->sketch = sketch_.Capture();
    cp->sink_watermark = sink_rows_.size();
    cp->emitted_watermark = emitted_order_.size();
    cp->pending_bytes = pending_bytes_;
    cp->sink_bytes = sink_bytes_;
    cp->emitted_bytes = emitted_bytes_;
  }
  cp->checksum = ChecksumCheckpoint(*cp);
  if (IOLAP_FAILPOINT(Failpoint::kCheckpointCaptureCorrupt, batch)) {
    cp->checksum ^= 1;  // simulated bit-rot between capture and restore
  }
  return cp;
}

size_t BlockExecutor::Checkpoint::ByteSize(
    std::unordered_set<const GroupedAggregateState::GroupCells*>* counted)
    const {
  size_t total = sizeof(Checkpoint);
  total += join_marks.size() * sizeof(JoinStep::Watermark);
  total += pending_bytes;
  for (const auto& cell : sketch) {
    if (counted->insert(cell.get()).second) {
      total += cell->byte_size;
    }
  }
  return total;
}

uint64_t BlockExecutor::ChecksumCheckpoint(const Checkpoint& checkpoint,
                                           bool recompute_cells) {
  // Scalars and ordered containers fold order-sensitively.
  uint64_t h = HashCombine(0, static_cast<uint64_t>(checkpoint.batch));
  for (const JoinStep::Watermark& mark : checkpoint.join_marks) {
    h = HashCombine(h, mark.input);
    h = HashCombine(h, mark.prefix);
  }
  for (const ExecRow& row : checkpoint.pending) {
    h = HashCombine(h, HashRow(row.values));
    h = HashCombine(h, row.stream_uid);
    h = HashCombine(h, DoubleBits(row.weight));
  }
  h = HashCombine(h, checkpoint.sink_watermark);
  h = HashCombine(h, checkpoint.emitted_watermark);
  // Cells combine through a commutative wrapping sum, so the order they
  // were captured in cannot matter.
  uint64_t cell_sum = 0;
  for (const auto& cell : checkpoint.sketch) {
    cell_sum += recompute_cells ? cell->ContentHash() : cell->content_hash;
  }
  return HashCombine(h, cell_sum);
}

bool BlockExecutor::VerifyCheckpoint(const Checkpoint& checkpoint) {
  if (IOLAP_FAILPOINT(Failpoint::kCheckpointRestoreFault, checkpoint.batch)) {
    return false;  // simulated corruption detected at restore time
  }
  return ChecksumCheckpoint(checkpoint, /*recompute_cells=*/true) ==
         checkpoint.checksum;
}

void BlockExecutor::Restore(const Checkpoint& checkpoint) {
  for (size_t k = 0; k < join_steps_.size(); ++k) {
    join_steps_[k].TruncateTo(checkpoint.join_marks[k]);
  }
  pending_ = checkpoint.pending;
  sketch_.Restore(checkpoint.sketch);
  sink_rows_.resize(checkpoint.sink_watermark);
  emitted_order_.resize(checkpoint.emitted_watermark);
  emitted_set_.clear();
  for (const Row& key : emitted_order_) emitted_set_.insert(key);
  pending_bytes_ = checkpoint.pending_bytes;
  sink_bytes_ = checkpoint.sink_bytes;
  emitted_bytes_ = checkpoint.emitted_bytes;
  new_output_rows_.clear();
  pending_passing_.clear();
  prev_temp_keys_.clear();
  // Registry values may be newer than the restored sketches.
  force_full_publish_ = true;
}

void BlockExecutor::Reset() {
  for (JoinStep& step : join_steps_) {
    step.TruncateTo(JoinStep::Watermark{0, 0});
  }
  pending_.clear();
  sketch_.Clear();
  sink_rows_.clear();
  emitted_order_.clear();
  emitted_set_.clear();
  pending_bytes_ = 0;
  sink_bytes_ = 0;
  emitted_bytes_ = 0;
  new_output_rows_.clear();
  pending_passing_.clear();
  prev_temp_keys_.clear();
  force_full_publish_ = true;
}

}  // namespace iolap
