#ifndef IOLAP_EXEC_EXPR_PROGRAM_H_
#define IOLAP_EXEC_EXPR_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/expr.h"
#include "core/function_registry.h"
#include "core/value.h"

namespace iolap {

// Compiled expression programs.
//
// ExprProgram lowers a set of bound Expr trees (typically one block's filter
// plus its aggregate argument expressions) into a flat, type-specialized
// register program: typed slots (int64/double with a null tag, string_view
// with a null bit), no virtual dispatch and no Value construction in the
// loop. Instructions are split into two straight-line segments by the
// trial-invariant hoisting rule (DependsOnUncertain):
//
//   prologue  — executed once per row by Bind(): everything that does not
//               depend on an uncertain aggregate, plus one batched resolver
//               probe per AggLookup site (key gather + typed LookupTrials).
//   epilogue  — the reads of the probed per-trial replicas and the
//               operators downstream of them. EvalTrial(-1) runs it once
//               for the main (non-bootstrap) evaluation; EvalTrials runs it
//               for the bootstrap trials *lane-major*: each instruction
//               once per row, as a tight loop over the surviving trials,
//               writing per-trial copies (lanes) of the registers the
//               epilogue defines. Every opcode has exactly one scalar
//               kernel, shared by the main pass and the lane loops.
//
// Compilation is conservative: trees the compiler cannot prove it evaluates
// bit-identically to Expr::Eval (statically mixed string/numeric operands,
// trial-variant aggregate keys, unknown functions, ...) refuse to compile
// and Compile() returns nullptr — callers keep the interpreter. Runtime
// surprises (a statically-numeric column holding a string, a generic call
// returning a type its static kind does not cover) set a sticky bail flag;
// the caller re-evaluates the whole row with the interpreter, so the
// compiled path never changes a result, only its cost.
//
// A program is immutable after Compile() and shared read-only across
// threads; all mutable evaluation state lives in a per-thread
// ExprProgramState.

namespace expr_prog {

/// A numeric register: int64/double payload plus runtime tag (the
/// NumericValue invariant f64 == double(i64) for kInt64 holds, so
/// Value::AsDouble() is the plain load of `f64` regardless of tag).
using NumReg = NumericValue;

/// A string register: a view into the source row, the program's literal
/// pool, or a state-owned result slot — plus a null bit.
struct StrReg {
  std::string_view s;
  bool null = true;
};

/// Per-row result of one AggLookup site, filled by the prologue's single
/// resolver probe: the main (trial = -1) value and the per-trial replicas.
/// Numeric sites hold them unboxed; string sites keep Values.
struct AggSlot {
  NumericValue main_num;
  std::vector<NumericValue> trials_num;
  Value main_str;
  std::vector<Value> trials_str;
};

}  // namespace expr_prog

class ExprProgram;

/// Mutable per-thread scratch for one ExprProgram. Create one per
/// evaluation lane, initialize with ExprProgram::InitState, reuse across
/// rows. Never shared between threads.
class ExprProgramState {
 public:
  ExprProgramState() = default;

  /// True if the current row hit a runtime case the compiled code does not
  /// cover; results for this row are unusable and the caller must fall back
  /// to the interpreter. Cleared by the next Bind().
  bool bailed() const { return bail_; }

 private:
  friend class ExprProgram;

  std::vector<expr_prog::NumReg> num_;
  std::vector<expr_prog::StrReg> str_;
  /// Reused key rows, one per AggLookup site.
  std::vector<Row> keys_;
  /// Probe results, one per AggLookup site.
  std::vector<expr_prog::AggSlot> aggs_;
  /// Owned results of generic (Value-boxed) calls whose static kind is
  /// string: the dst StrReg views into these.
  std::vector<Value> owned_;
  /// Scratch argument buffers for call sites.
  std::vector<NumericValue> num_args_;
  std::vector<Value> val_args_;

  // Lane execution (EvalTrials). Only registers the epilogue defines vary
  // by trial; each gets a lane row of bound_trials_ copies, indexed by
  // trial. Everything else is read from the scalar files above.
  /// Per numeric / string register: its lane row, or -1 (not lane-varying).
  std::vector<int32_t> num_lane_;
  std::vector<int32_t> str_lane_;
  int32_t num_lane_rows_ = 0;
  int32_t str_lane_rows_ = 0;
  std::vector<expr_prog::NumReg> lane_num_;  // [row * bound_trials_ + t]
  std::vector<expr_prog::StrReg> lane_str_;  // [row * bound_trials_ + t]
  /// Owned generic-call string results per trial:
  /// [owned slot * bound_trials_ + t].
  std::vector<Value> lane_owned_;
  /// The trials a lane pass runs, ascending.
  std::vector<int32_t> lanes_;

  bool bail_ = false;
  int bound_trials_ = 0;
};

/// An immutable compiled multi-root expression program. See file comment.
class ExprProgram {
 public:
  /// Compiles `roots` against a shared register file (common subexpressions
  /// across roots are evaluated once). `column_lineage` mirrors
  /// EvalContext::column_lineage: a non-null entry makes that column
  /// trial-variant, evaluated through its (compiled) lineage in trial mode.
  /// Returns nullptr if any root contains a construct the compiler does not
  /// cover bit-identically — the caller keeps the interpreter.
  static std::unique_ptr<const ExprProgram> Compile(
      const std::vector<ExprPtr>& roots, const FunctionRegistry* functions,
      const std::vector<ExprPtr>* column_lineage);

  ~ExprProgram();

  /// Sizes the register file and materializes literal constants.
  void InitState(ExprProgramState* state) const;

  /// Runs the prologue for `row`: trial-invariant subexpressions, plus one
  /// LookupTrials probe per AggLookup site covering trials [0, num_trials).
  /// Returns false (and leaves the state bailed) on a runtime type the
  /// program does not cover. `resolver` may be null only for programs with
  /// no AggLookup site.
  bool Bind(ExprProgramState* state, const Row& row,
            const AggLookupResolver* resolver, int num_trials) const;

  /// Runs the epilogue for one trial (trial = -1 selects the main,
  /// non-bootstrap evaluation, exactly like EvalContext::trial; trial >= 0
  /// is a one-lane EvalTrials). Requires a successful Bind() of the same
  /// row, with trial < its num_trials. Returns false if the row bailed.
  bool EvalTrial(ExprProgramState* state, const Row& row, int trial) const;

  /// The main pass over a row whose uncertain (lineage) columns may be
  /// stale: reads them through their compiled lineage instead of the stored
  /// value. Equals EvalTrial(-1) over the row after its lineage refresh
  /// (BlockExecutor::RefreshRow), without copying the row.
  bool EvalRefreshed(ExprProgramState* state, const Row& row) const;

  /// Lane execution of the epilogue for the bootstrap trials: every
  /// instruction runs once, as a loop over the trials t in [0, num_trials)
  /// with mask[t] != 0 (every trial when `mask` is null). With pred_root
  /// >= 0, then zeroes mask[t] for each such trial whose root `pred_root`
  /// is not truthy. Trial t's root results are read with
  /// RootValue(state, r, t) or RootLanes. Requires a successful Bind() of the same row
  /// with num_trials <= its num_trials. Returns false on bail, in which
  /// case the mask and lanes are unspecified and the caller must redo the
  /// row with the interpreter.
  bool EvalTrials(ExprProgramState* state, const Row& row, int num_trials,
                  int pred_root, uint8_t* mask) const;

  /// Truthiness of root `r` after the main pass.
  bool RootTruthy(const ExprProgramState& state, size_t r) const;
  /// Result of root `r` in trial `trial` (-1 = the main pass). Invariant
  /// roots read the prologue's value for every trial.
  Value RootValue(const ExprProgramState& state, size_t r,
                  int trial = -1) const;
  /// A numeric root's (!root_is_string(r)) unboxed values in trials
  /// [0, num_trials) into out[t], after EvalTrials; the trials EvalTrials
  /// skipped hold unspecified values.
  void RootLanes(const ExprProgramState& state, size_t r, int num_trials,
                 NumericValue* out) const;

  size_t num_roots() const { return roots_.size(); }
  /// True if root `r` is fully trial-invariant (decided by the prologue).
  bool root_trial_invariant(size_t r) const;

  // Introspection (tests, docs, benchmarks).
  size_t prologue_size() const { return prologue_.size(); }
  size_t epilogue_size() const { return epilogue_.size(); }
  size_t num_agg_sites() const { return agg_sites_.size(); }
  size_t num_call_sites() const { return call_sites_.size(); }
  std::string ToString() const;

  /// True if root `r` lives in the string register file. The plan invariant
  /// prover (plan/plan_verifier.h) checks this against the plan's static
  /// output types.
  bool root_is_string(size_t r) const { return roots_[r].out.is_str; }

  /// Plan-facing view of one aggregate probe site, for cross-checking
  /// against the source block's schema without exposing register details.
  struct AggSiteView {
    int block_id = 0;
    /// Index into the source block's output schema (group keys first, then
    /// aggregates — AggregateRegistry::Lookup's column convention).
    int col = 0;
    size_t num_keys = 0;
  };
  AggSiteView agg_site_view(size_t i) const {
    return {agg_sites_[i].block_id, agg_sites_[i].col,
            agg_sites_[i].key_regs.size()};
  }

  /// Highest row column any kLoad*/kColLineage touches (-1 = no loads).
  int max_col() const { return max_col_; }

 private:
  friend class ExprProgramCompiler;
  /// The static bytecode verifier (exec/program_verifier.h) walks the raw
  /// instruction streams; tests corrupt them through the peer to prove the
  /// verifier rejects every mutation class.
  friend class ProgramVerifier;
  friend class ExprProgramTestPeer;

  enum class Op : uint8_t {
    kLoadNum,     // dst.num = row[aux]; bail on string
    kLoadStr,     // dst.str = row[aux]; bail on numeric
    kColLineage,  // dst.num = trial < 0 ? row[aux] : num[a] (compiled lineage)
    kNeg,         // dst.num = -num[a] (runtime-typed, like UnaryExpr)
    kNot,         // dst.num = 3VL NOT num[a]
    kArith,       // dst.num = num[a] <sub> num[b]; aux = int64-output flag
    kMod,         // dst.num = int64 modulo (EvalArith kMod semantics)
    kCmpNum,      // dst.num = num[a] <sub> num[b] as 0/1/NULL
    kCmpStr,      // dst.num = str[a] <sub> str[b] as 0/1/NULL
    kLogic,       // dst.num = 3VL AND/OR of num[a], num[b]
    kCallNum,     // dst.num = typed kernel of call_sites_[aux]
    kCallGeneric, // dst = boxed eval of call_sites_[aux]; bail on kind clash
    kProbeAgg,    // gather keys, Lookup + LookupTrials into aggs_[aux]
    kReadAggNum,  // dst.num = agg slot value for this trial; bail on string
    kReadAggStr,  // dst.str = agg slot value for this trial; bail on numeric
  };

  struct Insn {
    Op op;
    uint8_t sub = 0;  // BinaryOp / UnaryOp discriminant where applicable
    uint16_t dst = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    uint16_t aux = 0;
  };

  /// A register operand: index + which file it lives in.
  struct Operand {
    uint16_t reg = 0;
    bool is_str = false;
  };

  struct CallSite {
    const ScalarFunction* fn = nullptr;
    std::vector<Operand> args;
    /// kCallGeneric with string static kind: index of the state-owned
    /// Value slot the dst view points into.
    uint16_t owned_slot = 0;
  };

  struct AggSite {
    int block_id = 0;
    int col = 0;
    std::vector<Operand> key_regs;
    /// Static kind of the looked-up value: string sites keep Value slots.
    bool is_str = false;
  };

  struct Root {
    Operand out;
    bool invariant = false;
  };

  ExprProgram() = default;

  /// Scalar execution: the prologue (with `resolver`) or the main pass of
  /// the epilogue.
  bool RunSegment(const std::vector<Insn>& seg, ExprProgramState* st,
                  const Row& row, const AggLookupResolver* resolver,
                  int num_trials, bool derive_lineage) const;
  /// Lane execution of the epilogue over the trials in st->lanes_.
  bool RunLanes(ExprProgramState* st, const Row& row) const;
  /// The register a root's value lives in for `trial`.
  const expr_prog::NumReg& NumAt(const ExprProgramState& st, uint16_t reg,
                                 int trial) const;
  const expr_prog::StrReg& StrAt(const ExprProgramState& st, uint16_t reg,
                                 int trial) const;

  std::vector<Insn> prologue_;
  std::vector<Insn> epilogue_;
  std::vector<CallSite> call_sites_;
  std::vector<AggSite> agg_sites_;
  std::vector<Root> roots_;
  /// Literal constants, materialized into fresh states by InitState.
  std::vector<std::pair<uint16_t, expr_prog::NumReg>> const_num_;
  /// String literals: (register, index into const_str_pool_).
  std::vector<std::pair<uint16_t, uint32_t>> const_str_;
  std::vector<std::string> const_str_pool_;
  uint16_t num_regs_ = 0;
  uint16_t str_regs_ = 0;
  uint16_t owned_slots_ = 0;
  /// Highest row index any kLoad*/kColLineage touches; Bind fails fast on
  /// shorter rows.
  int max_col_ = -1;
  size_t max_call_args_ = 0;
};

}  // namespace iolap

#endif  // IOLAP_EXEC_EXPR_PROGRAM_H_
