#include "exec/expr_program.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

namespace iolap {

using expr_prog::AggSlot;
using expr_prog::NumReg;
using expr_prog::StrReg;

namespace {

constexpr int kMaxCompileDepth = 64;
constexpr int kMaxRegs = 0xFFFF;

bool IsComparisonOp(Expr::BinaryOp op) {
  switch (op) {
    case Expr::BinaryOp::kEq:
    case Expr::BinaryOp::kNe:
    case Expr::BinaryOp::kLt:
    case Expr::BinaryOp::kLe:
    case Expr::BinaryOp::kGt:
    case Expr::BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsLogicalOp(Expr::BinaryOp op) {
  return op == Expr::BinaryOp::kAnd || op == Expr::BinaryOp::kOr;
}

inline NumReg NumRegOfBool(bool v) { return NumReg::Int(v ? 1 : 0); }

// Loads a Value into a numeric register. Returns false (register set to
// NULL) when the value is a string, i.e. outside the numeric universe.
inline bool NumRegFromValue(NumReg* d, const Value& v) {
  *d = NumReg::Of(v);
  if (d->tag != ValueType::kString) return true;
  *d = NumReg{};
  return false;
}

// Comparison outcome -> 0/1 register, mirroring EvalComparison's mapping of
// Value::Compare's sign.
inline NumReg CmpResult(Expr::BinaryOp op, int cmp) {
  bool result = false;
  switch (op) {
    case Expr::BinaryOp::kEq:
      result = cmp == 0;
      break;
    case Expr::BinaryOp::kNe:
      result = cmp != 0;
      break;
    case Expr::BinaryOp::kLt:
      result = cmp < 0;
      break;
    case Expr::BinaryOp::kLe:
      result = cmp <= 0;
      break;
    case Expr::BinaryOp::kGt:
      result = cmp > 0;
      break;
    case Expr::BinaryOp::kGe:
      result = cmp >= 0;
      break;
    default:
      break;
  }
  return NumRegOfBool(result);
}

}  // namespace

// ----------------------------------------------------------------- compiler

/// Builds one ExprProgram. Single-use; not thread-safe (programs are
/// compiled once per block at plan time).
class ExprProgramCompiler {
 public:
  ExprProgramCompiler(const FunctionRegistry* functions,
                      const std::vector<ExprPtr>* lineage)
      : functions_(functions),
        lineage_(lineage),
        prog_(new ExprProgram()) {}

  bool AddRoot(const ExprPtr& root) {
    if (root == nullptr) {
      failed_ = true;
      return false;
    }
    auto slot = CompileNode(*root, 0);
    if (!slot.has_value()) return false;
    prog_->roots_.push_back({slot->out, slot->invariant});
    return true;
  }

  std::unique_ptr<const ExprProgram> Finish() {
    if (failed_) return nullptr;
    prog_->num_regs_ = static_cast<uint16_t>(next_num_);
    prog_->str_regs_ = static_cast<uint16_t>(next_str_);
    prog_->owned_slots_ = static_cast<uint16_t>(next_owned_);
    return std::move(prog_);
  }

 private:
  using Operand = ExprProgram::Operand;
  using Insn = ExprProgram::Insn;
  using Op = ExprProgram::Op;

  struct Slot {
    Operand out;
    bool invariant = true;
  };
  using MaybeSlot = std::optional<Slot>;

  MaybeSlot Fail() {
    failed_ = true;
    return std::nullopt;
  }

  bool StaticallyString(const Expr& e) const {
    return e.output_type() == ValueType::kString;
  }

  int NewNum() {
    if (next_num_ >= kMaxRegs) {
      failed_ = true;
      return 0;
    }
    return next_num_++;
  }

  int NewStr() {
    if (next_str_ >= kMaxRegs) {
      failed_ = true;
      return 0;
    }
    return next_str_++;
  }

  void Emit(bool invariant, Insn insn) {
    (invariant ? prog_->prologue_ : prog_->epilogue_).push_back(insn);
  }

  // True if `e` is a compile-time constant: no row or aggregate dependence,
  // and every call resolves (so a one-shot interpreter evaluation is safe).
  bool Foldable(const Expr& e) const {
    switch (e.kind()) {
      case Expr::Kind::kLiteral:
        return true;
      case Expr::Kind::kColumnRef:
      case Expr::Kind::kAggLookup:
        return false;
      case Expr::Kind::kUnary:
        return Foldable(*static_cast<const UnaryExpr&>(e).operand());
      case Expr::Kind::kBinary: {
        const auto& bin = static_cast<const BinaryExpr&>(e);
        return Foldable(*bin.left()) && Foldable(*bin.right());
      }
      case Expr::Kind::kCall: {
        const auto& call = static_cast<const CallExpr&>(e);
        if (functions_ == nullptr) return false;
        auto fn = functions_->FindScalar(call.name());
        if (!fn.ok()) return false;
        if ((*fn)->arity >= 0 &&
            static_cast<size_t>((*fn)->arity) != call.args().size()) {
          return false;
        }
        for (const auto& arg : call.args()) {
          if (!Foldable(*arg)) return false;
        }
        return true;
      }
    }
    return false;
  }

  // True if `e` is a literal NULL (used to fold NULL-against-string
  // comparisons, which always yield NULL, instead of refusing them as a
  // register-kind mismatch).
  static bool IsNullLiteral(const Expr& e) {
    return e.kind() == Expr::Kind::kLiteral &&
           static_cast<const LiteralExpr&>(e).value().is_null();
  }

  MaybeSlot EmitLiteral(const Value& v) {
    if (v.type() == ValueType::kString) {
      auto it = str_literals_.find(v.str());
      if (it != str_literals_.end()) {
        return Slot{Operand{it->second, true}, true};
      }
      const int reg = NewStr();
      if (failed_) return std::nullopt;
      prog_->const_str_.push_back(
          {static_cast<uint16_t>(reg),
           static_cast<uint32_t>(prog_->const_str_pool_.size())});
      prog_->const_str_pool_.push_back(v.str());
      str_literals_.emplace(v.str(), static_cast<uint16_t>(reg));
      return Slot{Operand{static_cast<uint16_t>(reg), true}, true};
    }
    NumReg r;
    NumRegFromValue(&r, v);
    const auto key = std::make_pair(static_cast<int>(r.tag),
                                    r.tag == ValueType::kDouble
                                        ? BitsOf(r.f64)
                                        : static_cast<uint64_t>(r.i64));
    auto it = num_literals_.find(key);
    if (it != num_literals_.end()) {
      return Slot{Operand{it->second, false}, true};
    }
    const int reg = NewNum();
    if (failed_) return std::nullopt;
    prog_->const_num_.push_back({static_cast<uint16_t>(reg), r});
    num_literals_.emplace(key, static_cast<uint16_t>(reg));
    return Slot{Operand{static_cast<uint16_t>(reg), false}, true};
  }

  static uint64_t BitsOf(double d) {
    uint64_t bits;
    __builtin_memcpy(&bits, &d, sizeof(bits));
    return bits;
  }

  MaybeSlot CompileNode(const Expr& e, int depth) {
    if (failed_) return std::nullopt;
    if (depth > kMaxCompileDepth) return Fail();
    auto memo = memo_.find(&e);
    if (memo != memo_.end()) return memo->second;
    MaybeSlot slot = CompileNodeImpl(e, depth);
    if (slot.has_value()) memo_.emplace(&e, *slot);
    return slot;
  }

  MaybeSlot CompileNodeImpl(const Expr& e, int depth) {
    // Constant folding: row- and trial-independent subtrees evaluate once
    // at compile time through the interpreter (the oracle by definition).
    if (e.kind() != Expr::Kind::kLiteral && Foldable(e)) {
      EvalContext ctx;
      ctx.functions = functions_;
      return EmitLiteral(e.Eval(Row{}, ctx));
    }
    switch (e.kind()) {
      case Expr::Kind::kLiteral:
        return EmitLiteral(static_cast<const LiteralExpr&>(e).value());
      case Expr::Kind::kColumnRef:
        return CompileColumnRef(static_cast<const ColumnRefExpr&>(e), depth);
      case Expr::Kind::kUnary:
        return CompileUnary(static_cast<const UnaryExpr&>(e), depth);
      case Expr::Kind::kBinary:
        return CompileBinary(static_cast<const BinaryExpr&>(e), depth);
      case Expr::Kind::kCall:
        return CompileCall(static_cast<const CallExpr&>(e), depth);
      case Expr::Kind::kAggLookup:
        return CompileAggLookup(static_cast<const AggLookupExpr&>(e), depth);
    }
    return Fail();
  }

  MaybeSlot CompileColumnRef(const ColumnRefExpr& ref, int depth) {
    const ExprPtr* lineage = nullptr;
    if (lineage_ != nullptr &&
        static_cast<size_t>(ref.index()) < lineage_->size() &&
        (*lineage_)[ref.index()] != nullptr) {
      lineage = &(*lineage_)[ref.index()];
    }
    if (ref.index() > prog_->max_col_) prog_->max_col_ = ref.index();
    const uint16_t col = static_cast<uint16_t>(ref.index());
    if (lineage != nullptr) {
      // Uncertain column: in trial mode it re-derives through its lineage,
      // in main mode it reads the stored value — both runtime-typed, so
      // only numeric lineage compiles (string columns are never uncertain
      // in practice: lineage carries aggregate outputs).
      if (StaticallyString(ref)) return Fail();
      auto sub = CompileNode(**lineage, depth + 1);
      if (!sub.has_value()) return std::nullopt;
      if (sub->out.is_str) return Fail();
      const int dst = NewNum();
      if (failed_) return std::nullopt;
      Emit(/*invariant=*/false,
           {Op::kColLineage, 0, static_cast<uint16_t>(dst), sub->out.reg, 0,
            col});
      return Slot{Operand{static_cast<uint16_t>(dst), false}, false};
    }
    if (StaticallyString(ref)) {
      auto it = str_cols_.find(ref.index());
      if (it != str_cols_.end()) return Slot{Operand{it->second, true}, true};
      const int dst = NewStr();
      if (failed_) return std::nullopt;
      Emit(/*invariant=*/true,
           {Op::kLoadStr, 0, static_cast<uint16_t>(dst), 0, 0, col});
      str_cols_.emplace(ref.index(), static_cast<uint16_t>(dst));
      return Slot{Operand{static_cast<uint16_t>(dst), true}, true};
    }
    auto it = num_cols_.find(ref.index());
    if (it != num_cols_.end()) return Slot{Operand{it->second, false}, true};
    const int dst = NewNum();
    if (failed_) return std::nullopt;
    Emit(/*invariant=*/true,
         {Op::kLoadNum, 0, static_cast<uint16_t>(dst), 0, 0, col});
    num_cols_.emplace(ref.index(), static_cast<uint16_t>(dst));
    return Slot{Operand{static_cast<uint16_t>(dst), false}, true};
  }

  MaybeSlot CompileUnary(const UnaryExpr& unary, int depth) {
    if (StaticallyString(*unary.operand())) return Fail();
    auto sub = CompileNode(*unary.operand(), depth);
    if (!sub.has_value()) return std::nullopt;
    if (sub->out.is_str) return Fail();
    const int dst = NewNum();
    if (failed_) return std::nullopt;
    Emit(sub->invariant,
         {unary.op() == Expr::UnaryOp::kNeg ? Op::kNeg : Op::kNot, 0,
          static_cast<uint16_t>(dst), sub->out.reg, 0, 0});
    return Slot{Operand{static_cast<uint16_t>(dst), false}, sub->invariant};
  }

  MaybeSlot CompileBinary(const BinaryExpr& bin, int depth) {
    const Expr& l = *bin.left();
    const Expr& r = *bin.right();
    const bool ls = StaticallyString(l);
    const bool rs = StaticallyString(r);
    const bool cmp = IsComparisonOp(bin.op());
    if (cmp && ls != rs) {
      // string <op> NULL-literal always evaluates to NULL (the null check
      // precedes Value::Compare); anything else mixes register kinds.
      if (IsNullLiteral(ls ? r : l)) return EmitLiteral(Value::Null());
      return Fail();
    }
    if (!cmp && (ls || rs)) {
      // Arithmetic/logic over a statically-string operand: the binder never
      // produces this; don't guess at its semantics.
      return Fail();
    }
    auto lslot = CompileNode(l, depth);
    if (!lslot.has_value()) return std::nullopt;
    auto rslot = CompileNode(r, depth);
    if (!rslot.has_value()) return std::nullopt;
    if (cmp && lslot->out.is_str != rslot->out.is_str) {
      // The static kinds matched, so a slot-kind mismatch means one side is
      // a statically-string expression that constant-folded to NULL (e.g.
      // lower(NULL)), which lives in a numeric register: the comparison is
      // constant NULL, same as the null check in the interpreter.
      return EmitLiteral(Value::Null());
    }
    const bool invariant = lslot->invariant && rslot->invariant;
    const int dst = NewNum();
    if (failed_) return std::nullopt;
    Insn insn{Op::kArith, static_cast<uint8_t>(bin.op()),
              static_cast<uint16_t>(dst), lslot->out.reg, rslot->out.reg, 0};
    if (cmp) {
      insn.op = lslot->out.is_str ? Op::kCmpStr : Op::kCmpNum;
    } else if (IsLogicalOp(bin.op())) {
      insn.op = Op::kLogic;
    } else if (bin.op() == Expr::BinaryOp::kMod) {
      insn.op = Op::kMod;
    } else {
      insn.aux = bin.output_type() == ValueType::kInt64 ? 1 : 0;
    }
    Emit(invariant, insn);
    return Slot{Operand{static_cast<uint16_t>(dst), false}, invariant};
  }

  MaybeSlot CompileCall(const CallExpr& call, int depth) {
    if (functions_ == nullptr) return Fail();
    auto fn = functions_->FindScalar(call.name());
    if (!fn.ok()) return Fail();
    if ((*fn)->arity >= 0 &&
        static_cast<size_t>((*fn)->arity) != call.args().size()) {
      return Fail();
    }
    std::vector<Operand> args;
    args.reserve(call.args().size());
    bool invariant = true;
    bool all_numeric = true;
    for (const auto& arg : call.args()) {
      auto slot = CompileNode(*arg, depth);
      if (!slot.has_value()) return std::nullopt;
      args.push_back(slot->out);
      invariant = invariant && slot->invariant;
      all_numeric = all_numeric && !slot->out.is_str;
    }
    if (prog_->max_call_args_ < args.size()) {
      prog_->max_call_args_ = args.size();
    }
    const uint16_t site = static_cast<uint16_t>(prog_->call_sites_.size());
    if (all_numeric && (*fn)->numeric_kernel != nullptr) {
      const int dst = NewNum();
      if (failed_) return std::nullopt;
      prog_->call_sites_.push_back({*fn, std::move(args), 0});
      Emit(invariant,
           {Op::kCallNum, 0, static_cast<uint16_t>(dst), 0, 0, site});
      return Slot{Operand{static_cast<uint16_t>(dst), false}, invariant};
    }
    // Generic call site: box the arguments, call `eval`, unbox the result
    // into the register kind the static type promises (bail otherwise).
    const bool dst_str = StaticallyString(call);
    uint16_t owned = 0;
    if (dst_str) {
      owned = static_cast<uint16_t>(next_owned_++);
    }
    const int dst = dst_str ? NewStr() : NewNum();
    if (failed_) return std::nullopt;
    prog_->call_sites_.push_back({*fn, std::move(args), owned});
    Emit(invariant, {Op::kCallGeneric, static_cast<uint8_t>(dst_str),
                     static_cast<uint16_t>(dst), 0, 0, site});
    return Slot{Operand{static_cast<uint16_t>(dst), dst_str}, invariant};
  }

  MaybeSlot CompileAggLookup(const AggLookupExpr& lookup, int depth) {
    std::vector<Operand> keys;
    keys.reserve(lookup.key_exprs().size());
    for (const auto& key : lookup.key_exprs()) {
      auto slot = CompileNode(*key, depth);
      if (!slot.has_value()) return std::nullopt;
      // The hoisted probe evaluates keys once per row; a trial-variant key
      // (nested uncertainty) would need a probe per trial — keep the
      // interpreter for that exotic shape.
      if (!slot->invariant) return Fail();
      keys.push_back(slot->out);
    }
    const uint16_t site = static_cast<uint16_t>(prog_->agg_sites_.size());
    const bool dst_str = StaticallyString(lookup);
    prog_->agg_sites_.push_back(
        {lookup.block_id(), lookup.agg_col(), std::move(keys), dst_str});
    Emit(/*invariant=*/true, {Op::kProbeAgg, 0, 0, 0, 0, site});
    const int dst = dst_str ? NewStr() : NewNum();
    if (failed_) return std::nullopt;
    Emit(/*invariant=*/false,
         {dst_str ? Op::kReadAggStr : Op::kReadAggNum, 0,
          static_cast<uint16_t>(dst), 0, 0, site});
    return Slot{Operand{static_cast<uint16_t>(dst), dst_str}, false};
  }

  const FunctionRegistry* functions_;
  const std::vector<ExprPtr>* lineage_;
  std::unique_ptr<ExprProgram> prog_;
  bool failed_ = false;
  int next_num_ = 0;
  int next_str_ = 0;
  int next_owned_ = 0;
  // Common-subexpression reuse: by node identity (shared subtrees), by
  // column index, and by literal value.
  std::unordered_map<const Expr*, Slot> memo_;
  std::map<int, uint16_t> num_cols_;
  std::map<int, uint16_t> str_cols_;
  std::map<std::pair<int, uint64_t>, uint16_t> num_literals_;
  std::map<std::string, uint16_t> str_literals_;
};

std::unique_ptr<const ExprProgram> ExprProgram::Compile(
    const std::vector<ExprPtr>& roots, const FunctionRegistry* functions,
    const std::vector<ExprPtr>* column_lineage) {
  ExprProgramCompiler compiler(functions, column_lineage);
  for (const ExprPtr& root : roots) {
    if (!compiler.AddRoot(root)) return nullptr;
  }
  return compiler.Finish();
}

ExprProgram::~ExprProgram() = default;

// ------------------------------------------------------------------ runtime

void ExprProgram::InitState(ExprProgramState* st) const {
  st->num_.assign(num_regs_, NumReg{});
  st->str_.assign(str_regs_, StrReg{});
  st->keys_.assign(agg_sites_.size(), Row{});
  for (size_t i = 0; i < agg_sites_.size(); ++i) {
    st->keys_[i].reserve(agg_sites_[i].key_regs.size());
  }
  st->aggs_.assign(agg_sites_.size(), AggSlot{});
  // kCallGeneric trusts CallSite::owned_slot at run time (the hot loop does
  // not re-check it), so the owned pool must cover every slot any site
  // names, not just the compiler's owned_slots_ claim — a corrupted site
  // must never become an out-of-bounds write.
  size_t owned = owned_slots_;
  for (const CallSite& site : call_sites_) {
    owned = std::max(owned, static_cast<size_t>(site.owned_slot) + 1);
  }
  st->owned_.assign(owned, Value());
  st->num_args_.assign(max_call_args_, NumericValue{});
  st->val_args_.clear();
  st->val_args_.reserve(max_call_args_);
  for (const auto& [reg, value] : const_num_) st->num_[reg] = value;
  for (const auto& [reg, pool_idx] : const_str_) {
    st->str_[reg] = {const_str_pool_[pool_idx], false};
  }
  // Lane rows: one per register the epilogue defines (the programs are
  // single-assignment, so these are exactly the trial-variant registers).
  st->num_lane_.assign(num_regs_, -1);
  st->str_lane_.assign(str_regs_, -1);
  st->num_lane_rows_ = 0;
  st->str_lane_rows_ = 0;
  for (const Insn& insn : epilogue_) {
    if (insn.op == Op::kProbeAgg) continue;  // defines no register
    const bool str_dst = insn.op == Op::kLoadStr ||
                         insn.op == Op::kReadAggStr ||
                         (insn.op == Op::kCallGeneric && insn.sub != 0);
    std::vector<int32_t>& lane = str_dst ? st->str_lane_ : st->num_lane_;
    int32_t& rows = str_dst ? st->str_lane_rows_ : st->num_lane_rows_;
    if (insn.dst < lane.size() && lane[insn.dst] < 0) lane[insn.dst] = rows++;
  }
  st->lane_num_.clear();
  st->lane_str_.clear();
  st->lane_owned_.clear();
  st->lanes_.clear();
  st->bail_ = false;
  st->bound_trials_ = 0;
}

namespace {

// Boxes a register back into a Value (root results, call arguments, agg
// keys). The inverse of the load path, so round-trips are bit-identical.
inline Value BoxNum(const NumReg& r) { return r.ToValue(); }

inline Value BoxStr(const StrReg& r) {
  if (r.null) return Value::Null();
  return Value::String(std::string(r.s));
}

// ------------------------------------------------------------ op kernels
// One kernel per opcode. RunSegment (the prologue and the main pass) calls
// each once per row; RunLanes calls the same kernel once per surviving
// trial, in a tight loop per instruction. Kernels that can meet a runtime
// type they do not cover return false (the caller sets the bail flag).

inline bool LoadStr(const Value& v, StrReg* d) {
  if (v.type() == ValueType::kString) {
    d->s = v.str();
    d->null = false;
    return true;
  }
  *d = StrReg{};
  return v.is_null();
}

// Trial mode (and a derived main pass) reads the compiled lineage; the
// plain main pass reads the stored column, like ColumnRefExpr::Eval.
inline bool ColLineage(bool derive, const Value& stored, const NumReg& derived,
                       NumReg* d) {
  if (derive) {
    *d = derived;
    return true;
  }
  return NumRegFromValue(d, stored);
}

inline NumReg Neg(NumReg s) {
  if (s.tag == ValueType::kNull) return NumReg{};
  if (s.tag == ValueType::kInt64) return NumReg::Int(-s.i64);
  return NumReg::Dbl(-s.f64);
}

inline NumReg Not(NumReg s) {
  return s.tag == ValueType::kNull ? NumReg{} : NumRegOfBool(!s.IsTruthy());
}

inline NumReg Arith(uint8_t sub, bool int_out, NumReg l, NumReg r) {
  if (l.tag == ValueType::kNull || r.tag == ValueType::kNull) return NumReg{};
  // Like EvalArith: all arithmetic runs in double (AsDouble == .f64), with
  // the statically-int result truncated back.
  double result = 0.0;
  switch (static_cast<Expr::BinaryOp>(sub)) {
    case Expr::BinaryOp::kAdd:
      result = l.f64 + r.f64;
      break;
    case Expr::BinaryOp::kSub:
      result = l.f64 - r.f64;
      break;
    case Expr::BinaryOp::kMul:
      result = l.f64 * r.f64;
      break;
    case Expr::BinaryOp::kDiv:
      if (r.f64 == 0.0) return NumReg{};
      result = l.f64 / r.f64;
      break;
    default:
      return NumReg{};
  }
  return int_out ? NumReg::Int(static_cast<int64_t>(result))
                 : NumReg::Dbl(result);
}

inline NumReg Mod(NumReg l, NumReg r) {
  if (l.tag == ValueType::kNull || r.tag == ValueType::kNull) return NumReg{};
  const int64_t denom = static_cast<int64_t>(r.f64);
  if (denom == 0) return NumReg{};
  return NumReg::Int(static_cast<int64_t>(l.f64) % denom);
}

inline NumReg CmpNum(uint8_t sub, NumReg l, NumReg r) {
  if (l.tag == ValueType::kNull || r.tag == ValueType::kNull) return NumReg{};
  const int cmp = l.f64 < r.f64 ? -1 : l.f64 > r.f64 ? 1 : 0;
  return CmpResult(static_cast<Expr::BinaryOp>(sub), cmp);
}

inline NumReg CmpStr(uint8_t sub, const StrReg& l, const StrReg& r) {
  if (l.null || r.null) return NumReg{};
  return CmpResult(static_cast<Expr::BinaryOp>(sub), l.s.compare(r.s));
}

inline NumReg Logic(uint8_t sub, NumReg l, NumReg r) {
  const bool ln = l.tag == ValueType::kNull;
  const bool rn = r.tag == ValueType::kNull;
  const bool lt = l.IsTruthy();
  const bool rt = r.IsTruthy();
  if (static_cast<Expr::BinaryOp>(sub) == Expr::BinaryOp::kAnd) {
    if ((!ln && !lt) || (!rn && !rt)) return NumRegOfBool(false);
    return ln || rn ? NumReg{} : NumRegOfBool(true);
  }
  if ((!ln && lt) || (!rn && rt)) return NumRegOfBool(true);
  return ln || rn ? NumReg{} : NumRegOfBool(false);
}

// `arg(i)` yields argument i's register.
template <typename Site, typename ArgAt>
inline NumReg CallNum(const Site& site, NumericValue* scratch, ArgAt arg) {
  const size_t n = site.args.size();
  for (size_t i = 0; i < n; ++i) scratch[i] = arg(i);
  return site.fn->numeric_kernel(scratch, n);
}

// `box(i)` yields argument i as a Value. The result lands in `*dstr`
// (viewing `*owned`) for a string static kind, else in `*dnum`.
template <typename Site, typename BoxAt>
inline bool CallGeneric(const Site& site, std::vector<Value>* args, BoxAt box,
                        Value* owned, NumReg* dnum, StrReg* dstr) {
  args->clear();
  for (size_t i = 0; i < site.args.size(); ++i) args->push_back(box(i));
  Value res = site.fn->eval(*args);
  if (dstr == nullptr) return NumRegFromValue(dnum, res);
  if (res.type() == ValueType::kString) {
    *owned = std::move(res);
    dstr->s = owned->str();
    dstr->null = false;
    return true;
  }
  *dstr = StrReg{};
  return res.is_null();
}

inline bool ReadAggNum(const NumericValue& v, NumReg* d) {
  if (v.tag == ValueType::kString) {
    *d = NumReg{};
    return false;
  }
  *d = v;
  return true;
}

// A lane-loop operand: an invariant register (stride 0) or one lane row.
template <typename R>
struct LaneRef {
  R* base;
  size_t stride;
  R& operator[](size_t t) const { return base[t * stride]; }
};

}  // namespace

bool ExprProgram::RunSegment(const std::vector<Insn>& seg,
                             ExprProgramState* st, const Row& row,
                             const AggLookupResolver* resolver, int num_trials,
                             bool derive_lineage) const {
  auto& num = st->num_;
  auto& str = st->str_;
  for (const Insn& insn : seg) {
    bool ok = true;
    switch (insn.op) {
      case Op::kLoadNum:
        ok = NumRegFromValue(&num[insn.dst], row[insn.aux]);
        break;
      case Op::kLoadStr:
        ok = LoadStr(row[insn.aux], &str[insn.dst]);
        break;
      case Op::kColLineage:
        ok = ColLineage(derive_lineage, row[insn.aux], num[insn.a],
                        &num[insn.dst]);
        break;
      case Op::kNeg:
        num[insn.dst] = Neg(num[insn.a]);
        break;
      case Op::kNot:
        num[insn.dst] = Not(num[insn.a]);
        break;
      case Op::kArith:
        num[insn.dst] = Arith(insn.sub, insn.aux != 0, num[insn.a], num[insn.b]);
        break;
      case Op::kMod:
        num[insn.dst] = Mod(num[insn.a], num[insn.b]);
        break;
      case Op::kCmpNum:
        num[insn.dst] = CmpNum(insn.sub, num[insn.a], num[insn.b]);
        break;
      case Op::kCmpStr:
        num[insn.dst] = CmpStr(insn.sub, str[insn.a], str[insn.b]);
        break;
      case Op::kLogic:
        num[insn.dst] = Logic(insn.sub, num[insn.a], num[insn.b]);
        break;
      case Op::kCallNum: {
        const CallSite& site = call_sites_[insn.aux];
        num[insn.dst] = CallNum(site, st->num_args_.data(), [&](size_t i) {
          return num[site.args[i].reg];
        });
        break;
      }
      case Op::kCallGeneric: {
        const CallSite& site = call_sites_[insn.aux];
        const bool to_str = insn.sub != 0;
        ok = CallGeneric(
            site, &st->val_args_,
            [&](size_t i) {
              const Operand& arg = site.args[i];
              return arg.is_str ? BoxStr(str[arg.reg]) : BoxNum(num[arg.reg]);
            },
            &st->owned_[site.owned_slot], to_str ? nullptr : &num[insn.dst],
            to_str ? &str[insn.dst] : nullptr);
        break;
      }
      case Op::kProbeAgg: {
        assert(resolver != nullptr);
        const AggSite& site = agg_sites_[insn.aux];
        Row& key = st->keys_[insn.aux];
        key.clear();
        for (const Operand& k : site.key_regs) {
          key.push_back(k.is_str ? BoxStr(str[k.reg]) : BoxNum(num[k.reg]));
        }
        AggSlot& slot = st->aggs_[insn.aux];
        const Value main = resolver->Lookup(site.block_id, site.col, key);
        if (site.is_str) {
          slot.main_str = main;
          slot.trials_str.resize(static_cast<size_t>(num_trials));
          for (int t = 0; t < num_trials; ++t) {
            slot.trials_str[t] =
                resolver->LookupTrial(site.block_id, site.col, key, t);
          }
        } else {
          slot.main_num = NumericValue::Of(main);
          slot.trials_num.resize(static_cast<size_t>(num_trials));
          if (num_trials > 0) {
            resolver->LookupTrials(site.block_id, site.col, key, num_trials,
                                   slot.trials_num.data());
          }
        }
        break;
      }
      case Op::kReadAggNum:
        ok = !agg_sites_[insn.aux].is_str &&
             ReadAggNum(st->aggs_[insn.aux].main_num, &num[insn.dst]);
        break;
      case Op::kReadAggStr:
        ok = agg_sites_[insn.aux].is_str &&
             LoadStr(st->aggs_[insn.aux].main_str, &str[insn.dst]);
        break;
    }
    if (!ok) st->bail_ = true;
  }
  return !st->bail_;
}

bool ExprProgram::RunLanes(ExprProgramState* st, const Row& row) const {
  const size_t cap = static_cast<size_t>(st->bound_trials_);
  const auto num_in = [&](uint16_t reg) {
    const int32_t lane = st->num_lane_[reg];
    return lane < 0 ? LaneRef<const NumReg>{&st->num_[reg], 0}
                    : LaneRef<const NumReg>{st->lane_num_.data() + lane * cap, 1};
  };
  const auto str_in = [&](uint16_t reg) {
    const int32_t lane = st->str_lane_[reg];
    return lane < 0 ? LaneRef<const StrReg>{&st->str_[reg], 0}
                    : LaneRef<const StrReg>{st->lane_str_.data() + lane * cap, 1};
  };
  const auto num_out = [&](uint16_t reg) {
    return st->lane_num_.data() + st->num_lane_[reg] * cap;
  };
  const auto str_out = [&](uint16_t reg) {
    return st->lane_str_.data() + st->str_lane_[reg] * cap;
  };
  const std::vector<int32_t>& lanes = st->lanes_;
  for (const Insn& insn : epilogue_) {
    bool ok = true;
    switch (insn.op) {
      case Op::kLoadNum: {
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) {
          ok = NumRegFromValue(&d[t], row[insn.aux]) && ok;
        }
        break;
      }
      case Op::kLoadStr: {
        StrReg* d = str_out(insn.dst);
        for (const int32_t t : lanes) ok = LoadStr(row[insn.aux], &d[t]) && ok;
        break;
      }
      case Op::kColLineage: {
        const auto s = num_in(insn.a);
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) {
          ColLineage(/*derive=*/true, row[insn.aux], s[t], &d[t]);
        }
        break;
      }
      case Op::kNeg: {
        const auto s = num_in(insn.a);
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) d[t] = Neg(s[t]);
        break;
      }
      case Op::kNot: {
        const auto s = num_in(insn.a);
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) d[t] = Not(s[t]);
        break;
      }
      case Op::kArith: {
        const auto l = num_in(insn.a);
        const auto r = num_in(insn.b);
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) {
          d[t] = Arith(insn.sub, insn.aux != 0, l[t], r[t]);
        }
        break;
      }
      case Op::kMod: {
        const auto l = num_in(insn.a);
        const auto r = num_in(insn.b);
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) d[t] = Mod(l[t], r[t]);
        break;
      }
      case Op::kCmpNum: {
        const auto l = num_in(insn.a);
        const auto r = num_in(insn.b);
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) d[t] = CmpNum(insn.sub, l[t], r[t]);
        break;
      }
      case Op::kCmpStr: {
        const auto l = str_in(insn.a);
        const auto r = str_in(insn.b);
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) d[t] = CmpStr(insn.sub, l[t], r[t]);
        break;
      }
      case Op::kLogic: {
        const auto l = num_in(insn.a);
        const auto r = num_in(insn.b);
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) d[t] = Logic(insn.sub, l[t], r[t]);
        break;
      }
      case Op::kCallNum: {
        const CallSite& site = call_sites_[insn.aux];
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) {
          d[t] = CallNum(site, st->num_args_.data(), [&](size_t i) {
            return num_in(site.args[i].reg)[t];
          });
        }
        break;
      }
      case Op::kCallGeneric: {
        const CallSite& site = call_sites_[insn.aux];
        const bool to_str = insn.sub != 0;
        NumReg* dnum = to_str ? nullptr : num_out(insn.dst);
        StrReg* dstr = to_str ? str_out(insn.dst) : nullptr;
        Value* owned = st->lane_owned_.data() + site.owned_slot * cap;
        for (const int32_t t : lanes) {
          ok = CallGeneric(
                   site, &st->val_args_,
                   [&](size_t i) {
                     const Operand& arg = site.args[i];
                     return arg.is_str ? BoxStr(str_in(arg.reg)[t])
                                       : BoxNum(num_in(arg.reg)[t]);
                   },
                   &owned[t], to_str ? nullptr : &dnum[t],
                   to_str ? &dstr[t] : nullptr) &&
               ok;
        }
        break;
      }
      case Op::kProbeAgg:
        ok = false;  // prologue-only: lane passes run without a resolver
        break;
      case Op::kReadAggNum: {
        const AggSlot& slot = st->aggs_[insn.aux];
        if (agg_sites_[insn.aux].is_str || slot.trials_num.size() < cap) {
          ok = false;
          break;
        }
        NumReg* d = num_out(insn.dst);
        for (const int32_t t : lanes) {
          ok = ReadAggNum(slot.trials_num[t], &d[t]) && ok;
        }
        break;
      }
      case Op::kReadAggStr: {
        const AggSlot& slot = st->aggs_[insn.aux];
        if (!agg_sites_[insn.aux].is_str || slot.trials_str.size() < cap) {
          ok = false;
          break;
        }
        StrReg* d = str_out(insn.dst);
        for (const int32_t t : lanes) {
          ok = LoadStr(slot.trials_str[t], &d[t]) && ok;
        }
        break;
      }
    }
    if (!ok) {
      st->bail_ = true;
      return false;
    }
  }
  return true;
}

bool ExprProgram::Bind(ExprProgramState* st, const Row& row,
                       const AggLookupResolver* resolver,
                       int num_trials) const {
  st->bail_ = false;
  st->bound_trials_ = num_trials;
  // Lane storage grows to the bound trial count and is kept across rows.
  const size_t cap = static_cast<size_t>(std::max(num_trials, 0));
  if (st->lane_num_.size() < st->num_lane_rows_ * cap) {
    st->lane_num_.resize(st->num_lane_rows_ * cap);
  }
  if (st->lane_str_.size() < st->str_lane_rows_ * cap) {
    st->lane_str_.resize(st->str_lane_rows_ * cap);
  }
  if (st->lane_owned_.size() < st->owned_.size() * cap) {
    st->lane_owned_.resize(st->owned_.size() * cap);
  }
  if (max_col_ >= 0 && static_cast<size_t>(max_col_) >= row.size()) {
    st->bail_ = true;
    return false;
  }
  return RunSegment(prologue_, st, row, resolver, num_trials,
                    /*derive_lineage=*/false);
}

bool ExprProgram::EvalTrial(ExprProgramState* st, const Row& row,
                            int trial) const {
  if (st->bail_) return false;
  if (trial < 0) {
    return RunSegment(epilogue_, st, row, /*resolver=*/nullptr, 0,
                      /*derive_lineage=*/false);
  }
  assert(trial < st->bound_trials_);
  if (trial >= st->bound_trials_) return false;
  st->lanes_.assign(1, trial);
  return RunLanes(st, row);
}

bool ExprProgram::EvalRefreshed(ExprProgramState* st, const Row& row) const {
  if (st->bail_) return false;
  return RunSegment(epilogue_, st, row, /*resolver=*/nullptr, 0,
                    /*derive_lineage=*/true);
}

bool ExprProgram::EvalTrials(ExprProgramState* st, const Row& row,
                             int num_trials, int pred_root,
                             uint8_t* mask) const {
  if (st->bail_) return false;
  assert(num_trials <= st->bound_trials_);
  assert(pred_root < 0 || mask != nullptr);
  if (num_trials > st->bound_trials_) return false;
  st->lanes_.clear();
  for (int t = 0; t < num_trials; ++t) {
    if (mask == nullptr || mask[t] != 0) st->lanes_.push_back(t);
  }
  if (st->lanes_.empty()) return true;
  if (!RunLanes(st, row)) return false;
  if (pred_root < 0) return true;
  const Root& pred = roots_[static_cast<size_t>(pred_root)];
  for (const int32_t t : st->lanes_) {
    // Strings (and NULL) are never truthy — mirrors Value::IsTruthy.
    if (pred.out.is_str || !NumAt(*st, pred.out.reg, t).IsTruthy()) {
      mask[t] = 0;
    }
  }
  return true;
}

const NumReg& ExprProgram::NumAt(const ExprProgramState& st, uint16_t reg,
                                 int trial) const {
  const int32_t lane = trial < 0 ? -1 : st.num_lane_[reg];
  if (lane < 0) return st.num_[reg];
  return st.lane_num_[lane * static_cast<size_t>(st.bound_trials_) + trial];
}

const StrReg& ExprProgram::StrAt(const ExprProgramState& st, uint16_t reg,
                                 int trial) const {
  const int32_t lane = trial < 0 ? -1 : st.str_lane_[reg];
  if (lane < 0) return st.str_[reg];
  return st.lane_str_[lane * static_cast<size_t>(st.bound_trials_) + trial];
}

bool ExprProgram::RootTruthy(const ExprProgramState& st, size_t r) const {
  const Root& root = roots_[r];
  // Strings (and NULL) are never truthy — mirrors Value::IsTruthy.
  return !root.out.is_str && st.num_[root.out.reg].IsTruthy();
}

Value ExprProgram::RootValue(const ExprProgramState& st, size_t r,
                             int trial) const {
  const Root& root = roots_[r];
  return root.out.is_str ? BoxStr(StrAt(st, root.out.reg, trial))
                         : BoxNum(NumAt(st, root.out.reg, trial));
}

void ExprProgram::RootLanes(const ExprProgramState& st, size_t r,
                            int num_trials, NumericValue* out) const {
  assert(!roots_[r].out.is_str && num_trials <= st.bound_trials_);
  const uint16_t reg = roots_[r].out.reg;
  const int32_t lane = st.num_lane_[reg];
  if (lane < 0) {
    std::fill(out, out + num_trials, st.num_[reg]);
  } else {
    std::copy_n(
        st.lane_num_.data() + lane * static_cast<size_t>(st.bound_trials_),
        num_trials, out);
  }
}

bool ExprProgram::root_trial_invariant(size_t r) const {
  return roots_[r].invariant;
}

// ------------------------------------------------------------ introspection

std::string ExprProgram::ToString() const {
  std::string out;
  auto OpName = [](Op op) -> const char* {
    switch (op) {
      case Op::kLoadNum:
        return "load_num";
      case Op::kLoadStr:
        return "load_str";
      case Op::kColLineage:
        return "col_lineage";
      case Op::kNeg:
        return "neg";
      case Op::kNot:
        return "not";
      case Op::kArith:
        return "arith";
      case Op::kMod:
        return "mod";
      case Op::kCmpNum:
        return "cmp_num";
      case Op::kCmpStr:
        return "cmp_str";
      case Op::kLogic:
        return "logic";
      case Op::kCallNum:
        return "call_num";
      case Op::kCallGeneric:
        return "call_generic";
      case Op::kProbeAgg:
        return "probe_agg";
      case Op::kReadAggNum:
        return "read_agg_num";
      case Op::kReadAggStr:
        return "read_agg_str";
    }
    return "?";
  };
  auto dump = [&](const char* title, const std::vector<Insn>& seg) {
    out += title;
    out += ":\n";
    for (const Insn& insn : seg) {
      out += "  ";
      out += OpName(insn.op);
      out += " dst=" + std::to_string(insn.dst) +
             " a=" + std::to_string(insn.a) + " b=" + std::to_string(insn.b) +
             " sub=" + std::to_string(insn.sub) +
             " aux=" + std::to_string(insn.aux) + "\n";
    }
  };
  dump("prologue", prologue_);
  dump("epilogue", epilogue_);
  out += "roots:";
  for (const Root& root : roots_) {
    out += std::string(" ") + (root.out.is_str ? "s" : "n") +
           std::to_string(root.out.reg) + (root.invariant ? "!" : "~");
  }
  out += "\n";
  if (!const_num_.empty() || !const_str_.empty()) {
    out += "consts:";
    for (const auto& [reg, value] : const_num_) {
      out += " n" + std::to_string(reg) + "=";
      switch (value.tag) {
        case ValueType::kInt64:
          out += "i:" + std::to_string(value.i64);
          break;
        case ValueType::kDouble:
          out += "d:" + std::to_string(value.f64);
          break;
        default:
          out += "null";
          break;
      }
    }
    for (const auto& [reg, pool_idx] : const_str_) {
      out += " s" + std::to_string(reg) + "=\"" + const_str_pool_[pool_idx] +
             "\"";
    }
    out += "\n";
  }
  for (size_t i = 0; i < call_sites_.size(); ++i) {
    const CallSite& site = call_sites_[i];
    out += "call[" + std::to_string(i) +
           "]: " + (site.fn != nullptr ? site.fn->name : "?") + "(";
    for (size_t a = 0; a < site.args.size(); ++a) {
      if (a > 0) out += ",";
      out += (site.args[a].is_str ? "s" : "n") +
             std::to_string(site.args[a].reg);
    }
    out += ") owned_slot=" + std::to_string(site.owned_slot) + "\n";
  }
  for (size_t i = 0; i < agg_sites_.size(); ++i) {
    const AggSite& site = agg_sites_[i];
    out += "agg[" + std::to_string(i) +
           "]: block=" + std::to_string(site.block_id) +
           " col=" + std::to_string(site.col) + " keys=(";
    for (size_t k = 0; k < site.key_regs.size(); ++k) {
      if (k > 0) out += ",";
      out += (site.key_regs[k].is_str ? "s" : "n") +
             std::to_string(site.key_regs[k].reg);
    }
    out += ")\n";
  }
  out += "regs: num=" + std::to_string(num_regs_) +
         " str=" + std::to_string(str_regs_) +
         " owned=" + std::to_string(owned_slots_) +
         " max_col=" + std::to_string(max_col_) +
         " max_call_args=" + std::to_string(max_call_args_) + "\n";
  return out;
}

}  // namespace iolap
