// Tests of the compiled expression programs (exec/expr_program): directed
// semantics checks against the interpreter, hoisting/probe-count structure,
// constant folding, compile refusals, a differential fuzzer over random
// well-typed trees, and engine-level compile-on/off bit-identity on the
// paper's workloads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/expr.h"
#include "core/function_registry.h"
#include "core/value.h"
#include "exec/expr_program.h"
#include "exec/program_verifier.h"
#include "iolap/session.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

namespace iolap {
namespace {

// ---------------------------------------------------------------------------
// Helpers

ExprPtr LitV(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Col(int index, ValueType type) {
  return std::make_shared<ColumnRefExpr>(index, "c" + std::to_string(index),
                                         type);
}
ExprPtr Bin(Expr::BinaryOp op, ExprPtr l, ExprPtr r,
            ValueType type = ValueType::kDouble) {
  return std::make_shared<BinaryExpr>(op, std::move(l), std::move(r), type);
}
ExprPtr Un(Expr::UnaryOp op, ExprPtr e, ValueType type = ValueType::kDouble) {
  return std::make_shared<UnaryExpr>(op, std::move(e), type);
}
ExprPtr Call(std::string name, std::vector<ExprPtr> args,
             ValueType type = ValueType::kDouble) {
  return std::make_shared<CallExpr>(std::move(name), std::move(args), type);
}
ExprPtr AggRef(int block, int col, std::vector<ExprPtr> keys,
               ValueType type = ValueType::kDouble) {
  return std::make_shared<AggLookupExpr>(block, col, std::move(keys), type,
                                         "agg");
}

// Exact (bit-level for doubles, NaN == NaN) value equality: the contract is
// that the compiled path reproduces the interpreter's result *bits*.
bool BitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.int64() == b.int64();
    case ValueType::kDouble: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      uint64_t xb = 0;
      uint64_t yb = 0;
      std::memcpy(&xb, &x, sizeof(x));
      std::memcpy(&yb, &y, sizeof(y));
      return xb == yb;
    }
    case ValueType::kString:
      return a.str() == b.str();
  }
  return false;
}

std::string Describe(const Value& v) {
  return v.ToString() + " (type " + std::to_string(static_cast<int>(v.type())) +
         ")";
}

// A resolver with deterministic per-(block, col, key) values, per-trial
// variation, occasional NULLs and int-typed values, and call counting so
// tests can assert how many probes each path makes. Trials at or past
// `covered_trials` exercise the fall-back-to-main branch of LookupTrial.
class FakeResolver final : public AggLookupResolver {
 public:
  explicit FakeResolver(int covered_trials) : covered_trials_(covered_trials) {}

  Value Lookup(int block_id, int col, const Row& key) const override {
    ++lookup_calls_;
    return MainOf(block_id, col, key);
  }

  Value LookupTrial(int block_id, int col, const Row& key,
                    int trial) const override {
    ++trial_calls_;
    return TrialOf(block_id, col, key, trial);
  }

  void LookupTrials(int block_id, int col, const Row& key, int num_trials,
                    NumericValue* out) const override {
    ++batched_calls_;
    for (int t = 0; t < num_trials; ++t) {
      out[t] = NumericValue::Of(TrialOf(block_id, col, key, t));
    }
  }

  Interval LookupRange(int, int, const Row&) const override {
    return Interval::Unbounded();
  }

  int lookup_calls() const { return lookup_calls_; }
  int trial_calls() const { return trial_calls_; }
  int batched_calls() const { return batched_calls_; }
  void ResetCounts() { lookup_calls_ = trial_calls_ = batched_calls_ = 0; }

 private:
  static double Base(int block_id, int col, const Row& key) {
    double h = 13.0 * block_id + 31.0 * col;
    for (const Value& v : key) {
      if (v.is_null()) {
        h += 3.5;
      } else if (v.is_numeric()) {
        h += v.AsDouble();
      } else {
        h += static_cast<double>(v.str().size());
      }
    }
    return h;
  }

  // Blocks 2 and 3 feed the lane fuzzer's odd sites: block 2 holds strings
  // (a string-kinded site) with the odd number, block 3 numbers with the
  // odd string — each a runtime type clash that must bail.
  static Value Odd(int block_id, double b, int trial) {
    static const char* kPool[] = {"", "a", "bb", "apple", "zebra"};
    const int64_t h =
        static_cast<int64_t>(std::fabs(b) * 7.0 + 3.0 * (trial + 1)) % 23;
    if (h == 0) return Value::Null();
    if (block_id == 2) {
      return h == 1 ? Value::Double(1.5) : Value::String(kPool[h % 5]);
    }
    return h == 1 ? Value::String("x") : Value::Double(b + 0.5 * trial);
  }

  Value MainOf(int block_id, int col, const Row& key) const {
    const double b = Base(block_id, col, key);
    if (block_id >= 2) return Odd(block_id, b, -1);
    const double m = std::fabs(std::fmod(b, 11.0));
    if (m < 1.0) return Value::Null();
    if (m < 2.0) return Value::Int64(static_cast<int64_t>(b));
    return Value::Double(b * 1.25);
  }

  Value TrialOf(int block_id, int col, const Row& key, int trial) const {
    if (trial >= covered_trials_) return MainOf(block_id, col, key);
    const double b = Base(block_id, col, key);
    if (block_id >= 2) return Odd(block_id, b, trial);
    if (std::fabs(std::fmod(b + trial, 13.0)) < 1.0) return Value::Null();
    return Value::Double(b + 0.01 * trial);
  }

  int covered_trials_;
  mutable int lookup_calls_ = 0;
  mutable int trial_calls_ = 0;
  mutable int batched_calls_ = 0;
};

struct Harness {
  std::shared_ptr<FunctionRegistry> functions = FunctionRegistry::Default();
  FakeResolver resolver{8};
  const std::vector<ExprPtr>* lineage = nullptr;

  EvalContext Ctx(int trial) const {
    EvalContext ctx;
    ctx.functions = functions.get();
    ctx.resolver = &resolver;
    ctx.column_lineage = lineage;
    ctx.trial = trial;
    return ctx;
  }

  // Compiles `roots` and checks compiled evaluation against the interpreter
  // for every root and every trial in {-1, 0, ..., trials-1} over `row`.
  // Returns false if the program could not compile (callers assert on it).
  bool CheckRow(const std::vector<ExprPtr>& roots, const Row& row, int trials,
                const std::string& context) {
    auto program = ExprProgram::Compile(roots, functions.get(), lineage);
    if (program == nullptr) return false;
    // Everything the compiler accepts must pass the static verifier.
    const VerifyResult vr = ProgramVerifier::Verify(*program);
    EXPECT_TRUE(vr.ok) << context << ": verifier rejected a compiled program ["
                       << vr.rule << "] " << vr.message << "\n"
                       << program->ToString();
    ExprProgramState state;
    program->InitState(&state);
    EXPECT_TRUE(program->Bind(&state, row, &resolver, trials)) << context;
    if (state.bailed()) return true;  // bail = interpreter fallback, valid
    for (int t = -1; t < trials; ++t) {
      if (!program->EvalTrial(&state, row, t)) return true;
      for (size_t r = 0; r < roots.size(); ++r) {
        const Value expect = roots[r]->Eval(row, Ctx(t));
        const Value got = program->RootValue(state, r, t);
        EXPECT_TRUE(BitEqual(expect, got))
            << context << " root " << r << " trial " << t << ": interpreter "
            << Describe(expect) << " vs compiled " << Describe(got) << "\n"
            << roots[r]->ToString() << "\n"
            << program->ToString();
        if (!BitEqual(expect, got)) return true;
      }
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Directed semantics

TEST(ExprProgramTest, ArithmeticMatchesInterpreter) {
  Harness h;
  const Row row = {Value::Int64(7), Value::Int64(2), Value::Double(0.125),
                   Value::Double(0.0), Value::Null()};
  const ExprPtr i7 = Col(0, ValueType::kInt64);
  const ExprPtr i2 = Col(1, ValueType::kInt64);
  const ExprPtr d = Col(2, ValueType::kDouble);
  const ExprPtr zero = Col(3, ValueType::kDouble);
  const ExprPtr null_col = Col(4, ValueType::kDouble);

  std::vector<ExprPtr> roots = {
      // Int64 static output: all-double arithmetic then truncation.
      Bin(Expr::BinaryOp::kAdd, i7, i2, ValueType::kInt64),
      Bin(Expr::BinaryOp::kDiv, i7, i2, ValueType::kInt64),  // 3.5 -> 3
      Bin(Expr::BinaryOp::kDiv, i7, i2, ValueType::kDouble),  // stays 3.5
      Bin(Expr::BinaryOp::kMul, i7, d),
      Bin(Expr::BinaryOp::kDiv, i7, zero),        // x / 0.0 -> NULL
      Bin(Expr::BinaryOp::kMod, i7, i2, ValueType::kInt64),
      Bin(Expr::BinaryOp::kMod, i7, zero, ValueType::kInt64),  // NULL
      Bin(Expr::BinaryOp::kAdd, i7, null_col),    // NULL propagation
      Un(Expr::UnaryOp::kNeg, i7),                // runtime int -> Int64(-7)
      Un(Expr::UnaryOp::kNeg, d),
      Un(Expr::UnaryOp::kNeg, null_col),
      Bin(Expr::BinaryOp::kSub, Un(Expr::UnaryOp::kNeg, i2), d),
  };
  EXPECT_TRUE(h.CheckRow(roots, row, 0, "arith"));
}

TEST(ExprProgramTest, ComparisonAndLogicMatchInterpreter) {
  Harness h;
  const Row row = {Value::Int64(3), Value::Double(3.0), Value::Null(),
                   Value::String("apple"), Value::String("banana"),
                   Value::Int64(0)};
  const ExprPtr i = Col(0, ValueType::kInt64);
  const ExprPtr d = Col(1, ValueType::kDouble);
  const ExprPtr n = Col(2, ValueType::kDouble);
  const ExprPtr sa = Col(3, ValueType::kString);
  const ExprPtr sb = Col(4, ValueType::kString);
  const ExprPtr zero = Col(5, ValueType::kInt64);

  std::vector<ExprPtr> roots;
  for (auto op : {Expr::BinaryOp::kEq, Expr::BinaryOp::kNe, Expr::BinaryOp::kLt,
                  Expr::BinaryOp::kLe, Expr::BinaryOp::kGt,
                  Expr::BinaryOp::kGe}) {
    roots.push_back(Bin(op, i, d, ValueType::kInt64));   // Int64(3) vs 3.0
    roots.push_back(Bin(op, sa, sb, ValueType::kInt64));  // string compare
    roots.push_back(Bin(op, i, n, ValueType::kInt64));    // NULL comparison
  }
  // Three-valued logic over {true, false, NULL} operands, both orders. The
  // interpreter evaluates both sides (no short-circuit), which matters when
  // one side is NULL.
  const std::vector<ExprPtr> bools = {
      Bin(Expr::BinaryOp::kGt, i, zero, ValueType::kInt64),  // true
      Bin(Expr::BinaryOp::kLt, i, zero, ValueType::kInt64),  // false
      Bin(Expr::BinaryOp::kGt, n, zero, ValueType::kInt64),  // NULL
  };
  for (const ExprPtr& a : bools) {
    for (const ExprPtr& b : bools) {
      roots.push_back(Bin(Expr::BinaryOp::kAnd, a, b, ValueType::kInt64));
      roots.push_back(Bin(Expr::BinaryOp::kOr, a, b, ValueType::kInt64));
      roots.push_back(Un(Expr::UnaryOp::kNot, a, ValueType::kInt64));
    }
  }
  EXPECT_TRUE(h.CheckRow(roots, row, 0, "cmp_logic"));
}

TEST(ExprProgramTest, CallsMatchInterpreter) {
  Harness h;
  const Row row = {Value::Double(2.25), Value::Double(-3.0), Value::Null(),
                   Value::Int64(5), Value::String("MixedCase")};
  const ExprPtr x = Col(0, ValueType::kDouble);
  const ExprPtr neg = Col(1, ValueType::kDouble);
  const ExprPtr n = Col(2, ValueType::kDouble);
  const ExprPtr i = Col(3, ValueType::kInt64);
  const ExprPtr s = Col(4, ValueType::kString);

  std::vector<ExprPtr> roots = {
      Call("sqrt", {x}),
      Call("sqrt", {neg}),  // negative -> 0.0 per the builtin
      Call("abs", {neg}),
      Call("abs", {n}),
      Call("pow", {x, LitV(Value::Int64(2))}),
      Call("mod", {i, LitV(Value::Int64(3))}, ValueType::kInt64),
      Call("least", {x, neg, i}),     // preserves the runtime tag
      Call("greatest", {x, neg, n}),  // skips NULLs
      Call("if", {Bin(Expr::BinaryOp::kGt, x, neg, ValueType::kInt64), i, x}),
      Call("if", {n, i, x}),  // NULL condition is falsy, no propagation
      Call("coalesce", {n, i, x}),
      Call("coalesce", {n, n}, ValueType::kDouble),
      // Generic (Value-boxed) calls: string arguments and string results.
      Call("length", {s}, ValueType::kInt64),
      Call("upper", {s}, ValueType::kString),
      Call("lower", {s}, ValueType::kString),
      Call("concat", {s, LitV(Value::String("-suffix"))}, ValueType::kString),
      Call("substr", {s, LitV(Value::Int64(2)), LitV(Value::Int64(4))},
           ValueType::kString),
      // String result feeding a comparison.
      Bin(Expr::BinaryOp::kEq, Call("upper", {s}, ValueType::kString),
          LitV(Value::String("MIXEDCASE")), ValueType::kInt64),
  };
  EXPECT_TRUE(h.CheckRow(roots, row, 0, "calls"));
}

TEST(ExprProgramTest, AggLookupsMatchInterpreterAcrossTrials) {
  Harness h;
  const Row row = {Value::Int64(4), Value::Double(10.0), Value::Int64(9)};
  const ExprPtr key = Col(0, ValueType::kInt64);
  const ExprPtr other_key = Col(2, ValueType::kInt64);
  const ExprPtr d = Col(1, ValueType::kDouble);

  std::vector<ExprPtr> roots = {
      AggRef(0, 1, {key}),
      // Trial-variant comparison: column > aggregate replica.
      Bin(Expr::BinaryOp::kGt, d, AggRef(0, 1, {key}), ValueType::kInt64),
      // Two distinct sites combined; one hits the NULL-producing groups.
      Bin(Expr::BinaryOp::kAdd, AggRef(0, 2, {key}),
          AggRef(1, 1, {other_key})),
      // Same site referenced twice: CSE must still match the interpreter
      // (which probes twice but gets identical values).
      Bin(Expr::BinaryOp::kSub, AggRef(0, 1, {key}), AggRef(0, 1, {key})),
  };
  // 12 trials with covered_trials = 8 exercises the fall-back-to-main branch
  // of LookupTrial inside the batched probe.
  EXPECT_TRUE(h.CheckRow(roots, row, 12, "agg_lookups"));
}

TEST(ExprProgramTest, ColumnLineageMatchesInterpreter) {
  Harness h;
  // Column 1's stored value is stale; its lineage recomputes it from an
  // aggregate lookup keyed by column 0 (the §6.2 lazy-evaluation shape).
  std::vector<ExprPtr> lineage(3);
  lineage[1] = Bin(Expr::BinaryOp::kMul, AggRef(0, 1, {Col(0, ValueType::kInt64)}),
                   LitV(Value::Double(2.0)));
  h.lineage = &lineage;

  const Row row = {Value::Int64(6), Value::Double(123.0), Value::Double(1.5)};
  std::vector<ExprPtr> roots = {
      Col(1, ValueType::kDouble),  // trial -1 reads 123.0, trials use lineage
      Bin(Expr::BinaryOp::kAdd, Col(1, ValueType::kDouble),
          Col(2, ValueType::kDouble)),
      Bin(Expr::BinaryOp::kGt, Col(1, ValueType::kDouble),
          LitV(Value::Double(50.0)), ValueType::kInt64),
  };
  EXPECT_TRUE(h.CheckRow(roots, row, 6, "lineage"));
}

// ---------------------------------------------------------------------------
// Structure: hoisting, probes, folding, refusals

TEST(ExprProgramTest, HoistsTrialInvariantWorkIntoPrologue) {
  Harness h;
  // filter: (a * 2 + sqrt(b)) > agg(key) — everything left of `>` is
  // trial-invariant and must compile into the prologue; only the aggregate
  // read and the comparison may run per trial.
  const ExprPtr invariant_side =
      Bin(Expr::BinaryOp::kAdd,
          Bin(Expr::BinaryOp::kMul, Col(0, ValueType::kDouble),
              LitV(Value::Double(2.0))),
          Call("sqrt", {Col(1, ValueType::kDouble)}));
  const ExprPtr filter =
      Bin(Expr::BinaryOp::kGt, invariant_side,
          AggRef(0, 1, {Col(2, ValueType::kInt64)}), ValueType::kInt64);
  const ExprPtr pure = Bin(Expr::BinaryOp::kAdd, Col(0, ValueType::kDouble),
                           Col(1, ValueType::kDouble));

  auto program =
      ExprProgram::Compile({filter, pure}, h.functions.get(), nullptr);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->num_agg_sites(), 1u);
  EXPECT_GT(program->prologue_size(), 0u);
  // Epilogue: exactly the aggregate read and the comparison.
  EXPECT_EQ(program->epilogue_size(), 2u) << program->ToString();
  EXPECT_FALSE(program->root_trial_invariant(0));
  EXPECT_TRUE(program->root_trial_invariant(1));

  // One Bind = one main lookup + one batched trial probe per site — however
  // many trials and EvalTrial calls follow.
  ExprProgramState state;
  program->InitState(&state);
  const Row row = {Value::Double(4.0), Value::Double(9.0), Value::Int64(3)};
  h.resolver.ResetCounts();
  ASSERT_TRUE(program->Bind(&state, row, &h.resolver, 50));
  EXPECT_EQ(h.resolver.lookup_calls(), 1);
  EXPECT_EQ(h.resolver.batched_calls(), 1);
  EXPECT_EQ(h.resolver.trial_calls(), 0);
  for (int t = -1; t < 50; ++t) {
    ASSERT_TRUE(program->EvalTrial(&state, row, t));
  }
  EXPECT_EQ(h.resolver.lookup_calls(), 1) << "per-trial eval must not probe";
  EXPECT_EQ(h.resolver.batched_calls(), 1);
}

TEST(ExprProgramTest, FoldsConstantSubtrees) {
  Harness h;
  // (1 + 2) * 3 > 4.0 && sqrt(16.0) = 4.0 — fully constant: no instructions
  // at all, the root is a materialized literal.
  const ExprPtr folded = Bin(
      Expr::BinaryOp::kAnd,
      Bin(Expr::BinaryOp::kGt,
          Bin(Expr::BinaryOp::kMul,
              Bin(Expr::BinaryOp::kAdd, LitV(Value::Int64(1)),
                  LitV(Value::Int64(2)), ValueType::kInt64),
              LitV(Value::Int64(3)), ValueType::kInt64),
          LitV(Value::Double(4.0)), ValueType::kInt64),
      Bin(Expr::BinaryOp::kEq, Call("sqrt", {LitV(Value::Double(16.0))}),
          LitV(Value::Double(4.0)), ValueType::kInt64),
      ValueType::kInt64);
  auto program = ExprProgram::Compile({folded}, h.functions.get(), nullptr);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->prologue_size(), 0u) << program->ToString();
  EXPECT_EQ(program->epilogue_size(), 0u);
  ExprProgramState state;
  program->InitState(&state);
  const Row row;
  ASSERT_TRUE(program->Bind(&state, row, nullptr, 0));
  ASSERT_TRUE(program->EvalTrial(&state, row, -1));
  EXPECT_TRUE(BitEqual(program->RootValue(state, 0), Value::Bool(true)));

  // String vs literal-NULL comparison folds to constant NULL instead of
  // refusing the mixed-kind compare.
  const ExprPtr null_cmp =
      Bin(Expr::BinaryOp::kEq, Col(0, ValueType::kString), LitV(Value::Null()),
          ValueType::kInt64);
  auto program2 = ExprProgram::Compile({null_cmp}, h.functions.get(), nullptr);
  ASSERT_NE(program2, nullptr);
  ExprProgramState state2;
  program2->InitState(&state2);
  const Row row2 = {Value::String("x")};
  ASSERT_TRUE(program2->Bind(&state2, row2, nullptr, 0));
  ASSERT_TRUE(program2->EvalTrial(&state2, row2, -1));
  EXPECT_TRUE(program2->RootValue(state2, 0).is_null());
}

TEST(ExprProgramTest, RefusesWhatItCannotProve) {
  Harness h;
  // Statically mixed string/numeric comparison.
  EXPECT_EQ(ExprProgram::Compile(
                {Bin(Expr::BinaryOp::kLt, Col(0, ValueType::kString),
                     Col(1, ValueType::kDouble), ValueType::kInt64)},
                h.functions.get(), nullptr),
            nullptr);
  // Arithmetic over a statically-string operand.
  EXPECT_EQ(ExprProgram::Compile({Bin(Expr::BinaryOp::kAdd,
                                      Col(0, ValueType::kString),
                                      Col(1, ValueType::kDouble))},
                                 h.functions.get(), nullptr),
            nullptr);
  // Unknown function; wrong arity.
  EXPECT_EQ(ExprProgram::Compile({Call("no_such_fn", {LitV(Value::Int64(1))})},
                                 h.functions.get(), nullptr),
            nullptr);
  EXPECT_EQ(ExprProgram::Compile({Call("sqrt", {LitV(Value::Int64(1)),
                                                LitV(Value::Int64(2))})},
                                 h.functions.get(), nullptr),
            nullptr);
  // Trial-variant aggregate key: the batched prologue probe cannot cover it.
  EXPECT_EQ(ExprProgram::Compile(
                {AggRef(0, 1, {AggRef(1, 1, {Col(0, ValueType::kInt64)})})},
                h.functions.get(), nullptr),
            nullptr);
}

TEST(ExprProgramTest, BailsOnRuntimeStringInNumericColumn) {
  Harness h;
  // Statically numeric column holding a string at runtime: the compiled
  // path must refuse the row (bail), never guess.
  const std::vector<ExprPtr> roots = {Bin(Expr::BinaryOp::kAdd,
                                          Col(0, ValueType::kDouble),
                                          LitV(Value::Double(1.0)))};
  auto program = ExprProgram::Compile(roots, h.functions.get(), nullptr);
  ASSERT_NE(program, nullptr);
  ExprProgramState state;
  program->InitState(&state);
  const Row bad = {Value::String("surprise")};
  EXPECT_FALSE(program->Bind(&state, bad, nullptr, 0));
  EXPECT_TRUE(state.bailed());
  // The state recovers on the next Bind of a clean row.
  const Row good = {Value::Double(2.0)};
  ASSERT_TRUE(program->Bind(&state, good, nullptr, 0));
  ASSERT_TRUE(program->EvalTrial(&state, good, -1));
  EXPECT_TRUE(BitEqual(program->RootValue(state, 0), Value::Double(3.0)));
}

TEST(ExprProgramTest, EvalTrialsMatchesPerTrialLoop) {
  Harness h;
  const ExprPtr filter =
      Bin(Expr::BinaryOp::kGt, AggRef(0, 1, {Col(0, ValueType::kInt64)}),
          LitV(Value::Double(10.0)), ValueType::kInt64);
  const ExprPtr arg0 = Bin(Expr::BinaryOp::kMul, Col(1, ValueType::kDouble),
                           AggRef(0, 2, {Col(0, ValueType::kInt64)}));
  const ExprPtr arg1 = Col(1, ValueType::kDouble);
  const std::vector<ExprPtr> roots = {filter, arg0, arg1};
  auto program = ExprProgram::Compile(roots, h.functions.get(), nullptr);
  ASSERT_NE(program, nullptr);

  const int trials = 10;
  for (int64_t k = 0; k < 24; ++k) {
    const Row row = {Value::Int64(k), Value::Double(0.5 * (k % 7))};
    ExprProgramState state;
    program->InitState(&state);
    ASSERT_TRUE(program->Bind(&state, row, &h.resolver, trials));

    std::vector<uint8_t> mask(trials);
    for (int t = 0; t < trials; ++t) mask[t] = t % 3 == 0 ? 0 : 1 + t;
    const std::vector<uint8_t> mask_in = mask;
    ASSERT_TRUE(program->EvalTrials(&state, row, trials, /*pred_root=*/0,
                                    mask.data()));
    std::vector<NumericValue> lanes(trials);
    program->RootLanes(state, 1, trials, lanes.data());
    for (int t = 0; t < trials; ++t) {
      const EvalContext ctx = h.Ctx(t);
      if (mask_in[t] == 0) {
        EXPECT_EQ(mask[t], 0);
        continue;
      }
      const bool pass = filter->Eval(row, ctx).IsTruthy();
      EXPECT_EQ(mask[t], pass ? mask_in[t] : 0) << "row " << k << " trial "
                                                << t;
      if (pass) {
        EXPECT_TRUE(BitEqual(program->RootValue(state, 1, t),
                             arg0->Eval(row, ctx)));
        EXPECT_TRUE(BitEqual(lanes[t].ToValue(), arg0->Eval(row, ctx)));
        EXPECT_TRUE(BitEqual(program->RootValue(state, 2, t),
                             arg1->Eval(row, ctx)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential fuzzing: random well-typed trees, compiled vs interpreter.
// Numeric magnitudes stay moderate by construction so int64 truncation sites
// (static-Int64 arithmetic, kMod) never hit the float-cast-overflow UB —
// the same invariant the binder's type assignment provides in real plans.

class FuzzGen {
 public:
  // `odd_sites` adds what only the lane fuzzer's resolver and lineage
  // cover: string-kinded aggregate sites, numeric sites that can clash,
  // and the lineage column kLineageCol.
  FuzzGen(Rng* rng, bool allow_agg, bool odd_sites = false)
      : rng_(rng), allow_agg_(allow_agg), odd_sites_(odd_sites) {}

  // Columns: 0-3 int64, 4-7 double, 8-9 string, 10 double (uncertain when
  // the program has lineage for it).
  static constexpr int kNumCols = 11;
  static constexpr int kLineageCol = 10;

  Row RandomRow() {
    Row row;
    for (int c = 0; c < kNumCols; ++c) {
      if (rng_->NextBounded(4) == 0) {
        row.push_back(Value::Null());
      } else if (c < 4) {
        row.push_back(
            Value::Int64(static_cast<int64_t>(rng_->NextBounded(41)) - 20));
      } else if (c < 8 || c == kLineageCol) {
        double v = (rng_->NextDouble() - 0.5) * 100.0;
        if (rng_->NextBounded(8) == 0) v = 0.0;
        row.push_back(Value::Double(v));
      } else {
        static const char* kPool[] = {"", "a", "bb", "apple", "zebra"};
        row.push_back(Value::String(kPool[rng_->NextBounded(5)]));
      }
    }
    return row;
  }

  ExprPtr Num(int depth) {
    if (depth <= 0) return NumLeaf();
    switch (rng_->NextBounded(8)) {
      case 0:
        return NumLeaf();
      case 1:
        return Un(Expr::UnaryOp::kNeg, Num(depth - 1));
      case 2: {
        static const Expr::BinaryOp kOps[] = {
            Expr::BinaryOp::kAdd, Expr::BinaryOp::kSub, Expr::BinaryOp::kMul,
            Expr::BinaryOp::kDiv};
        return Bin(kOps[rng_->NextBounded(4)], Num(depth - 1), Num(depth - 1));
      }
      case 3:
        return SmallInt(std::min(depth - 1, 3));
      case 4:
        return NumCall(depth - 1);
      case 5:
        return Bool(depth - 1);
      case 6:
        if (allow_agg_) return AggLeaf();
        return NumLeaf();
      default:
        return Num(depth - 1);
    }
  }

  // Bounded int64-typed subtree (|value| < ~300): the only place the fuzzer
  // assigns a static Int64 output to arithmetic, keeping truncation casts
  // well inside int64 range.
  ExprPtr SmallInt(int depth) {
    if (depth <= 0) {
      if (rng_->NextBounded(6) == 0) return LitV(Value::Null());
      if (rng_->NextBounded(2) == 0) {
        return LitV(
            Value::Int64(static_cast<int64_t>(rng_->NextBounded(19)) - 9));
      }
      return Col(static_cast<int>(rng_->NextBounded(4)), ValueType::kInt64);
    }
    switch (rng_->NextBounded(4)) {
      case 0:
        return Bin(Expr::BinaryOp::kAdd, SmallInt(depth - 1),
                   SmallInt(depth - 1), ValueType::kInt64);
      case 1:
        return Bin(Expr::BinaryOp::kSub, SmallInt(depth - 1),
                   SmallInt(depth - 1), ValueType::kInt64);
      case 2:
        return Bin(Expr::BinaryOp::kMod, SmallInt(depth - 1),
                   SmallInt(depth - 1), ValueType::kInt64);
      default:
        return SmallInt(0);
    }
  }

  ExprPtr Bool(int depth) {
    if (depth <= 0) {
      return Bin(Expr::BinaryOp::kGt, NumLeaf(), NumLeaf(), ValueType::kInt64);
    }
    static const Expr::BinaryOp kCmps[] = {
        Expr::BinaryOp::kEq, Expr::BinaryOp::kNe, Expr::BinaryOp::kLt,
        Expr::BinaryOp::kLe, Expr::BinaryOp::kGt, Expr::BinaryOp::kGe};
    switch (rng_->NextBounded(5)) {
      case 0:
        return Bin(kCmps[rng_->NextBounded(6)], Num(depth - 1), Num(depth - 1),
                   ValueType::kInt64);
      case 1:
        return Bin(kCmps[rng_->NextBounded(6)], Str(depth - 1), Str(depth - 1),
                   ValueType::kInt64);
      case 2:
        return Bin(Expr::BinaryOp::kAnd, Bool(depth - 1), Bool(depth - 1),
                   ValueType::kInt64);
      case 3:
        return Bin(Expr::BinaryOp::kOr, Bool(depth - 1), Bool(depth - 1),
                   ValueType::kInt64);
      default:
        return Un(Expr::UnaryOp::kNot, Bool(depth - 1), ValueType::kInt64);
    }
  }

  ExprPtr Str(int depth) {
    if (depth <= 0 || rng_->NextBounded(3) == 0) {
      switch (rng_->NextBounded(4)) {
        case 0:
          return Col(8, ValueType::kString);
        case 1:
          return Col(9, ValueType::kString);
        case 2: {
          static const char* kPool[] = {"", "a", "bb", "apple", "zebra"};
          return LitV(Value::String(kPool[rng_->NextBounded(5)]));
        }
        default:
          if (odd_sites_ && allow_agg_ && rng_->NextBounded(2) == 0) {
            return AggRef(2, 1, {Col(static_cast<int>(rng_->NextBounded(4)),
                                     ValueType::kInt64)},
                          ValueType::kString);
          }
          // NULL literal: drives the string-vs-NULL constant-fold path.
          return LitV(Value::Null());
      }
    }
    switch (rng_->NextBounded(4)) {
      case 0:
        return Call("upper", {Str(depth - 1)}, ValueType::kString);
      case 1:
        return Call("lower", {Str(depth - 1)}, ValueType::kString);
      case 2:
        return Call("concat", {Str(depth - 1), Str(depth - 1)},
                    ValueType::kString);
      default:
        return Call(
            "substr",
            {Col(8, ValueType::kString),
             LitV(Value::Int64(static_cast<int64_t>(rng_->NextBounded(4)))),
             LitV(Value::Int64(static_cast<int64_t>(rng_->NextBounded(4))))},
            ValueType::kString);
    }
  }

 private:
  ExprPtr NumLeaf() {
    switch (rng_->NextBounded(5)) {
      case 0:
        return LitV(Value::Null());
      case 1:
        return LitV(
            Value::Int64(static_cast<int64_t>(rng_->NextBounded(19)) - 9));
      case 2:
        return LitV(Value::Double((rng_->NextDouble() - 0.5) * 20.0));
      case 3:
        return Col(static_cast<int>(rng_->NextBounded(4)), ValueType::kInt64);
      default:
        if (odd_sites_ && rng_->NextBounded(3) == 0) {
          return Col(kLineageCol, ValueType::kDouble);
        }
        return Col(4 + static_cast<int>(rng_->NextBounded(4)),
                   ValueType::kDouble);
    }
  }

  ExprPtr AggLeaf() {
    const int block = static_cast<int>(
        odd_sites_ && rng_->NextBounded(5) == 0 ? 3 : rng_->NextBounded(2));
    const int col = 1 + static_cast<int>(rng_->NextBounded(2));
    std::vector<ExprPtr> keys;
    keys.push_back(Col(static_cast<int>(rng_->NextBounded(4)),
                       ValueType::kInt64));
    if (rng_->NextBounded(2) == 0) {
      keys.push_back(
          LitV(Value::Int64(static_cast<int64_t>(rng_->NextBounded(5)))));
    }
    return AggRef(block, col, std::move(keys));
  }

  // `length` is excluded: over a NULL-typed literal its static type would be
  // honest, but over the pool it is covered by the directed call test.

  ExprPtr NumCall(int depth) {
    switch (rng_->NextBounded(6)) {
      case 0:
        return Call("sqrt", {Num(depth)});
      case 1:
        return Call("abs", {Num(depth)});
      case 2:
        return Call("least", {Num(depth), Num(depth), Num(depth)});
      case 3:
        return Call("greatest", {Num(depth), Num(depth)});
      case 4:
        return Call("coalesce", {Num(depth), Num(depth)});
      default:
        return Call("if", {Bool(depth), Num(depth), Num(depth)});
    }
  }

  Rng* rng_;
  bool allow_agg_;
  bool odd_sites_;
};

int FuzzIterations(int default_iters) {
  const char* env = std::getenv("IOLAP_FUZZ_ITERS");
  if (env == nullptr) return default_iters;
  const int v = std::atoi(env);
  return v > 0 ? v : default_iters;
}

TEST(ExprProgramFuzzTest, CompiledBitIdenticalToInterpreter) {
  const int iterations = FuzzIterations(250);
  const int trials = 6;
  Rng rng(20160626);  // SIGMOD'16
  Harness h;
  h.resolver = FakeResolver{4};  // half the trials fall back to main
  int compiled = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    FuzzGen gen(&rng, /*allow_agg=*/iter % 3 != 0);
    std::vector<ExprPtr> roots;
    roots.push_back(gen.Bool(4));  // filter-shaped root first
    const size_t extra = 1 + rng.NextBounded(2);
    for (size_t r = 0; r < extra; ++r) roots.push_back(gen.Num(5));

    auto program = ExprProgram::Compile(roots, h.functions.get(), nullptr);
    // The generator only produces constructs the compiler covers.
    ASSERT_NE(program, nullptr) << "iter " << iter;
    // Third oracle (besides the interpreter and the bail flag): the static
    // verifier must accept every compiled program. A verifier-accept that
    // then diverges from the interpreter fails the BitEqual asserts below,
    // so accept ∧ divergence is a hard failure of this test.
    const VerifyResult vr = ProgramVerifier::Verify(*program);
    ASSERT_TRUE(vr.ok) << "iter " << iter
                       << ": verifier rejected a compiled program ["
                       << vr.rule << "] " << vr.message << "\n"
                       << program->ToString();
    ++compiled;
    ExprProgramState state;
    program->InitState(&state);

    for (int r = 0; r < 6; ++r) {
      FuzzGen rowgen(&rng, false);
      const Row row = rowgen.RandomRow();
      ASSERT_TRUE(program->Bind(&state, row, &h.resolver, trials))
          << "iter " << iter;
      bool row_ok = true;
      for (int t = -1; t < trials && row_ok; ++t) {
        ASSERT_TRUE(program->EvalTrial(&state, row, t)) << "iter " << iter;
        for (size_t root = 0; root < roots.size(); ++root) {
          const Value expect = roots[root]->Eval(row, h.Ctx(t));
          const Value got = program->RootValue(state, root, t);
          ASSERT_TRUE(BitEqual(expect, got))
              << "iter " << iter << " root " << root << " trial " << t
              << ": interpreter " << Describe(expect) << " vs compiled "
              << Describe(got) << "\n"
              << roots[root]->ToString() << "\n"
              << program->ToString();
        }
      }

      // The engine's lane entry point, with the bool root as the filter.
      std::vector<uint8_t> mask(trials, 1);
      ASSERT_TRUE(program->EvalTrials(&state, row, trials, 0, mask.data()));
      for (int t = 0; t < trials; ++t) {
        const EvalContext ctx = h.Ctx(t);
        const bool pass = roots[0]->Eval(row, ctx).IsTruthy();
        ASSERT_EQ(mask[t], pass ? 1 : 0) << "iter " << iter << " trial " << t;
        for (size_t a = 1; pass && a < roots.size(); ++a) {
          ASSERT_TRUE(BitEqual(program->RootValue(state, a, t),
                               roots[a]->Eval(row, ctx)))
              << "iter " << iter << " trial " << t;
        }
      }
    }
  }
  EXPECT_EQ(compiled, iterations);
}

// The lane executor against the per-trial oracle: random trees over every
// opcode (kColLineage through a lineage column, kReadAggStr through
// string-kinded sites), NULLs, int64 tags, runtime bails (numeric sites that
// return a string, string sites that return a number) and zero-weight lanes.
// For every surviving lane EvalTrials must reproduce the interpreter at that
// trial bit for bit, zero exactly the lanes whose filter fails, and bail
// exactly when one of the surviving lanes bails on its own.
TEST(ExprProgramFuzzTest, LaneExecutorMatchesPerTrialOracle) {
  const int iterations = FuzzIterations(250);
  const int trials = 7;
  Rng rng(20161231);
  Harness h;
  h.resolver = FakeResolver{5};  // trials 5 and 6 fall back to main
  std::vector<ExprPtr> lineage(FuzzGen::kNumCols);
  lineage[FuzzGen::kLineageCol] =
      Bin(Expr::BinaryOp::kAdd, AggRef(0, 1, {Col(0, ValueType::kInt64)}),
          Col(4, ValueType::kDouble));
  h.lineage = &lineage;
  std::string ops_seen;
  int lane_rows = 0;
  int bailed_rows = 0;
  int zero_lanes = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    FuzzGen gen(&rng, /*allow_agg=*/iter % 4 != 0, /*odd_sites=*/true);
    std::vector<ExprPtr> roots;
    roots.push_back(gen.Bool(4));
    const size_t extra = 1 + rng.NextBounded(2);
    for (size_t r = 0; r < extra; ++r) roots.push_back(gen.Num(5));
    if (rng.NextBounded(2) == 0) roots.push_back(gen.Str(3));
    auto program = ExprProgram::Compile(roots, h.functions.get(), &lineage);
    ASSERT_NE(program, nullptr) << "iter " << iter;
    const VerifyResult vr = ProgramVerifier::Verify(*program);
    ASSERT_TRUE(vr.ok) << "iter " << iter << " [" << vr.rule << "] "
                       << vr.message << "\n"
                       << program->ToString();
    ops_seen += program->ToString();
    ExprProgramState state;
    ExprProgramState single;
    program->InitState(&state);
    program->InitState(&single);

    for (int r = 0; r < 6; ++r) {
      FuzzGen rowgen(&rng, false);
      const Row row = rowgen.RandomRow();
      if (!program->Bind(&state, row, &h.resolver, trials)) continue;
      std::vector<uint8_t> mask(trials);
      for (int t = 0; t < trials; ++t) {
        mask[t] = rng.NextBounded(4) == 0
                      ? 0
                      : static_cast<uint8_t>(1 + rng.NextBounded(3));
        zero_lanes += mask[t] == 0;
      }
      const std::vector<uint8_t> mask_in = mask;
      // Bail oracle: the surviving lanes one at a time.
      bool lane_bails = false;
      ASSERT_TRUE(program->Bind(&single, row, &h.resolver, trials));
      for (int t = 0; t < trials; ++t) {
        if (mask_in[t] == 0 || program->EvalTrial(&single, row, t)) continue;
        lane_bails = true;
        ASSERT_TRUE(program->Bind(&single, row, &h.resolver, trials));
      }
      const bool ok =
          program->EvalTrials(&state, row, trials, /*pred_root=*/0,
                              mask.data());
      ASSERT_EQ(ok, !lane_bails) << "iter " << iter << "\n"
                                 << program->ToString();
      if (!ok) {
        ++bailed_rows;
        continue;
      }
      ++lane_rows;
      for (int t = 0; t < trials; ++t) {
        if (mask_in[t] == 0) {
          ASSERT_EQ(mask[t], 0);
          continue;
        }
        const EvalContext ctx = h.Ctx(t);
        const bool pass = roots[0]->Eval(row, ctx).IsTruthy();
        ASSERT_EQ(mask[t], pass ? mask_in[t] : 0)
            << "iter " << iter << " trial " << t;
        for (size_t root = 0; root < roots.size(); ++root) {
          const Value expect = roots[root]->Eval(row, ctx);
          const Value got = program->RootValue(state, root, t);
          ASSERT_TRUE(BitEqual(expect, got))
              << "iter " << iter << " root " << root << " trial " << t
              << ": interpreter " << Describe(expect) << " vs lanes "
              << Describe(got) << "\n"
              << roots[root]->ToString() << "\n"
              << program->ToString();
        }
      }
      for (size_t root = 1; root < roots.size(); ++root) {
        if (program->root_is_string(root)) continue;
        std::vector<NumericValue> lanes(trials);
        program->RootLanes(state, root, trials, lanes.data());
        for (int t = 0; t < trials; ++t) {
          if (mask[t] == 0) continue;
          ASSERT_TRUE(
              BitEqual(lanes[t].ToValue(), program->RootValue(state, root, t)));
        }
      }

      // The derived main pass equals the plain one over the refreshed row.
      Row refreshed = row;
      refreshed[FuzzGen::kLineageCol] =
          lineage[FuzzGen::kLineageCol]->Eval(row, h.Ctx(-1));
      ASSERT_TRUE(program->Bind(&single, row, &h.resolver, 0));
      if (!program->EvalRefreshed(&single, row)) continue;
      for (size_t root = 0; root < roots.size(); ++root) {
        ASSERT_TRUE(BitEqual(program->RootValue(single, root),
                             roots[root]->Eval(refreshed, h.Ctx(-1))))
            << "iter " << iter << " root " << root << " (derived main)";
      }
    }
  }
  // Every opcode ran, and both outcomes of the bail oracle occurred.
  for (const char* op :
       {"load_num", "load_str", "col_lineage", "neg", "not", "arith", "mod",
        "cmp_num", "cmp_str", "logic", "call_num", "call_generic", "probe_agg",
        "read_agg_num", "read_agg_str"}) {
    EXPECT_NE(ops_seen.find(std::string("  ") + op + " "), std::string::npos)
        << op;
  }
  EXPECT_GT(lane_rows, 0);
  EXPECT_GT(bailed_rows, 0);
  EXPECT_GT(zero_lanes, 0);
}

// ---------------------------------------------------------------------------
// Engine level: compiled execution must be bit-identical to the interpreter
// on the paper's workloads, at every thread count.

struct RunFingerprint {
  std::vector<Table> partial_rows;
  std::vector<std::vector<std::vector<ErrorEstimate>>> estimates;
  uint64_t recomputed_rows = 0;
  int failure_recoveries = 0;
};

void ExpectBitIdentical(const RunFingerprint& a, const RunFingerprint& b,
                        const std::string& context) {
  EXPECT_EQ(a.recomputed_rows, b.recomputed_rows) << context;
  EXPECT_EQ(a.failure_recoveries, b.failure_recoveries) << context;
  ASSERT_EQ(a.partial_rows.size(), b.partial_rows.size()) << context;
  for (size_t p = 0; p < a.partial_rows.size(); ++p) {
    const Table& ta = a.partial_rows[p];
    const Table& tb = b.partial_rows[p];
    ASSERT_EQ(ta.num_rows(), tb.num_rows()) << context << " batch " << p;
    for (size_t r = 0; r < ta.num_rows(); ++r) {
      ASSERT_EQ(ta.row(r).size(), tb.row(r).size()) << context;
      for (size_t c = 0; c < ta.row(r).size(); ++c) {
        EXPECT_TRUE(BitEqual(ta.row(r)[c], tb.row(r)[c]))
            << context << " batch " << p << " row " << r << " col " << c
            << ": " << ta.row(r)[c].ToString() << " vs "
            << tb.row(r)[c].ToString();
      }
    }
    ASSERT_EQ(a.estimates[p].size(), b.estimates[p].size()) << context;
    for (size_t r = 0; r < a.estimates[p].size(); ++r) {
      ASSERT_EQ(a.estimates[p][r].size(), b.estimates[p][r].size()) << context;
      for (size_t k = 0; k < a.estimates[p][r].size(); ++k) {
        EXPECT_EQ(a.estimates[p][r][k].value, b.estimates[p][r][k].value)
            << context;
        EXPECT_EQ(a.estimates[p][r][k].stddev, b.estimates[p][r][k].stddev)
            << context;
        EXPECT_EQ(a.estimates[p][r][k].ci_lo, b.estimates[p][r][k].ci_lo)
            << context;
        EXPECT_EQ(a.estimates[p][r][k].ci_hi, b.estimates[p][r][k].ci_hi)
            << context;
      }
    }
  }
}

TEST(ExprProgramEngineTest, CompileOnOffBitIdenticalOnWorkloads) {
  auto functions = FunctionRegistry::Default();
  RegisterConvivaUdfs(functions.get());

  struct Case {
    std::string name;
    std::shared_ptr<Catalog> catalog;
    std::string sql;
  };
  std::vector<Case> cases;
  for (const BenchQuery& q : TpchQueries()) {
    TpchConfig config;
    auto catalog = MakeTpchCatalog(config.Scaled(0.01), q.streamed_table);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    cases.push_back({"tpch_" + q.id, *catalog, q.sql});
  }
  for (const BenchQuery& q : ConvivaQueries()) {
    ConvivaConfig config;
    auto catalog = MakeConvivaCatalog(config.Scaled(0.01));
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    cases.push_back({"conviva_" + q.id, *catalog, q.sql});
  }
  ASSERT_GT(cases.size(), 4u);

  for (const Case& c : cases) {
    auto run = [&](bool compile, size_t num_threads) {
      EngineOptions options;
      options.num_trials = 12;
      options.num_batches = 4;
      options.slack = 2.0;
      options.seed = 77;
      options.num_threads = num_threads;
      options.compile_expressions = compile;
      Session session(c.catalog.get(), options, functions);
      RunFingerprint fp;
      auto query = session.Sql(c.sql);
      EXPECT_TRUE(query.ok()) << c.name << ": " << query.status();
      if (!query.ok()) return fp;
      Status run_status = (*query)->Run([&](const PartialResult& partial) {
        fp.partial_rows.push_back(partial.rows);
        fp.estimates.push_back(partial.estimates);
        return BatchAction::kContinue;
      });
      EXPECT_TRUE(run_status.ok()) << c.name << ": " << run_status;
      fp.recomputed_rows = (*query)->metrics().TotalRecomputedRows();
      fp.failure_recoveries = (*query)->metrics().TotalFailureRecoveries();
      return fp;
    };

    const RunFingerprint interpreted = run(false, 0);
    ASSERT_EQ(interpreted.partial_rows.size(), 4u) << c.name;
    ExpectBitIdentical(interpreted, run(true, 0), c.name + " compiled t0");
    ExpectBitIdentical(interpreted, run(true, 1), c.name + " compiled t1");
    ExpectBitIdentical(interpreted, run(true, 4), c.name + " compiled t4");
    ExpectBitIdentical(interpreted, run(false, 4), c.name + " interpreted t4");
  }
}

}  // namespace
}  // namespace iolap
