// Micro-benchmarks (google-benchmark) of the engine's hot paths: the
// per-tuple costs the figure benches aggregate. Useful for regression
// tracking and for understanding where per-batch time goes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <deque>

#include "bench_util.h"
#include "bootstrap/poisson_multiplicities.h"
#include "bootstrap/trial_accumulator.h"
#include "core/expr.h"
#include "core/function_registry.h"
#include "exec/expr_program.h"
#include "exec/hash_aggregate.h"
#include "exec/operators.h"
#include "iolap/delta_engine.h"
#include "workloads/experiment_driver.h"

namespace iolap {
namespace {

// Arithmetic + comparison expression evaluation over a row.
void BM_ExprEval(benchmark::State& state) {
  auto functions = FunctionRegistry::Default();
  EvalContext ctx;
  ctx.functions = functions.get();
  // (price * (1 - discount)) > 1000 AND quantity < 24
  auto expr = And(Gt(Mul(Col(0, "price", ValueType::kDouble),
                         Sub(Lit(1.0), Col(1, "discount", ValueType::kDouble))),
                     Lit(1000.0)),
                  Lt(Col(2, "quantity", ValueType::kDouble), Lit(24.0)));
  Row row = {Value::Double(1500), Value::Double(0.05), Value::Double(10)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr->Eval(row, ctx));
  }
}
BENCHMARK(BM_ExprEval);

// The per-trial hot loop of an uncertain row, interpreter vs compiled
// program. Workload shape: a filter referencing an upstream aggregate (the
// trial-variant part) over a trial-invariant arithmetic subexpression, plus
// two aggregate arguments — what the delta engine evaluates per pending row
// per batch. The compiled variant binds once (hoisted prologue + one
// batched probe) and replays only the epilogue per trial.
class TrialResolver final : public AggLookupResolver {
 public:
  Value Lookup(int, int, const Row&) const override {
    return Value::Double(937.5);
  }
  Value LookupTrial(int, int, const Row&, int trial) const override {
    return Value::Double(937.5 + 0.25 * trial);
  }
  void LookupTrials(int, int, const Row&, int num_trials,
                    NumericValue* out) const override {
    for (int t = 0; t < num_trials; ++t) {
      out[t] = NumericValue::Dbl(937.5 + 0.25 * t);
    }
  }
  Interval LookupRange(int, int, const Row&) const override {
    return Interval::Unbounded();
  }
};

std::vector<ExprPtr> HotLoopRoots() {
  auto revenue = Mul(Col(0, "price", ValueType::kDouble),
                     Sub(Lit(1.0), Col(1, "discount", ValueType::kDouble)));
  auto lookup = std::make_shared<AggLookupExpr>(
      0, 1, std::vector<ExprPtr>{Col(3, "key", ValueType::kInt64)},
      ValueType::kDouble, "avg_rev");
  // roots[0] = filter, roots[1..2] = aggregate arguments.
  return {And(Gt(revenue, ExprPtr(lookup)),
              Lt(Col(2, "quantity", ValueType::kDouble), Lit(24.0))),
          revenue, Col(2, "quantity", ValueType::kDouble)};
}

const Row kHotLoopRow = {Value::Double(1500), Value::Double(0.05),
                         Value::Double(10), Value::Int64(7)};

void BM_ExprProgramInterpreter(benchmark::State& state) {
  const int trials = static_cast<int>(state.range(0));
  auto functions = FunctionRegistry::Default();
  TrialResolver resolver;
  EvalContext ctx;
  ctx.functions = functions.get();
  ctx.resolver = &resolver;
  const std::vector<ExprPtr> roots = HotLoopRoots();
  for (auto _ : state) {
    for (int t = 0; t < trials; ++t) {
      ctx.trial = t;
      if (roots[0]->Eval(kHotLoopRow, ctx).IsTruthy()) {
        benchmark::DoNotOptimize(roots[1]->Eval(kHotLoopRow, ctx));
        benchmark::DoNotOptimize(roots[2]->Eval(kHotLoopRow, ctx));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * trials);
}
BENCHMARK(BM_ExprProgramInterpreter)->Arg(20)->Arg(100);

void BM_ExprProgramCompiled(benchmark::State& state) {
  const int trials = static_cast<int>(state.range(0));
  auto functions = FunctionRegistry::Default();
  TrialResolver resolver;
  const std::vector<ExprPtr> roots = HotLoopRoots();
  auto program = ExprProgram::Compile(roots, functions.get(), nullptr);
  if (program == nullptr) {
    state.SkipWithError("hot-loop roots did not compile");
    return;
  }
  ExprProgramState prog_state;
  program->InitState(&prog_state);
  std::vector<uint8_t> mask(trials);
  std::vector<NumericValue> values(static_cast<size_t>(trials) * 2);
  for (auto _ : state) {
    // What the engine does per pending row: bind, one lane pass over the
    // trials, then read the two argument roots' lanes.
    program->Bind(&prog_state, kHotLoopRow, &resolver, trials);
    std::fill(mask.begin(), mask.end(), 1);
    benchmark::DoNotOptimize(program->EvalTrials(
        &prog_state, kHotLoopRow, trials, /*pred_root=*/0, mask.data()));
    program->RootLanes(prog_state, 1, trials, values.data());
    program->RootLanes(prog_state, 2, trials, values.data() + trials);
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(state.iterations() * trials);
}
BENCHMARK(BM_ExprProgramCompiled)->Arg(20)->Arg(100);

// The §5 classification check: interval comparison against a variation
// range — the per-tuple cost of tuple-uncertainty partitioning.
void BM_ClassifyPredicate(benchmark::State& state) {
  class FixedResolver final : public AggLookupResolver {
   public:
    Value Lookup(int, int, const Row&) const override {
      return Value::Double(37.0);
    }
    Value LookupTrial(int, int, const Row&, int) const override {
      return Value::Double(37.0);
    }
    Interval LookupRange(int, int, const Row&) const override {
      return Interval(21.1, 53.9);
    }
  };
  static FixedResolver resolver;
  auto functions = FunctionRegistry::Default();
  EvalContext ctx;
  ctx.functions = functions.get();
  ctx.resolver = &resolver;
  auto lookup = std::make_shared<AggLookupExpr>(0, 0, std::vector<ExprPtr>{},
                                                ValueType::kDouble, "avg");
  auto pred = Gt(Col(0, "buffer_time", ValueType::kDouble), ExprPtr(lookup));
  Row row = {Value::Double(58.0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClassifyPredicate(*pred, row, ctx));
  }
}
BENCHMARK(BM_ClassifyPredicate);

// Deterministic Poisson(1) bootstrap weights for one row across trials,
// packed once per streamed row as the engine does.
void BM_PoissonWeights(benchmark::State& state) {
  const int trials = static_cast<int>(state.range(0));
  BootstrapWeights weights(42, trials);
  std::vector<uint8_t> packed(trials);
  uint64_t uid = 0;
  for (auto _ : state) {
    weights.Fill(uid, packed.data());
    benchmark::DoNotOptimize(packed.data());
    benchmark::ClobberMemory();
    ++uid;
  }
  state.SetItemsProcessed(state.iterations() * trials);
}
BENCHMARK(BM_PoissonWeights)->Arg(20)->Arg(60)->Arg(100);

// Folding one tuple into a sketch across all bootstrap trials (the main
// replica plus one range fold over packed uint8 Poisson weights): the
// dominant per-tuple cost of an online AGGREGATE.
void BM_TrialAccumulate(benchmark::State& state) {
  const int trials = static_cast<int>(state.range(0));
  auto fn = MakeBuiltinAggFunction(AggKind::kAvg);
  TrialAccumulatorSet acc(*fn, trials);
  std::vector<uint8_t> weights(trials);
  BootstrapWeights(42, trials).Fill(7, weights.data());
  const Value v = Value::Double(3.25);
  for (auto _ : state) {
    acc.AddMainOnly(v, 1.0);
    acc.AddTrials(v, 1.0, weights.data(), 0, trials);
  }
  state.SetItemsProcessed(state.iterations() * (trials + 1));
}
BENCHMARK(BM_TrialAccumulate)->Arg(0)->Arg(20)->Arg(100);

// Copy of one sketch cell (one AVG over one group with all its trial
// replicas): what the first touch of a frozen cell pays per aggregate.
void BM_SketchClone(benchmark::State& state) {
  const int trials = static_cast<int>(state.range(0));
  auto fn = MakeBuiltinAggFunction(AggKind::kAvg);
  TrialAccumulatorSet acc(*fn, trials);
  std::vector<uint8_t> weights(trials);
  BootstrapWeights(42, trials).Fill(7, weights.data());
  acc.AddMainOnly(Value::Double(3.25), 1.0);
  acc.AddTrials(Value::Double(3.25), 1.0, weights.data(), 0, trials);
  for (auto _ : state) {
    TrialAccumulatorSet copy = acc.Clone();
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_SketchClone)->Arg(100);

// One batch's checkpoint of a 4096-group, 60-trial AVG sketch with Arg% of
// the groups touched since the previous capture: the copy-on-write clones
// of the touched cells, Capture (hashing the reopened cells, one pointer
// per group), ChecksumCheckpoint, and eviction from an 8-entry ring.
void BM_Checkpoint(benchmark::State& state) {
  constexpr int kGroups = 4096;
  constexpr int kTrials = 60;
  const int touched = std::max(1, kGroups * static_cast<int>(state.range(0)) / 100);
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{MakeBuiltinAggFunction(AggKind::kAvg),
                          Col(0, "x", ValueType::kDouble), "a"});
  GroupedAggregateState sketch(&specs, kTrials);
  std::vector<uint8_t> weights(kTrials);
  BootstrapWeights(42, kTrials).Fill(7, weights.data());
  std::vector<Row> keys;
  for (int g = 0; g < kGroups; ++g) keys.push_back({Value::Int64(g)});
  const auto touch = [&](int g, int batch) {
    auto& cells = sketch.GetOrCreate(keys[g], batch);
    cells.last_touched = batch;
    cells.aggs[0].AddMainOnly(Value::Double(g), 1.0);
    cells.aggs[0].AddTrials(Value::Double(g), 1.0, weights.data(), 0, kTrials);
  };
  for (int g = 0; g < kGroups; ++g) touch(g, 0);
  std::deque<BlockExecutor::Checkpoint> ring;
  int batch = 0;
  int next = 0;
  for (auto _ : state) {
    ++batch;
    for (int i = 0; i < touched; ++i) {
      touch(next, batch);
      next = (next + 1) % kGroups;
    }
    BlockExecutor::Checkpoint cp;
    cp.batch = batch;
    cp.sketch = sketch.Capture();
    cp.checksum = BlockExecutor::ChecksumCheckpoint(cp);
    ring.push_back(std::move(cp));
    if (ring.size() > 8) ring.pop_front();
    benchmark::DoNotOptimize(ring.back().checksum);
  }
  state.SetItemsProcessed(state.iterations() * kGroups);
}
BENCHMARK(BM_Checkpoint)->Arg(1)->Arg(15)->Arg(100);

// Incremental hash-join probe (dimension-cache lookup).
void BM_JoinProbe(benchmark::State& state) {
  JoinStep step({0}, {0}, /*input_grows=*/false, /*prefix_grows=*/true);
  RowBatch dim;
  for (int i = 0; i < 1000; ++i) {
    ExecRow row;
    row.values = {Value::Int64(i), Value::String("payload")};
    dim.push_back(row);
  }
  RowBatch out;
  step.ProcessBatch(DeltaView(), DeltaView(dim), &out);
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(step.ProbeCount({Value::Int64(key % 1000)}));
    ++key;
  }
}
BENCHMARK(BM_JoinProbe);

// Group lookup + accumulate in the grouped sketch.
void BM_GroupedAggregate(benchmark::State& state) {
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{MakeBuiltinAggFunction(AggKind::kSum),
                          Col(0, "x", ValueType::kDouble), "s"});
  GroupedAggregateState groups(&specs, /*num_trials=*/20);
  const std::vector<uint8_t> weights(20, 1);
  int64_t g = 0;
  for (auto _ : state) {
    auto& cells = groups.GetOrCreate({Value::Int64(g % 64)}, 0);
    cells.aggs[0].AddMainOnly(Value::Double(1.5), 1.0);
    cells.aggs[0].AddTrials(Value::Double(1.5), 1.0, weights.data(), 0, 20);
    ++g;
  }
}
BENCHMARK(BM_GroupedAggregate);

// End-to-end per-batch engine cost under intra-batch parallelism: each
// iteration runs a full incremental TPC-H query (a nested one, so the
// per-trial re-evaluation of the non-deterministic set dominates) with
// EngineOptions::num_threads = Arg. Results are bit-identical across
// thread counts; only wall time changes. The per_batch_ms counter is the
// engine's own per-batch wall clock and cpu_over_wall its measured
// parallelism (≈1 inline, → num_threads when the batch scales).
void BM_EngineBatch(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const std::vector<BenchQuery> queries = TpchQueries();
  BenchQuery query = queries.front();
  for (const BenchQuery& q : queries) {
    if (q.nested) {
      query = q;
      break;
    }
  }
  auto catalog = TpchCatalogStreaming(query.streamed_table);
  if (!catalog.ok()) {
    state.SkipWithError(catalog.status().ToString().c_str());
    return;
  }
  EngineOptions options = BenchOptions(ExecutionMode::kIolap);
  options.num_threads = threads;
  double wall = 0.0;
  double cpu = 0.0;
  size_t batches = 0;
  for (auto _ : state) {
    auto outcome = RunBenchQuery(*catalog, query, options);
    if (!outcome.ok()) {
      state.SkipWithError(outcome.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(outcome->final_result.rows.num_rows());
    wall += outcome->metrics.TotalLatencySec();
    cpu += outcome->metrics.TotalCpuSec();
    batches += outcome->metrics.batches.size();
  }
  if (batches > 0) {
    state.counters["per_batch_ms"] = 1e3 * wall / static_cast<double>(batches);
    state.counters["cpu_over_wall"] = wall > 0.0 ? cpu / wall : 0.0;
  }
}
BENCHMARK(BM_EngineBatch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Console output as usual, plus every run appended to BENCH_micro.json in
// the uniform schema (per-iteration seconds; rows_per_sec from
// SetItemsProcessed where the bench declares an item count).
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  // OO_Tabular (not OO_Defaults): the default forces ANSI color even when
  // stdout is redirected into bench_results/*.txt.
  explicit JsonTeeReporter(bench::JsonWriter* json)
      : ConsoleReporter(OO_Tabular), json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      double rows_per_sec = 0.0;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) rows_per_sec = it->second;
      json_->Add(run.benchmark_name(), run.real_accumulated_time / iters,
                 run.cpu_accumulated_time / iters, rows_per_sec,
                 static_cast<size_t>(run.threads));
    }
  }

 private:
  bench::JsonWriter* json_;
};

}  // namespace
}  // namespace iolap

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  iolap::bench::JsonWriter json("BENCH_micro.json");
  iolap::JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.Flush() ? 0 : 1;
}
