// iolap_perfbench: the iOLAP benchmark program.
//
// Runs one named query mix through the public Session API as a closed
// loop: one client, one thread, num_threads = 0, one query at a time in a
// fixed order. A pass runs every query of the mix once in baseline mode and
// once in iOLAP mode over one seeded instance (generated catalogs plus an
// engine seed); each pass draws a fresh instance, in a process of its own,
// because the cost of one instance is heavy-tailed (a recovery storm can
// make one query 20x slower). Timings are per-query medians over the
// passes, summed over the mix.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs every instance
// untraced, then traced, then with the analytic error method, and reports
// the per-layer metrics, derived from spans and counters this file records
// around its own calls into each module. See perfbench/README.md.
//
//   iolap_perfbench --workload spja --seed 1 --seconds 30 --trace 0
//
// Prints a report and, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/reference.h"
#include "iolap/session.h"
#include "sql/binder.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

namespace iolap {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::vector<std::string> queries;
  int trials = 0;
  double slack = 0.0;
};

// Dataset scale relative to the generators' defaults: 15k lineorder rows and
// 20k sessions per instance, small enough for many instances per run.
constexpr double kScale = 0.25;
constexpr size_t kBatches = 25;
// Instances a run measures even when they overrun --seconds: enough that a
// per-query median survives a recovery storm in a third of them.
constexpr size_t kMinPasses = 7;
// The same for traced runs, which run each instance three times; their
// per-layer counters are medians over exactly these first instances.
constexpr size_t kMinTracedPasses = 3;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // Flat SPJA queries: no aggregate feeds a predicate, so nothing is
      // pending and nothing rolls back. Per-batch work is row x trial
      // folding, join probes and expression programs.
      {"spja", {"q1", "q3", "q5", "q6", "q7", "c3", "c5", "c11", "c12"}, 100,
       2.0},
      // Nested aggregates: every query keeps a non-deterministic set, join
      // caches and per-batch checkpoints.
      {"nested",
       {"q11", "q17", "q18", "q20", "q22", "c1", "c2", "c4", "c6", "c7", "c8",
        "c9", "c10"},
       60,
       2.0},
      // Tight slack: variation-range integrity fails and the controller
      // restores checkpoints and replays batches.
      {"recovery", {"q17", "q20", "q22", "c10"}, 60, 1.0},
  };
  return workloads;
}

// Every query id any workload runs, in first-appearance order: the fixed
// set of iolap.run_s.<qid> per-layer metrics.
std::vector<std::string> AllQueryIds() {
  std::vector<std::string> ids;
  for (const Workload& w : Workloads()) {
    for (const std::string& id : w.queries) {
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
  }
  return ids;
}

struct QuerySpec {
  BenchQuery query;
  bool conviva = false;
};

Result<QuerySpec> ResolveQuery(const std::string& id) {
  QuerySpec spec;
  spec.conviva = !id.empty() && id[0] == 'c';
  spec.query = spec.conviva ? FindConvivaQuery(id) : FindTpchQuery(id);
  if (spec.query.sql.empty()) {
    return Status::NotFound("unknown benchmark query " + id);
  }
  return spec;
}

// Everything one instance's inputs depend on, derived from the workload,
// the --seed argument and the instance index alone (no environment
// variables).
struct Config {
  int instance = 0;
  TpchConfig tpch;
  ConvivaConfig conviva;
  EngineOptions iolap;
  EngineOptions baseline;
};

Config MakeConfig(const Workload& workload, uint64_t seed, int instance) {
  auto derive = [&](uint64_t stream) {
    return SplitMix64(SplitMix64(seed ^ stream) + static_cast<uint64_t>(instance));
  };
  Config config;
  config.instance = instance;
  config.tpch = TpchConfig{}.Scaled(kScale);
  config.tpch.seed = derive(0x7470636800000001ULL);
  config.conviva = ConvivaConfig{}.Scaled(kScale);
  config.conviva.seed = derive(0x636f6e7600000002ULL);
  EngineOptions options;
  options.mode = ExecutionMode::kIolap;
  options.error_method = ErrorMethod::kBootstrap;
  options.num_trials = workload.trials;
  options.slack = workload.slack;
  options.num_batches = kBatches;
  options.seed = derive(0x656e67696e000003ULL);
  options.num_threads = 0;
  config.iolap = options;
  config.baseline = options;
  config.baseline.mode = ExecutionMode::kBaseline;
  return config;
}

std::string SeedsOf(const Config& config) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "tpch_seed=%llu conviva_seed=%llu engine_seed=%llu",
                static_cast<unsigned long long>(config.tpch.seed),
                static_cast<unsigned long long>(config.conviva.seed),
                static_cast<unsigned long long>(config.iolap.seed));
  return buf;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out as JSON lines at the end of a traced
// run. A disabled Tracer records nothing.

class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }

  // Records a finished span; returns its id (-1 when disabled).
  int Add(const std::string& name, const std::string& trace, int parent,
          Clock::time_point start, Clock::time_point end,
          std::string attrs = "") {
    if (!enabled_) return -1;
    spans_.push_back({name, trace, parent, Micros(start), Micros(end),
                      std::move(attrs)});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Opens a span whose end is set by Close.
  int Open(const std::string& name, const std::string& trace, int parent) {
    const Clock::time_point now = Clock::now();
    return Add(name, trace, parent, now, now);
  }
  void Close(int id) {
    if (id >= 0) spans_[id].end_us = Micros(Clock::now());
  }

  // Appends the spans to `path` with ids offset by `id_base`, so the spans
  // of every instance process share one id space.
  bool Append(const std::string& path, int id_base) const {
    FILE* out = std::fopen(path.c_str(), "a");
    if (out == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                   "\"trace\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                   "\"attrs\": {%s}}\n",
                   id_base + i, s.parent < 0 ? -1 : id_base + s.parent,
                   s.name.c_str(), s.trace.c_str(), s.start_us, s.end_us,
                   s.attrs.c_str());
    }
    return std::fclose(out) == 0;
  }

  int size() const { return static_cast<int>(spans_.size()); }

 private:
  struct Span {
    std::string name;
    std::string trace;
    int parent;
    double start_us;
    double end_us;
    std::string attrs;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Inputs

struct Inputs {
  std::map<std::string, std::shared_ptr<Catalog>> tpch;  // by streamed table
  std::shared_ptr<Catalog> conviva;
  std::shared_ptr<FunctionRegistry> functions;
  double generate_s = 0.0;  // catalog generation only
  double setup_s = 0.0;     // generation plus function registration

  const Catalog& CatalogFor(const QuerySpec& spec) const {
    return spec.conviva ? *conviva : *tpch.at(spec.query.streamed_table);
  }
};

Result<Inputs> Generate(const std::vector<QuerySpec>& specs,
                        const Config& config, Tracer* tracer,
                        const std::string& trace) {
  Inputs inputs;
  const int parent = tracer->Open("setup", trace, -1);
  const Clock::time_point start = Clock::now();
  for (const QuerySpec& spec : specs) {
    const Clock::time_point t0 = Clock::now();
    if (spec.conviva) {
      if (inputs.conviva != nullptr) continue;
      IOLAP_ASSIGN_OR_RETURN(inputs.conviva, MakeConvivaCatalog(config.conviva));
      tracer->Add("generate", trace, parent, t0, Clock::now(),
                  "\"catalog\": \"conviva\"");
    } else {
      const std::string& table = spec.query.streamed_table;
      if (inputs.tpch.count(table) > 0) continue;
      IOLAP_ASSIGN_OR_RETURN(inputs.tpch[table],
                             MakeTpchCatalog(config.tpch, table));
      tracer->Add("generate", trace, parent, t0, Clock::now(),
                  "\"catalog\": \"tpch/" + table + "\"");
    }
  }
  const Clock::time_point generated = Clock::now();
  inputs.functions = FunctionRegistry::Default();
  RegisterConvivaUdfs(inputs.functions.get());
  const Clock::time_point end = Clock::now();
  tracer->Add("register_functions", trace, parent, generated, end);
  tracer->Close(parent);
  inputs.generate_s = Since(start, generated);
  inputs.setup_s = Since(start, end);
  return inputs;
}

// ---------------------------------------------------------------------------
// One query run (one operation)

struct RunRecord {
  Status status;
  double bind_s = 0.0;  // traced runs only (untraced runs call Session::Sql)
  double init_s = 0.0;  // traced runs only
  double first_s = 0.0;
  double t10_s = 0.0;
  double full_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  // Time before each observer callback: from the start of Run() (first
  // batch) or from the end of the previous callback.
  std::vector<double> intervals;
  QueryMetrics metrics;
  Table final_rows;
  QueryPlan plan;
  std::vector<std::vector<uint64_t>> layout;
  // Sampled in the observer when counters are requested.
  size_t pending_peak = 0;
  size_t checkpoint_peak_bytes = 0;
  // First partial with fraction_processed >= 0.10 (when captured).
  std::optional<PartialResult> partial10;
};

struct RunOptions {
  bool sample_counters = false;
  bool capture_partial = false;
};

RunRecord RunIolap(const QuerySpec& spec, const Inputs& inputs,
                   const EngineOptions& options, const RunOptions& run_options,
                   Tracer* tracer, const std::string& trace, int parent) {
  RunRecord rec;
  rec.intervals.reserve(kBatches);
  const Catalog& catalog = inputs.CatalogFor(spec);
  Session session(&catalog, options, inputs.functions);

  const Clock::time_point t_sql = Clock::now();
  std::unique_ptr<IncrementalQuery> query;
  if (tracer->enabled()) {
    // Session::Sql is BindSql followed by FromPlan; split here so bind and
    // Init get their own spans.
    Result<QueryPlan> plan = BindSql(spec.query.sql, catalog, inputs.functions);
    const Clock::time_point t_bound = Clock::now();
    tracer->Add("bind", trace, parent, t_sql, t_bound);
    rec.bind_s = Since(t_sql, t_bound);
    if (!plan.ok()) {
      rec.status = plan.status();
      return rec;
    }
    auto compiled = session.FromPlan(std::move(*plan));
    const Clock::time_point t_init = Clock::now();
    tracer->Add("init", trace, parent, t_bound, t_init);
    rec.init_s = Since(t_bound, t_init);
    if (!compiled.ok()) {
      rec.status = compiled.status();
      return rec;
    }
    query = std::move(*compiled);
  } else {
    auto compiled = session.Sql(spec.query.sql);
    if (!compiled.ok()) {
      rec.status = compiled.status();
      return rec;
    }
    query = std::move(*compiled);
  }

  QueryController& controller = query->controller();
  const int run_span = tracer->Open("run", trace, parent);
  const double cpu_start = CpuSeconds();
  const Clock::time_point t_run = Clock::now();
  Clock::time_point prev = t_run;
  bool have_first = false;
  bool have_t10 = false;
  rec.status = query->Run([&](const PartialResult& partial) {
    const Clock::time_point now = Clock::now();
    rec.intervals.push_back(Since(prev, now));
    if (!have_first) {
      have_first = true;
      rec.first_s = Since(t_sql, now);
    }
    if (!have_t10 && partial.fraction_processed >= 0.10) {
      have_t10 = true;
      rec.t10_s = Since(t_sql, now);
      if (run_options.capture_partial) rec.partial10 = partial;
    }
    if (run_options.sample_counters) {
      const size_t pending = controller.PendingCount();
      const size_t ring = controller.CheckpointRingBytes();
      rec.pending_peak = std::max(rec.pending_peak, pending);
      rec.checkpoint_peak_bytes = std::max(rec.checkpoint_peak_bytes, ring);
      if (tracer->enabled()) {
        const BatchMetrics& bm = controller.metrics().batches.back();
        char attrs[256];
        std::snprintf(attrs, sizeof(attrs),
                      "\"batch\": %d, \"fraction\": %.6f, \"engine_s\": %.9f, "
                      "\"pending\": %zu, \"checkpoint_bytes\": %zu, "
                      "\"recoveries\": %d",
                      partial.batch, partial.fraction_processed,
                      bm.latency_sec, pending, ring, bm.failure_recoveries);
        tracer->Add("batch", trace, run_span, prev, now, attrs);
      }
    }
    prev = Clock::now();
    return BatchAction::kContinue;
  });
  const Clock::time_point t_end = Clock::now();
  rec.cpu_s = CpuSeconds() - cpu_start;
  tracer->Close(run_span);
  rec.run_s = Since(t_run, t_end);
  rec.full_s = Since(t_sql, t_end);
  rec.metrics = query->metrics();
  rec.final_rows = query->last_result().rows;
  rec.plan = query->plan();
  rec.layout = controller.layout().batches;
  return rec;
}

struct BaselineRecord {
  Status status;
  double seconds = 0.0;
  Table rows;
};

BaselineRecord RunBaseline(const QuerySpec& spec, const Inputs& inputs,
                           const EngineOptions& options, Tracer* tracer,
                           const std::string& trace, int parent) {
  BaselineRecord rec;
  Session session(&inputs.CatalogFor(spec), options, inputs.functions);
  const Clock::time_point start = Clock::now();
  auto query = session.Sql(spec.query.sql);
  if (query.ok()) rec.status = (*query)->Run();
  const Clock::time_point end = Clock::now();
  tracer->Add("baseline", trace, parent, start, end);
  rec.seconds = Since(start, end);
  if (!query.ok()) {
    rec.status = query.status();
  } else if (rec.status.ok()) {
    rec.rows = (*query)->last_result().rows;
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Correctness

// Relative tolerance of the engine's differential tests (ExpectTablesEqual
// in tests/engine_test.cc).
constexpr double kTol = 1e-7;

// Empty when the tables agree, otherwise the first difference.
std::string CompareTables(const Table& actual, const Table& expected) {
  if (actual.num_rows() != expected.num_rows()) {
    return "row count " + std::to_string(actual.num_rows()) + " vs " +
           std::to_string(expected.num_rows());
  }
  for (size_t r = 0; r < actual.num_rows(); ++r) {
    const Row& a_row = actual.row(r);
    const Row& e_row = expected.row(r);
    if (a_row.size() != e_row.size()) {
      return "row " + std::to_string(r) + " width differs";
    }
    for (size_t c = 0; c < a_row.size(); ++c) {
      const Value& a = a_row[c];
      const Value& e = e_row[c];
      bool same = false;
      if (a.is_numeric() && e.is_numeric()) {
        const double ev = e.AsDouble();
        same = std::fabs(a.AsDouble() - ev) <=
               kTol * std::max(1.0, std::fabs(ev));
      } else {
        same = a.Equals(e);
      }
      if (!same) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": " + a.ToString() + " vs " + e.ToString();
      }
    }
  }
  return "";
}

// Q(D_i, m_i) for the accumulated sample D_i through batch `last_batch`.
Result<Table> ReferenceAt(const RunRecord& rec, const Catalog& catalog,
                          const QuerySpec& spec, int last_batch) {
  IOLAP_ASSIGN_OR_RETURN(const TableEntry* entry,
                         catalog.Find(spec.query.streamed_table));
  const Table& streamed = *entry->table;
  std::vector<Row> sample;
  for (int b = 0; b <= last_batch; ++b) {
    for (uint64_t id : rec.layout[b]) sample.push_back(streamed.row(id));
  }
  const double scale =
      sample.empty() ? 1.0
                     : static_cast<double>(streamed.num_rows()) / sample.size();
  return EvaluateReference(rec.plan, catalog, sample, scale);
}

// FNV-1a over the exact bits of a result table.
uint64_t TableDigest(const Table& table) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const Row& row : table.rows()) {
    for (const Value& v : row) {
      const auto type = static_cast<uint8_t>(v.type());
      mix(&type, 1);
      if (v.type() == ValueType::kInt64) {
        const int64_t x = v.int64();
        mix(&x, sizeof(x));
      } else if (v.type() == ValueType::kDouble) {
        const double x = v.dbl();
        mix(&x, sizeof(x));
      } else if (v.type() == ValueType::kString) {
        mix(v.str().data(), v.str().size());
      }
    }
    mix("\n", 1);
  }
  return h;
}

// The values of one query run that must repeat exactly on every run of one
// build.
struct Digest {
  uint64_t rows = 0;
  uint64_t recomputed = 0;
  size_t pending_peak = 0;
  int recoveries = 0;
  int frozen_replays = 0;
  int full_restarts = 0;
  int programs_compiled = 0;

  static Digest Of(const RunRecord& rec) {
    Digest d;
    d.rows = TableDigest(rec.final_rows);
    d.recomputed = rec.metrics.TotalRecomputedRows();
    d.pending_peak = rec.pending_peak;
    d.recoveries = rec.metrics.TotalFailureRecoveries();
    d.frozen_replays = rec.metrics.TotalFrozenReplayBatches();
    d.full_restarts = rec.metrics.TotalFullRestarts();
    d.programs_compiled = rec.metrics.programs_compiled;
    return d;
  }

  // pending_peak is compared only when both runs sampled it.
  bool Matches(const Digest& o, bool compare_pending) const {
    return rows == o.rows && recomputed == o.recomputed &&
           (!compare_pending || pending_peak == o.pending_peak) &&
           recoveries == o.recoveries && frozen_replays == o.frozen_replays &&
           full_restarts == o.full_restarts &&
           programs_compiled == o.programs_compiled;
  }

  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "rows=%016llx recomputed=%llu pending_peak=%zu "
                  "recoveries=%d frozen_replays=%d full_restarts=%d "
                  "programs_compiled=%d",
                  static_cast<unsigned long long>(rows),
                  static_cast<unsigned long long>(recomputed), pending_peak,
                  recoveries, frozen_replays, full_restarts, programs_compiled);
    return buf;
  }
};

// Counts operations and failures. Each query run, baseline or iOLAP, is one
// operation.
struct Checker {
  long attempted = 0;
  long failed = 0;

  void Fail(const std::string& what) {
    ++failed;
    std::printf("FAILED %s\n", what.c_str());
  }

  // True when `status` is OK and `rows` match `expected`.
  bool Check(const std::string& what, const Status& status, const Table& rows,
             const Table& expected) {
    ++attempted;
    if (!status.ok()) {
      Fail(what + ": " + status.ToString());
      return false;
    }
    const std::string diff = CompareTables(rows, expected);
    if (!diff.empty()) {
      Fail(what + ": " + diff);
      return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Passes

// Nearest-rank percentile of sorted samples (p in (0, 100]); 0 when empty.
double Percentile(const std::vector<double>& sorted, double p) {
  const size_t n = sorted.size();
  if (n == 0) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

// The highest whole percentile with at least 10 samples beyond it.
int TailPercentile(size_t n) {
  for (int p = 99; p > 50; --p) {
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (n >= rank + 10) return p;
  }
  return 50;
}

// What one query run contributes to the metrics.
struct QueryTimes {
  double first_s = 0.0;
  double t10_s = 0.0;
  double full_s = 0.0;
  double baseline_s = 0.0;
  double bind_s = 0.0;
  double init_s = 0.0;
  double first_batch_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  double engine_s = 0.0;     // sum of BatchMetrics::latency_sec
  double callbacks_s = 0.0;  // sum of callback intervals
  std::vector<double> intervals;
  // Per-layer counters; names ending in "_peak" or "_max" combine over the
  // mix as maxima, the others as sums.
  std::map<std::string, double> counters;

  std::vector<double*> Scalars() {
    return {&first_s, &t10_s,       &full_s, &baseline_s,
            &bind_s,  &init_s,      &first_batch_s,
            &run_s,   &cpu_s,       &engine_s, &callbacks_s};
  }
};

std::map<std::string, double> CountersOf(const RunRecord& rec, int trials) {
  const QueryMetrics& m = rec.metrics;
  double input = 0, folded = 0, degrade = 0;
  for (const BatchMetrics& bm : m.batches) {
    input += bm.input_rows;
    folded += bm.input_rows + bm.recomputed_rows;
    degrade = std::max<double>(degrade, bm.degrade_level);
  }
  return {
      {"input", input},
      {"recomputed", static_cast<double>(m.TotalRecomputedRows())},
      {"trial_folds", folded * trials},
      {"pending_peak", static_cast<double>(rec.pending_peak)},
      {"checkpoint_peak", static_cast<double>(rec.checkpoint_peak_bytes)},
      {"join_peak", static_cast<double>(m.PeakJoinStateBytes())},
      {"other_peak", static_cast<double>(m.PeakOtherStateBytes())},
      {"batches", static_cast<double>(m.batches.size())},
      {"recoveries", static_cast<double>(m.TotalFailureRecoveries())},
      {"full_restarts", static_cast<double>(m.TotalFullRestarts())},
      {"frozen", static_cast<double>(m.TotalFrozenReplayBatches())},
      {"depth_max", static_cast<double>(m.MaxRollbackDepth())},
      {"degrade_max", degrade},
      {"compiled", static_cast<double>(m.programs_compiled)},
      {"rejected", static_cast<double>(m.programs_rejected)},
      {"refusals", static_cast<double>(m.compile_refusals)},
  };
}

enum class PassKind { kVerify, kTimed, kTraced, kAnalytic };

const char* PassKindName(PassKind kind) {
  switch (kind) {
    case PassKind::kVerify: return "verify";
    case PassKind::kTimed: return "timed";
    case PassKind::kTraced: return "traced";
    case PassKind::kAnalytic: return "analytic";
  }
  return "";
}

struct Pass {
  PassKind kind = PassKind::kTimed;
  std::map<std::string, QueryTimes> times;

  // Callback intervals pooled over the pass, sorted.
  std::vector<double> Intervals() const {
    std::vector<double> pooled;
    for (const auto& [id, q] : times) {
      pooled.insert(pooled.end(), q.intervals.begin(), q.intervals.end());
    }
    std::sort(pooled.begin(), pooled.end());
    return pooled;
  }
};

// Sum over the mix of each query's median over `passes`.
double SumOfMedians(const std::vector<Pass>& passes,
                    const std::vector<QuerySpec>& specs,
                    double QueryTimes::*field) {
  double sum = 0.0;
  for (const QuerySpec& spec : specs) {
    std::vector<double> values;
    for (const Pass& p : passes) values.push_back(p.times.at(spec.query.id).*field);
    sum += Median(values);
  }
  return sum;
}

// Batch latency of the mix: each (query, batch) interval is taken as its
// median over `passes`, and the percentile is over those medians, so one
// noisy pass cannot set the tail.
double BatchProfileMs(const std::vector<Pass>& passes,
                      const std::vector<QuerySpec>& specs, bool tail) {
  std::vector<double> profile;
  for (const QuerySpec& spec : specs) {
    size_t batches = kBatches;
    for (const Pass& p : passes) {
      batches = std::min(batches, p.times.at(spec.query.id).intervals.size());
    }
    for (size_t b = 0; b < batches; ++b) {
      std::vector<double> values;
      for (const Pass& p : passes) {
        values.push_back(p.times.at(spec.query.id).intervals[b]);
      }
      profile.push_back(Median(values));
    }
  }
  std::sort(profile.begin(), profile.end());
  return 1e3 * Percentile(profile, tail ? TailPercentile(profile.size()) : 50);
}

// One generated instance with its reference answers and, for the first
// instance of a run, the determinism digests of the verification pass.
struct Instance {
  Config config;
  Inputs inputs;
  std::map<std::string, Table> reference;  // whole relation, m = 1
  std::map<std::string, Digest> digests;
};

class Bench {
 public:
  Bench(const Workload& workload, std::vector<QuerySpec> specs, uint64_t seed,
        Tracer* tracer)
      : workload_(workload),
        specs_(std::move(specs)),
        seed_(seed),
        tracer_(tracer),
        off_(false, Clock::now()) {}

  Result<std::unique_ptr<Instance>> MakeInstance(int index) {
    auto instance = std::make_unique<Instance>();
    instance->config = MakeConfig(workload_, seed_, index);
    IOLAP_ASSIGN_OR_RETURN(
        instance->inputs,
        Generate(specs_, instance->config, tracer_,
                 workload_.name + "/i" + std::to_string(index) + "/setup"));
    return instance;
  }

  // Runs every query of the mix once over `instance`. kVerify (untimed)
  // computes the references, spot-checks Theorem 1 at the first partial
  // covering >= 10% and records the digests; other kinds check each final
  // answer against the reference, the same pass's baseline answer and, on
  // the verified instance, the digests.
  Pass RunPass(Instance* instance, PassKind kind) {
    const bool verify = kind == PassKind::kVerify;
    const bool traced = kind == PassKind::kTraced;
    Tracer* t = traced ? tracer_ : &off_;
    RunOptions run_options;
    run_options.sample_counters = traced || verify;
    run_options.capture_partial = verify;
    EngineOptions iolap_options = instance->config.iolap;
    if (kind == PassKind::kAnalytic) {
      iolap_options.error_method = ErrorMethod::kAnalytic;
    }
    Pass pass;
    pass.kind = kind;
    const int index = instance->config.instance;
    for (const QuerySpec& spec : specs_) {
      const std::string& id = spec.query.id;
      const std::string trace = workload_.name + "/i" + std::to_string(index) +
                                "/" + PassKindName(kind) + "/" + id;
      const int root = t->Open("query", trace, -1);
      BaselineRecord baseline;
      if (kind != PassKind::kAnalytic) {
        baseline = RunBaseline(spec, instance->inputs, instance->config.baseline,
                               t, trace, root);
      }
      const RunRecord rec = RunIolap(spec, instance->inputs, iolap_options,
                                     run_options, t, trace, root);
      t->Close(root);

      const Clock::time_point check_start = Clock::now();
      CheckRun(instance, spec, kind, baseline, rec);
      t->Add("check", trace, -1, check_start, Clock::now());

      QueryTimes& q = pass.times[id];
      q.first_s = rec.first_s;
      q.t10_s = rec.t10_s;
      q.full_s = rec.full_s;
      q.baseline_s = baseline.seconds;
      q.bind_s = rec.bind_s;
      q.init_s = rec.init_s;
      q.first_batch_s = rec.intervals.empty() ? 0.0 : rec.intervals[0];
      q.run_s = rec.run_s;
      q.cpu_s = rec.cpu_s;
      q.engine_s = rec.metrics.TotalLatencySec();
      for (double v : rec.intervals) q.callbacks_s += v;
      q.intervals = rec.intervals;
      q.counters = CountersOf(rec, workload_.trials);
    }
    double full = 0.0, baseline = 0.0;
    for (const auto& [id, q] : pass.times) {
      full += q.full_s;
      baseline += q.baseline_s;
    }
    const std::vector<double> intervals = pass.Intervals();
    std::printf("# pass instance=%d kind=%s full_s=%.4f baseline_s=%.4f "
                "batch_p50_ms=%.3f batch_tail_ms=%.3f\n",
                index, PassKindName(kind), full, baseline,
                1e3 * Percentile(intervals, 50),
                1e3 * Percentile(intervals, TailPercentile(intervals.size())));
    return pass;
  }

  void PrintDigests(const Instance& instance) const {
    for (const QuerySpec& spec : specs_) {
      auto it = instance.digests.find(spec.query.id);
      if (it == instance.digests.end()) continue;
      std::printf("# digest %s i%d %s %s\n", workload_.name.c_str(),
                  instance.config.instance, spec.query.id.c_str(),
                  it->second.ToString().c_str());
    }
  }

  const std::vector<QuerySpec>& specs() const { return specs_; }
  const Checker& checker() const { return checker_; }

 private:
  void CheckRun(Instance* instance, const QuerySpec& spec, PassKind kind,
                const BaselineRecord& baseline, const RunRecord& rec) {
    const std::string& id = spec.query.id;
    const std::string where =
        id + " i" + std::to_string(instance->config.instance) + " " +
        PassKindName(kind);
    const Catalog& catalog = instance->inputs.CatalogFor(spec);
    auto ref = instance->reference.find(id);
    if (ref == instance->reference.end() && rec.status.ok()) {
      Result<Table> full = ReferenceAt(rec, catalog, spec,
                                       static_cast<int>(rec.layout.size()) - 1);
      if (!full.ok()) {
        checker_.attempted += kind == PassKind::kAnalytic ? 1 : 2;
        return checker_.Fail(where + " reference: " + full.status().ToString());
      }
      ref = instance->reference.emplace(id, std::move(*full)).first;
    }
    if (ref == instance->reference.end()) {
      // Without a reference the baseline run cannot be checked either.
      checker_.attempted += kind == PassKind::kAnalytic ? 1 : 2;
      return checker_.Fail(where + " iolap: " + rec.status.ToString());
    }
    if (kind != PassKind::kAnalytic) {
      checker_.Check(where + " baseline vs reference", baseline.status,
                     baseline.rows, ref->second);
    }
    if (!checker_.Check(where + " iolap vs reference", rec.status,
                        rec.final_rows, ref->second)) {
      return;
    }
    if (kind != PassKind::kAnalytic && baseline.status.ok()) {
      const std::string diff = CompareTables(rec.final_rows, baseline.rows);
      if (!diff.empty()) return checker_.Fail(where + " iolap vs baseline: " + diff);
    }
    if (kind == PassKind::kVerify) {
      instance->digests[id] = Digest::Of(rec);
      if (!rec.partial10.has_value()) {
        return checker_.Fail(where + " no partial reached 10% coverage");
      }
      Result<Table> at10 =
          ReferenceAt(rec, catalog, spec, rec.partial10->batch);
      if (!at10.ok()) {
        return checker_.Fail(where + " reference at 10%: " +
                             at10.status().ToString());
      }
      const std::string diff = CompareTables(rec.partial10->rows, *at10);
      if (!diff.empty()) {
        checker_.Fail(where + " Theorem 1 at batch " +
                      std::to_string(rec.partial10->batch) + ": " + diff);
      }
      return;
    }
    auto digest = instance->digests.find(id);
    if (kind != PassKind::kAnalytic && digest != instance->digests.end()) {
      const Digest now = Digest::Of(rec);
      if (!now.Matches(digest->second, kind == PassKind::kTraced)) {
        checker_.Fail(where + " determinism digest " + now.ToString() +
                      " != " + digest->second.ToString());
      }
    }
  }

  const Workload& workload_;
  std::vector<QuerySpec> specs_;
  uint64_t seed_;
  Tracer* tracer_;
  Tracer off_;
  Checker checker_;
};

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
  std::string spans;
  std::string source = "unknown";
  int first_instance = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::max(1, std::atoi(value.c_str()));
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans = value;
    } else if (key == "--source") {
      args->source = value;
    } else if (key == "--instance") {
      args->first_instance = std::max(0, std::atoi(value.c_str()));
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

std::string Fingerprint(const Args& args, const Workload& workload,
                        const Config& config) {
#ifdef NDEBUG
  const char* ndebug = "yes";
#else
  const char* ndebug = "no";
#endif
#ifdef __OPTIMIZE__
  const char* optimized = "yes";
#else
  const char* optimized = "no";
#endif
#ifdef IOLAP_DISABLE_FAILPOINTS
  const char* failpoints = "no";
#else
  const char* failpoints = "yes";
#endif
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"compiler\": \"%s %s\", \"build_type\": \"%s\", "
      "\"optimized\": \"%s\", \"ndebug\": \"%s\", \"failpoints\": \"%s\", "
      "\"source\": \"%s\", \"workload\": \"%s\", \"scale\": %g, "
      "\"lineorder_rows\": %zu, \"sessions\": %zu, \"batches\": %zu, "
      "\"trials\": %d, \"slack\": %g, \"threads\": 0, \"seed\": %llu}",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_CXX_ID, PERFBENCH_CXX_VERSION,
      PERFBENCH_BUILD_TYPE, optimized, ndebug, failpoints, args.source.c_str(),
      workload.name.c_str(), kScale, config.tpch.lineorder_rows,
      config.conviva.sessions, kBatches, workload.trials, workload.slack,
      static_cast<unsigned long long>(args.seed));
  return buf;
}

// ---------------------------------------------------------------------------
// Instance processes
//
// Each instance runs in a child process, so the peak resident set the
// kernel reports for the child (wait4) belongs to that instance alone, and
// no instance inherits another's heap. The child sends its results to the
// parent as text lines over a pipe:
//
//   setup <setup_s> <generate_s>
//   checks <attempted> <failed>
//   spans <count>
//   pass <kind>
//   q <id> <scalars...> <n> <intervals...> <k> (<counter> <value>)...
//   end

struct InstanceResult {
  double setup_s = 0.0;
  double generate_s = 0.0;
  long attempted = 0;
  long failed = 0;
  int spans = 0;
  std::vector<Pass> passes;
  double peak_rss_mb = 0.0;  // of the instance process
};

std::string Serialize(const InstanceResult& result) {
  std::string out;
  char buf[128];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), " %.17g", v);
    out += buf;
  };
  out += "setup";
  num(result.setup_s);
  num(result.generate_s);
  out += "\nchecks";
  num(result.attempted);
  num(result.failed);
  out += "\nspans";
  num(result.spans);
  out += "\n";
  for (const Pass& pass : result.passes) {
    out += std::string("pass ") + PassKindName(pass.kind) + "\n";
    for (const auto& [id, times] : pass.times) {
      QueryTimes q = times;
      out += "q " + id;
      for (double* v : q.Scalars()) num(*v);
      num(static_cast<double>(q.intervals.size()));
      for (double v : q.intervals) num(v);
      num(static_cast<double>(q.counters.size()));
      for (const auto& [name, value] : q.counters) {
        out += " " + name;
        num(value);
      }
      out += "\n";
    }
  }
  out += "end\n";
  return out;
}

bool Parse(const std::string& text, InstanceResult* result) {
  std::istringstream in(text);
  std::string word;
  while (in >> word) {
    if (word == "setup") {
      in >> result->setup_s >> result->generate_s;
    } else if (word == "checks") {
      in >> result->attempted >> result->failed;
    } else if (word == "spans") {
      in >> result->spans;
    } else if (word == "pass") {
      std::string kind;
      in >> kind;
      Pass pass;
      for (PassKind k : {PassKind::kVerify, PassKind::kTimed, PassKind::kTraced,
                         PassKind::kAnalytic}) {
        if (kind == PassKindName(k)) pass.kind = k;
      }
      result->passes.push_back(std::move(pass));
    } else if (word == "q" && !result->passes.empty()) {
      std::string id;
      in >> id;
      QueryTimes& q = result->passes.back().times[id];
      for (double* v : q.Scalars()) in >> *v;
      size_t n = 0;
      in >> n;
      q.intervals.resize(std::min<size_t>(n, kBatches));
      for (double& v : q.intervals) in >> v;
      in >> n;
      for (size_t i = 0; i < n && in; ++i) {
        std::string name;
        double value = 0.0;
        in >> name >> value;
        q.counters[name] = value;
      }
    } else if (word == "end") {
      return true;
    } else {
      return false;
    }
    if (!in) return false;
  }
  return false;
}

// Runs one instance in the child process and writes its result to `fd`.
[[noreturn]] void InstanceChild(Bench* bench, Tracer* tracer, int index,
                                bool verify, bool trace,
                                const std::string& spans_path, int span_base,
                                int fd) {
  InstanceResult result;
  auto made = bench->MakeInstance(index);
  int code = 0;
  if (!made.ok()) {
    std::printf("FAILED instance %d: %s\n", index,
                made.status().ToString().c_str());
    code = 1;
  } else {
    Instance* instance = made->get();
    result.setup_s = instance->inputs.setup_s;
    result.generate_s = instance->inputs.generate_s;
    std::printf("# instance %d %s setup_s=%.4f\n", index,
                SeedsOf(instance->config).c_str(), result.setup_s);
    if (verify) {
      bench->RunPass(instance, PassKind::kVerify);
      bench->PrintDigests(*instance);
    }
    result.passes.push_back(bench->RunPass(instance, PassKind::kTimed));
    if (trace) {
      result.passes.push_back(bench->RunPass(instance, PassKind::kTraced));
      result.passes.push_back(bench->RunPass(instance, PassKind::kAnalytic));
    }
    result.attempted = bench->checker().attempted;
    result.failed = bench->checker().failed;
    result.spans = tracer->size();
    if (!spans_path.empty() && !tracer->Append(spans_path, span_base)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
      code = 1;
    }
    const std::string text = Serialize(result);
    for (size_t off = 0; off < text.size();) {
      const ssize_t n = write(fd, text.data() + off, text.size() - off);
      if (n <= 0) {
        code = 1;
        break;
      }
      off += static_cast<size_t>(n);
    }
  }
  std::fflush(stdout);
  std::fflush(stderr);
  _exit(code);
}

// Forks the child for instance `index` and collects its result. Returns
// false when the child could not be started.
bool RunInstance(Bench* bench, Tracer* tracer, int index, bool verify,
                 const Args& args, int span_base, InstanceResult* result) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    InstanceChild(bench, tracer, index, verify, args.trace, args.spans,
                  span_base, fds[1]);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result->peak_rss_mb = usage.ru_maxrss / 1024.0;  // Linux reports kilobytes.
  const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!exited_ok || !Parse(text, result)) {
    std::printf("FAILED instance %d: instance process %s\n", index,
                WIFSIGNALED(status)
                    ? ("killed by signal " + std::to_string(WTERMSIG(status))).c_str()
                    : ("exited with code " +
                       std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1))
                          .c_str());
    result->passes.clear();
    ++result->attempted;
    ++result->failed;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reporting

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name.c_str(), value, unit.c_str());
    body_ += buf;
    std::printf("  %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

struct RunTotals {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> peak_rss_mb;
  std::vector<Pass> timed;
  std::vector<Pass> traced;
  std::vector<Pass> analytic;
};

void ReportEndToEnd(const std::vector<QuerySpec>& specs, const RunTotals& run,
                    MetricsJson* metrics) {
  const std::vector<Pass>& timed = run.timed;
  for (const QuerySpec& spec : specs) {
    const std::vector<QuerySpec> one = {spec};
    auto median = [&](double QueryTimes::*field) {
      return SumOfMedians(timed, one, field);
    };
    std::printf("# query %-4s median first_s=%.4f t10_s=%.4f full_s=%.4f "
                "baseline_s=%.4f\n",
                spec.query.id.c_str(), median(&QueryTimes::first_s),
                median(&QueryTimes::t10_s), median(&QueryTimes::full_s),
                median(&QueryTimes::baseline_s));
  }
  std::printf("# end-to-end metrics: sums over the mix of per-query medians "
              "over %zu timed passes\n",
              timed.size());
  auto sum = [&](double QueryTimes::*field) {
    return SumOfMedians(timed, specs, field);
  };
  metrics->Add("setup_s", Median(run.setup_s), "s");
  metrics->Add("first_answer_s", sum(&QueryTimes::first_s), "s");
  metrics->Add("t10_s", sum(&QueryTimes::t10_s), "s");
  metrics->Add("full_s", sum(&QueryTimes::full_s), "s");
  metrics->Add("batch_p50_ms", BatchProfileMs(timed, specs, /*tail=*/false), "ms");
  metrics->Add("batch_tail_ms", BatchProfileMs(timed, specs, /*tail=*/true), "ms");
  metrics->Add("baseline_s", sum(&QueryTimes::baseline_s), "s");
  metrics->Add("peak_rss_mb", Median(run.peak_rss_mb), "MB");
}

void ReportPerLayer(const std::vector<QuerySpec>& specs, const RunTotals& run,
                    MetricsJson* metrics) {
  auto sum = [&](const std::vector<Pass>& passes, double QueryTimes::*field) {
    return SumOfMedians(passes, specs, field);
  };
  const double untraced_full = sum(run.timed, &QueryTimes::full_s);
  const double traced_full = sum(run.traced, &QueryTimes::full_s);
  const double analytic_full = sum(run.analytic, &QueryTimes::full_s);

  // Counters combine over the mix per pass, then take the median over the
  // first kMinTracedPasses traced passes, so every run of one seed reports
  // the same counts whatever its pass count.
  std::map<std::string, std::vector<double>> counters;
  for (size_t i = 0; i < run.traced.size() && i < kMinTracedPasses; ++i) {
    std::map<std::string, double> combined;
    for (const auto& [id, q] : run.traced[i].times) {
      for (const auto& [name, value] : q.counters) {
        const bool peak = name.ends_with("_peak") || name.ends_with("_max");
        double& slot = combined[name];
        slot = peak ? std::max(slot, value) : slot + value;
      }
    }
    for (const auto& [name, value] : combined) counters[name].push_back(value);
  }
  auto counter = [&](const std::string& name) { return Median(counters[name]); };
  const double mb = 1.0 / (1024.0 * 1024.0);
  std::printf("# bases: input_rows=%.0f recomputed_rows=%.0f "
              "batches_delivered=%.0f untraced_full_s=%.6f traced_full_s=%.6f "
              "analytic_full_s=%.6f\n",
              counter("input"), counter("recomputed"), counter("batches"),
              untraced_full, traced_full, analytic_full);

  std::printf("# per-layer metrics: sums over the mix of per-query medians "
              "over %zu traced passes; counters are medians over the first %zu "
              "traced passes of per-pass sums (peaks: maxima)\n",
              run.traced.size(), std::min(run.traced.size(), kMinTracedPasses));
  metrics->Add("workloads.generate_s", Median(run.generate_s), "s");
  metrics->Add("sql.bind_ms", 1e3 * sum(run.traced, &QueryTimes::bind_s), "ms");
  metrics->Add("iolap.init_ms", 1e3 * sum(run.traced, &QueryTimes::init_s), "ms");
  metrics->Add("iolap.first_batch_ms",
               1e3 * sum(run.traced, &QueryTimes::first_batch_s), "ms");
  for (const std::string& id : AllQueryIds()) {
    double value = 0.0;  // 0 = the query is not in this workload's mix
    if (!run.traced.empty() && run.traced[0].times.count(id) > 0) {
      std::vector<double> values;
      for (const Pass& p : run.traced) values.push_back(p.times.at(id).run_s);
      value = Median(values);
    }
    metrics->Add("iolap.run_s." + id, value, "s");
  }
  const double engine = sum(run.traced, &QueryTimes::engine_s);
  metrics->Add("iolap.engine_ms", 1e3 * engine, "ms");
  metrics->Add("iolap.deliver_ms",
               1e3 * (sum(run.traced, &QueryTimes::callbacks_s) - engine), "ms");
  const double run_wall = sum(run.traced, &QueryTimes::run_s);
  metrics->Add("iolap.cpu_over_wall",
               run_wall > 0 ? sum(run.traced, &QueryTimes::cpu_s) / run_wall : 0.0,
               "ratio");
  metrics->Add("iolap.recomputed_rows", counter("recomputed"), "count");
  metrics->Add("iolap.recompute_ratio",
               counter("input") > 0 ? counter("recomputed") / counter("input") : 0.0,
               "ratio");
  metrics->Add("iolap.pending_peak", counter("pending_peak"), "count");
  metrics->Add("iolap.state_mb.join_peak", counter("join_peak") * mb, "MB");
  metrics->Add("iolap.state_mb.other_peak", counter("other_peak") * mb, "MB");
  metrics->Add("iolap.checkpoint_mb.peak", counter("checkpoint_peak") * mb, "MB");
  metrics->Add("iolap.recoveries", counter("recoveries"), "count");
  metrics->Add("iolap.full_restarts", counter("full_restarts"), "count");
  metrics->Add("iolap.frozen_replay_batches", counter("frozen"), "count");
  metrics->Add("iolap.rollback_depth_max", counter("depth_max"), "batches");
  metrics->Add("iolap.degrade_level_max", counter("degrade_max"), "level");
  metrics->Add("iolap.replay_ratio",
               counter("batches") > 0 ? counter("frozen") / counter("batches") : 0.0,
               "ratio");
  metrics->Add("exec.programs_compiled", counter("compiled"), "count");
  metrics->Add("exec.programs_rejected", counter("rejected"), "count");
  metrics->Add("exec.compile_refusals", counter("refusals"), "count");
  metrics->Add("bootstrap.trial_folds", counter("trial_folds"), "count");
  metrics->Add("bootstrap.share",
               untraced_full > 0 ? 1.0 - analytic_full / untraced_full : 0.0,
               "ratio");
  metrics->Add("trace.overhead_ratio",
               untraced_full > 0 ? traced_full / untraced_full : 0.0, "ratio");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <spja|nested|recovery> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>] "
                 "[--source <id>] [--instance <first instance>]\n",
                 argv[0]);
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::vector<QuerySpec> specs;
  for (const std::string& id : workload->queries) {
    Result<QuerySpec> spec = ResolveQuery(id);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    specs.push_back(*spec);
  }

  const std::string fingerprint =
      Fingerprint(args, *workload, MakeConfig(*workload, args.seed, 0));
  std::printf("# fingerprint %s\n", fingerprint.c_str());
#ifndef __OPTIMIZE__
  std::printf("# WARNING: UNOPTIMISED BUILD - timings are not meaningful\n");
  std::fprintf(stderr,
               "WARNING: UNOPTIMISED BUILD - timings are not meaningful\n");
#endif
  if (args.trace && !args.spans.empty()) {
    FILE* out = std::fopen(args.spans.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
      return 1;
    }
    std::fprintf(out, "{\"fingerprint\": %s}\n", fingerprint.c_str());
    std::fclose(out);
  }

  Tracer tracer(args.trace, Clock::now());
  Bench bench(*workload, specs, args.seed, &tracer);

  // The first instance (0 unless --instance) gets an untimed verification
  // pass: it warms caches, computes the references, spot-checks Theorem 1
  // and records the digests. Its first timed pass reruns that instance,
  // which checks determinism within the run; later passes draw the
  // following instances.
  const size_t min_passes = args.trace ? kMinTracedPasses : kMinPasses;
  RunTotals run;
  long attempted = 0, failed = 0;
  int span_base = 0;
  std::vector<double> pass_seconds;
  const Clock::time_point measure_start = Clock::now();
  const int first = args.first_instance;
  for (int index = first;; ++index) {
    const size_t done = static_cast<size_t>(index - first);
    if (done >= min_passes &&
        Since(measure_start, Clock::now()) + Median(pass_seconds) > args.seconds) {
      break;
    }
    const Clock::time_point pass_start = Clock::now();
    InstanceResult result;
    if (!RunInstance(&bench, &tracer, index, index == first, args, span_base,
                     &result)) {
      std::fprintf(stderr, "cannot start the process for instance %d\n", index);
      return 1;
    }
    pass_seconds.push_back(Since(pass_start, Clock::now()));
    attempted += result.attempted;
    failed += result.failed;
    span_base += result.spans;
    if (result.passes.empty()) continue;  // the instance failed as a whole
    run.setup_s.push_back(result.setup_s);
    run.generate_s.push_back(result.generate_s);
    run.peak_rss_mb.push_back(result.peak_rss_mb);
    for (Pass& pass : result.passes) {
      if (pass.kind == PassKind::kTimed) run.timed.push_back(std::move(pass));
      if (pass.kind == PassKind::kTraced) run.traced.push_back(std::move(pass));
      if (pass.kind == PassKind::kAnalytic) run.analytic.push_back(std::move(pass));
    }
  }

  if (run.timed.empty()) {
    std::fprintf(stderr, "no instance completed\n");
    return 1;
  }
  const size_t samples = run.timed[0].Intervals().size();
  std::printf("# workload %s: %zu instances, %zu batch intervals per pass "
              "(tail = p%d)\n",
              workload->name.c_str(), run.timed.size(), samples,
              TailPercentile(samples));
  MetricsJson metrics;
  if (!args.trace) {
    ReportEndToEnd(specs, run, &metrics);
  } else {
    ReportPerLayer(specs, run, &metrics);
    if (!args.spans.empty()) {
      std::printf("# spans written to %s\n", args.spans.c_str());
    }
  }

  std::printf("# %s: failed %ld of %ld operations attempted\n",
              workload->name.c_str(), failed, attempted);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.body().c_str());
  return 0;
}

}  // namespace
}  // namespace iolap

int main(int argc, char** argv) { return iolap::Main(argc, argv); }
