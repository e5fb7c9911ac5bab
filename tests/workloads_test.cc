// Workload tests: every TPC-H and Conviva benchmark query must compile,
// run incrementally, and match the reference evaluation at every batch.

#include <gtest/gtest.h>

#include <cmath>

#include "exec/reference.h"
#include "sql/binder.h"
#include "workloads/experiment_driver.h"

namespace iolap {
namespace {

// Small configs so the differential check stays fast.
Result<std::shared_ptr<Catalog>> SmallTpch(const std::string& streamed) {
  TpchConfig config;
  config = config.Scaled(0.05);
  return MakeTpchCatalog(config, streamed);
}

Result<std::shared_ptr<Catalog>> SmallConviva() {
  ConvivaConfig config;
  config = config.Scaled(0.03);
  return MakeConvivaCatalog(config);
}

void CheckQueryAgainstReference(std::shared_ptr<Catalog> catalog,
                                const BenchQuery& query) {
  SCOPED_TRACE(query.id + ": " + query.sql);
  auto functions = BenchFunctions();
  auto plan = BindSql(query.sql, *catalog, functions);
  ASSERT_TRUE(plan.ok()) << plan.status();

  EngineOptions options;
  options.num_trials = 16;
  options.num_batches = 5;
  options.seed = 77;
  Session session(catalog.get(), options, functions);
  auto compiled = session.Sql(query.sql);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  const Table& fact = *(*catalog->Find(query.streamed_table))->table;
  std::vector<Row> accumulated;
  QueryController& controller = (*compiled)->controller();
  Status status = (*compiled)->Run([&](const PartialResult& partial)
                                       -> BatchAction {
    for (uint64_t id : controller.layout().batches[partial.batch]) {
      accumulated.push_back(fact.row(id));
    }
    const double scale =
        static_cast<double>(fact.num_rows()) / accumulated.size();
    auto expected = EvaluateReference(*plan, *catalog, accumulated, scale);
    EXPECT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(partial.rows.num_rows(), expected->num_rows())
        << "batch " << partial.batch;
    if (partial.rows.num_rows() != expected->num_rows()) {
      return BatchAction::kStop;
    }
    for (size_t r = 0; r < partial.rows.num_rows(); ++r) {
      for (size_t c = 0; c < partial.rows.row(r).size(); ++c) {
        const Value& a = partial.rows.row(r)[c];
        const Value& e = expected->row(r)[c];
        if (a.is_numeric() && e.is_numeric()) {
          EXPECT_NEAR(a.AsDouble(), e.AsDouble(),
                      1e-6 * std::max(1.0, std::fabs(e.AsDouble())))
              << "batch " << partial.batch << " row " << r << " col " << c;
        } else {
          EXPECT_TRUE(a.Equals(e))
              << a.ToString() << " vs " << e.ToString();
        }
      }
    }
    return BatchAction::kContinue;
  });
  ASSERT_TRUE(status.ok()) << status;
  // Final batch: exact result.
  EXPECT_DOUBLE_EQ((*compiled)->last_result().fraction_processed, 1.0);
}

class TpchQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryTest, MatchesReferenceEveryBatch) {
  const BenchQuery query = TpchQueries()[GetParam()];
  auto catalog = SmallTpch(query.streamed_table);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  CheckQueryAgainstReference(*catalog, query);
}

std::string TpchName(const ::testing::TestParamInfo<int>& info) {
  return TpchQueries()[info.param].id;
}

INSTANTIATE_TEST_SUITE_P(AllTpch, TpchQueryTest, ::testing::Range(0, 10),
                         TpchName);

class ConvivaQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(ConvivaQueryTest, MatchesReferenceEveryBatch) {
  const BenchQuery query = ConvivaQueries()[GetParam()];
  auto catalog = SmallConviva();
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  CheckQueryAgainstReference(*catalog, query);
}

std::string ConvivaName(const ::testing::TestParamInfo<int>& info) {
  return ConvivaQueries()[info.param].id;
}

INSTANTIATE_TEST_SUITE_P(AllConviva, ConvivaQueryTest, ::testing::Range(0, 12),
                         ConvivaName);

// The HDA and OPT1-only modes must also stay exact on a nested query from
// each workload (the bench comparisons rely on all modes being correct).
TEST(WorkloadModesTest, NestedQueriesExactUnderAllModes) {
  for (bool conviva : {false, true}) {
    const BenchQuery query =
        conviva ? FindConvivaQuery("c2") : FindTpchQuery("q17");
    auto catalog = conviva ? SmallConviva() : SmallTpch(query.streamed_table);
    ASSERT_TRUE(catalog.ok());
    auto functions = BenchFunctions();
    auto plan = BindSql(query.sql, **catalog, functions);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const Table& fact = *(*(*catalog)->Find(query.streamed_table))->table;

    for (auto [mode, opt1, opt2] :
         {std::tuple{ExecutionMode::kHda, false, false},
          std::tuple{ExecutionMode::kIolap, true, false},
          std::tuple{ExecutionMode::kIolap, true, true}}) {
      EngineOptions options;
      options.mode = mode;
      options.tuple_partition = opt1;
      options.lazy_lineage = opt2;
      options.num_trials = 10;
      options.num_batches = 4;
      options.seed = 5;
      Session session(catalog->get(), options, functions);
      auto compiled = session.Sql(query.sql);
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      ASSERT_TRUE((*compiled)->Run(nullptr).ok());
      auto expected = EvaluateReference(*plan, **catalog, fact.rows(), 1.0);
      ASSERT_TRUE(expected.ok());
      const Table& actual = (*compiled)->last_result().rows;
      ASSERT_EQ(actual.num_rows(), expected->num_rows()) << query.id;
      for (size_t r = 0; r < actual.num_rows(); ++r) {
        for (size_t c = 0; c < actual.row(r).size(); ++c) {
          const Value& a = actual.row(r)[c];
          const Value& e = expected->row(r)[c];
          if (a.is_numeric() && e.is_numeric()) {
            EXPECT_NEAR(a.AsDouble(), e.AsDouble(),
                        1e-6 * std::max(1.0, std::fabs(e.AsDouble())));
          }
        }
      }
    }
  }
}

// Sums of stddev and of CI width over every estimate of one delivered
// batch, for q1 (SUM/AVG/COUNT) and c8 (the geomean UDAF over pending rows).
struct BatchUncertainty {
  double fraction = 0.0;
  double stddev_sum = 0.0;
  double ci_width_sum = 0.0;
};

std::vector<BatchUncertainty> RunUncertainty(const std::string& id,
                                             ErrorMethod method) {
  const bool conviva = id[0] == 'c';
  const BenchQuery query = conviva ? FindConvivaQuery(id) : FindTpchQuery(id);
  auto catalog = conviva ? SmallConviva() : SmallTpch(query.streamed_table);
  EXPECT_TRUE(catalog.ok());
  EngineOptions options;
  options.error_method = method;
  options.num_trials = 16;
  options.num_batches = 5;
  options.seed = 77;
  Session session(catalog->get(), options, BenchFunctions());
  auto compiled = session.Sql(query.sql);
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  std::vector<BatchUncertainty> batches;
  const Status status =
      (*compiled)->Run([&](const PartialResult& partial) {
        BatchUncertainty b;
        b.fraction = partial.fraction_processed;
        for (size_t r = 0; r < partial.estimates.size(); ++r) {
          for (size_t k = 0; k < partial.estimates[r].size(); ++k) {
            const ErrorEstimate& est = partial.estimates[r][k];
            const Value& v =
                partial.rows.row(r)[partial.estimated_columns[k]];
            if (partial.fraction_processed == 1.0) {
              EXPECT_EQ(est.stddev, 0.0) << id << " row " << r;
              EXPECT_EQ(est.rel_stddev, 0.0) << id << " row " << r;
              EXPECT_EQ(est.ci_lo, v.is_null() ? 0.0 : v.AsDouble());
              EXPECT_EQ(est.ci_hi, v.is_null() ? 0.0 : v.AsDouble());
            }
            b.stddev_sum += est.stddev;
            b.ci_width_sum += est.ci_hi - est.ci_lo;
          }
        }
        batches.push_back(b);
        return BatchAction::kContinue;
      });
  EXPECT_TRUE(status.ok()) << status;
  return batches;
}

// At full coverage the answer is exact, so both error methods report
// stddev 0 and CI [v, v]; every earlier batch keeps the uncertainty it
// reported before that rule existed (reference sums below, recorded from
// that code on this configuration).
TEST(FullCoverageTest, UncertaintyIsZeroOnlyAtFullCoverage) {
  struct Case {
    const char* id;
    ErrorMethod method;
    std::vector<std::pair<double, double>> earlier;  // stddev, CI width
  };
  const Case cases[] = {
      {"q1",
       ErrorMethod::kBootstrap,
       {{2477910.4972634255, 7909780.7702749977},
        {1738704.5408447487, 5642825.6413905481},
        {1384695.9259846492, 4466965.0402870327},
        {1275940.8980666588, 3954698.2164763017}}},
      {"q1",
       ErrorMethod::kAnalytic,
       {{1226769.2928260174, 4808935.6278779879},
        {755840.15007876861, 2962893.3883087719},
        {499537.55567523866, 1958187.2182469347},
        {307017.78885759326, 1203509.7323217664}}},
      {"c8",
       ErrorMethod::kBootstrap,
       {{0.091332000991009826, 0.30687663848928537},
        {0.040212293864224931, 0.13851934915235864},
        {0.043017685460341071, 0.13692386478775531},
        {0.040067387127756697, 0.13195134021928356}}},
      // geomean has no closed form: analytic mode reports no spread.
      {"c8", ErrorMethod::kAnalytic, {{0, 0}, {0, 0}, {0, 0}, {0, 0}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.id) +
                 (c.method == ErrorMethod::kAnalytic ? " analytic"
                                                     : " bootstrap"));
    const std::vector<BatchUncertainty> batches =
        RunUncertainty(c.id, c.method);
    ASSERT_EQ(batches.size(), c.earlier.size() + 1);
    for (size_t b = 0; b < c.earlier.size(); ++b) {
      EXPECT_LT(batches[b].fraction, 1.0);
      EXPECT_NEAR(batches[b].stddev_sum, c.earlier[b].first,
                  1e-9 * c.earlier[b].first)
          << "batch " << b;
      EXPECT_NEAR(batches[b].ci_width_sum, c.earlier[b].second,
                  1e-9 * c.earlier[b].second)
          << "batch " << b;
    }
    EXPECT_EQ(batches.back().fraction, 1.0);
    EXPECT_EQ(batches.back().stddev_sum, 0.0);
    EXPECT_EQ(batches.back().ci_width_sum, 0.0);
  }
}

// Generator sanity: scaled configs, schema shape, reproducibility.
TEST(GeneratorTest, TpchShapes) {
  TpchConfig config;
  config = config.Scaled(0.02);
  auto catalog = MakeTpchCatalog(config, "lineorder");
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  EXPECT_TRUE((*catalog)->Has("lineorder"));
  EXPECT_TRUE((*(*catalog)->Find("lineorder"))->streamed);
  EXPECT_FALSE((*(*catalog)->Find("part"))->streamed);
  EXPECT_EQ((*(*catalog)->Find("lineorder"))->table->num_rows(),
            config.lineorder_rows);
  EXPECT_EQ((*(*catalog)->Find("region"))->table->num_rows(), 5u);
}

TEST(GeneratorTest, TpchDeterministicUnderSeed) {
  TpchConfig config;
  config = config.Scaled(0.01);
  auto a = MakeTpchCatalog(config, "lineorder");
  auto b = MakeTpchCatalog(config, "lineorder");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Table& ta = *(*(*a)->Find("lineorder"))->table;
  const Table& tb = *(*(*b)->Find("lineorder"))->table;
  ASSERT_EQ(ta.num_rows(), tb.num_rows());
  for (size_t r = 0; r < ta.num_rows(); ++r) {
    EXPECT_TRUE(RowEq()(ta.row(r), tb.row(r)));
  }
}

TEST(GeneratorTest, TpchUnknownStreamRejected) {
  TpchConfig config;
  config = config.Scaled(0.01);
  EXPECT_FALSE(MakeTpchCatalog(config, "no_such_table").ok());
}

TEST(GeneratorTest, ConvivaShapes) {
  ConvivaConfig config;
  config = config.Scaled(0.02);
  auto catalog = MakeConvivaCatalog(config);
  ASSERT_TRUE(catalog.ok());
  const Table& sessions = *(*(*catalog)->Find("sessions"))->table;
  EXPECT_EQ(sessions.num_rows(), config.sessions);
  // Buffering / play time anti-correlation: sessions with above-median
  // buffering should have lower average play time.
  double buf_sum = 0;
  for (const Row& row : sessions.rows()) buf_sum += row[5].AsDouble();
  const double buf_avg = buf_sum / sessions.num_rows();
  double slow_play = 0, fast_play = 0;
  size_t slow_n = 0, fast_n = 0;
  for (const Row& row : sessions.rows()) {
    if (row[5].AsDouble() > buf_avg) {
      slow_play += row[6].AsDouble();
      ++slow_n;
    } else {
      fast_play += row[6].AsDouble();
      ++fast_n;
    }
  }
  ASSERT_GT(slow_n, 0u);
  ASSERT_GT(fast_n, 0u);
  EXPECT_LT(slow_play / slow_n, fast_play / fast_n);
}

TEST(GeneratorTest, ConvivaUdfsRegistered) {
  auto functions = FunctionRegistry::Default();
  RegisterConvivaUdfs(functions.get());
  EXPECT_TRUE(functions->HasScalar("engagement_score"));
  EXPECT_TRUE(functions->HasScalar("is_hd"));
  auto is_hd = functions->FindScalar("is_hd");
  ASSERT_TRUE(is_hd.ok());
  EXPECT_EQ((*is_hd)->eval({Value::Double(3000)}).int64(), 1);
  EXPECT_EQ((*is_hd)->eval({Value::Double(1000)}).int64(), 0);
}

}  // namespace
}  // namespace iolap
