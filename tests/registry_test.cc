// Unit tests for the AggregateRegistry: lazy re-scaling, lookups, trial
// replicas, constraint routing, refresh, rollback and per-value
// degradation.
//
// The mutation API requires the engine's serial-phase capability
// (IOLAP_REQUIRES(engine_serial_phase)); tests that publish/refresh enter
// the phase with a ScopedThreadRole, exactly like the engine's apply phase
// does — a no-op at runtime, checked under Clang -Wthread-safety.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "iolap/aggregate_registry.h"
#include "plan/plan_builder.h"

namespace iolap {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : functions_(FunctionRegistry::Default()) {
    Table t(Schema({{"k", ValueType::kInt64}, {"x", ValueType::kDouble}}));
    t.AddRow({Value::Int64(1), Value::Double(2)});
    EXPECT_TRUE(catalog_.RegisterTable("t", std::move(t), true).ok());

    // Block 0: per-k SUM (linear in the scale) and AVG (invariant).
    PlanBuilder pb(&catalog_, functions_);
    auto& b = pb.NewBlock("per_k");
    b.Scan("t")
        .GroupBy("k")
        .Agg("sum", b.ColRef("x"), "s")
        .Agg("avg", b.ColRef("x"), "a");
    auto plan = pb.Build();
    EXPECT_TRUE(plan.ok()) << plan.status();
    plan_ = std::make_unique<QueryPlan>(std::move(*plan));
    registry_ = std::make_unique<AggregateRegistry>(plan_.get(), 2.0);
  }

  Row Key(int64_t k) { return {Value::Int64(k)}; }

  Catalog catalog_;
  std::shared_ptr<FunctionRegistry> functions_;
  std::unique_ptr<QueryPlan> plan_;
  std::unique_ptr<AggregateRegistry> registry_;
};

TEST_F(RegistryTest, LookupMissingGroup) {
  EXPECT_TRUE(registry_->Lookup(0, 1, Key(9)).is_null());
  EXPECT_TRUE(registry_->LookupRange(0, 1, Key(9)).IsUnbounded());
}

TEST_F(RegistryTest, KeyColumnsResolveToKey) {
  EXPECT_EQ(registry_->Lookup(0, 0, Key(3)).int64(), 3);
  EXPECT_DOUBLE_EQ(registry_->LookupRange(0, 0, Key(3)).lo, 3.0);
}

TEST_F(RegistryTest, LinearAggregateRescalesLazily) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 4.0);
  // Unscaled sum 10, avg 5.
  auto result = registry_->Publish(0, Key(1), 0, {Value::Double(10), Value::Double(5)},
                                   {{9, 10, 11}, {4, 5, 6}}, true);
  EXPECT_TRUE(result.ok);
  // col 1 = sum (linear): scaled x4; col 2 = avg (invariant).
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(1)).AsDouble(), 40.0);
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 2, Key(1)).AsDouble(), 5.0);
  // Trials scale the same way.
  EXPECT_DOUBLE_EQ(registry_->LookupTrial(0, 1, Key(1), 0).AsDouble(), 36.0);
  EXPECT_DOUBLE_EQ(registry_->LookupTrial(0, 2, Key(1), 2).AsDouble(), 6.0);
  // A new scale changes lookups without republication.
  registry_->SetBlockScale(0, 2.0);
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(1)).AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 2, Key(1)).AsDouble(), 5.0);
}

TEST_F(RegistryTest, TrialOutOfRangeFallsBackToMain) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0, {Value::Double(10), Value::Double(5)},
                                 {{}, {}}, false)
                  .ok);
  EXPECT_DOUBLE_EQ(registry_->LookupTrial(0, 1, Key(1), 7).AsDouble(), 10.0);
}

// The typed batched probe the compiled path uses equals the per-trial
// lookup, unboxed: key columns (int64 kept exact), covered replicas under
// the block scale, the main-value fallback past the replica vector, a
// NULL main value, and missing groups.
TEST_F(RegistryTest, TypedLookupTrialsEqualsLookupTrial) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 3.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0,
                                 {Value::Double(10), Value::Double(5)},
                                 {{9, 10, 11}, {}}, false)
                  .ok);
  ASSERT_TRUE(registry_->Publish(0, Key(2), 0, {Value::Null(), Value::Null()},
                                 {{}, {}}, false)
                  .ok);
  constexpr int kTrials = 6;
  const Row big_key = {Value::Int64((int64_t{1} << 53) + 1)};
  for (const Row& key : {Key(1), Key(2), Key(9), big_key}) {
    for (int col = 0; col < 3; ++col) {
      NumericValue typed[kTrials];
      registry_->LookupTrials(0, col, key, kTrials, typed);
      for (int t = 0; t < kTrials; ++t) {
        const Value v = registry_->LookupTrial(0, col, key, t);
        const NumericValue want = NumericValue::Of(v);
        EXPECT_EQ(typed[t].tag, want.tag) << "col " << col << " trial " << t;
        EXPECT_EQ(typed[t].i64, want.i64) << "col " << col << " trial " << t;
        EXPECT_EQ(typed[t].f64, want.f64) << "col " << col << " trial " << t;
      }
    }
  }
  // Spot checks of the three regimes on group 1.
  NumericValue sum[kTrials];
  registry_->LookupTrials(0, 1, Key(1), kTrials, sum);
  EXPECT_EQ(sum[0].f64, 27.0);   // covered replica, scaled
  EXPECT_EQ(sum[5].f64, 30.0);   // fallback: the scaled main value
  NumericValue key_col[kTrials];
  registry_->LookupTrials(0, 0, big_key, kTrials, key_col);
  EXPECT_EQ(key_col[2].tag, ValueType::kInt64);
  EXPECT_EQ(key_col[2].i64, (int64_t{1} << 53) + 1);
}

TEST_F(RegistryTest, RefreshChecksUnderNewScale) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 2.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0, {Value::Double(10), Value::Double(5)},
                                 {{9, 10, 11}, {5, 5, 5}}, true)
                  .ok);
  // A pruning decision bounds the scaled sum from above at 50.
  registry_->RequireUpper(0, 1, Key(1), 50.0);
  // Scale 4 pushes the scaled envelope to [36, 44]: still fine.
  registry_->SetBlockScale(0, 4.0);
  EXPECT_TRUE(registry_->Refresh(0, Key(1), 1, true).ok);
  // Scale 6 -> scaled max 66 > 50: integrity failure.
  registry_->SetBlockScale(0, 6.0);
  const auto fail = registry_->Refresh(0, Key(1), 2, true);
  EXPECT_FALSE(fail.ok);
}

TEST_F(RegistryTest, RefreshOnMissingGroupReportsMissing) {
  ScopedThreadRole serial(engine_serial_phase);
  const auto result = registry_->Refresh(0, Key(42), 0, true);
  EXPECT_TRUE(result.missing);
}

TEST_F(RegistryTest, ConstraintsGateFailuresAndRangesNarrow) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0, {Value::Double(10), Value::Double(5)},
                                 {{9, 10, 11}, {5, 5, 5}}, true)
                  .ok);
  // Without constraints, wild movement is re-based silently.
  ASSERT_TRUE(registry_->Publish(0, Key(1), 1, {Value::Double(100), Value::Double(5)},
                                 {{90, 100, 110}, {5, 5, 5}}, true)
                  .ok);
  // Constrain, then violate.
  registry_->RequireUpper(0, 1, Key(1), 120.0);
  const auto fail = registry_->Publish(0, Key(1), 2,
                                       {Value::Double(200), Value::Double(5)},
                                       {{190, 200, 210}, {5, 5, 5}}, true);
  EXPECT_FALSE(fail.ok);
}

TEST_F(RegistryTest, RepeatedFailuresDisableTheRange) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(registry_->Publish(0, Key(1), 0,
                                   {Value::Double(10), Value::Double(5)},
                                   {{10}, {5}}, true)
                    .ok);
    registry_->RequireUpper(0, 1, Key(1), 15.0);
    const auto fail = registry_->Publish(
        0, Key(1), 1, {Value::Double(30), Value::Double(5)}, {{30}, {5}}, true);
    EXPECT_FALSE(fail.ok) << "round " << round;
    registry_->RollbackTo(0, 1);
  }
  // Third strike: the range is permanently unbounded and can't fail.
  EXPECT_TRUE(registry_->LookupRange(0, 1, Key(1)).IsUnbounded());
  ASSERT_TRUE(registry_->Publish(0, Key(1), 1,
                                 {Value::Double(1000), Value::Double(5)},
                                 {{1000}, {5}}, true)
                  .ok);
}

TEST_F(RegistryTest, RollbackErasesYoungGroups) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0, {Value::Double(1), Value::Double(1)},
                                 {{1}, {1}}, true)
                  .ok);
  ASSERT_TRUE(registry_->Publish(0, Key(2), 3, {Value::Double(2), Value::Double(2)},
                                 {{2}, {2}}, true)
                  .ok);
  EXPECT_EQ(registry_->GroupCount(0), 2u);
  registry_->RollbackTo(1, 0);
  EXPECT_EQ(registry_->GroupCount(0), 1u);
  EXPECT_TRUE(registry_->Lookup(0, 1, Key(2)).is_null());
  EXPECT_FALSE(registry_->Lookup(0, 1, Key(1)).is_null());
}

TEST_F(RegistryTest, RelationBytesAndTotalBytes) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  EXPECT_EQ(registry_->RelationBytes(0), 0u);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0, {Value::Double(1), Value::Double(1)},
                                 {{1, 1}, {1, 1}}, true)
                  .ok);
  EXPECT_GT(registry_->RelationBytes(0), 0u);
  EXPECT_GE(registry_->TotalBytes(), registry_->RelationBytes(0));
}

TEST_F(RegistryTest, ConstraintOnMissingOrKeyColumnIsIgnored) {
  ScopedThreadRole serial(engine_serial_phase);
  // Neither call may crash or create entries.
  registry_->RequireUpper(0, 1, Key(77), 1.0);
  registry_->RequireLower(0, 0, Key(1), 1.0);
  registry_->RequireContainment(0, 1, Key(77));
  EXPECT_EQ(registry_->GroupCount(0), 0u);
}

}  // namespace
}  // namespace iolap
