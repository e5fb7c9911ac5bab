// Unit tests for aggregate accumulators, scaling, merging and UDAFs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "bootstrap/poisson_multiplicities.h"
#include "core/aggregate.h"
#include "core/function_registry.h"

namespace iolap {
namespace {

std::unique_ptr<AggAccumulator> NewAcc(AggKind kind) {
  return MakeBuiltinAggFunction(kind)->NewAccumulator(1);
}

TEST(AggregateTest, CountScalesWithMultiplicity) {
  auto acc = NewAcc(AggKind::kCount);
  acc->Add(0, Value::Int64(1), 1.0);
  acc->Add(0, Value::Int64(2), 2.0);  // weight 2 = seen "twice"
  EXPECT_DOUBLE_EQ(acc->Result(0, 1.0).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(acc->Result(0, 10.0).AsDouble(), 30.0);
}

TEST(AggregateTest, CountIgnoresNull) {
  auto acc = NewAcc(AggKind::kCount);
  acc->Add(0, Value::Null(), 1.0);
  acc->Add(0, Value::Int64(5), 1.0);
  EXPECT_DOUBLE_EQ(acc->Result(0, 1.0).AsDouble(), 1.0);
}

TEST(AggregateTest, SumScalesAvgDoesNot) {
  auto sum = NewAcc(AggKind::kSum);
  auto avg = NewAcc(AggKind::kAvg);
  for (int x : {10, 20, 30}) {
    sum->Add(0, Value::Int64(x), 1.0);
    avg->Add(0, Value::Int64(x), 1.0);
  }
  EXPECT_DOUBLE_EQ(sum->Result(0, 2.0).AsDouble(), 120.0);
  EXPECT_DOUBLE_EQ(avg->Result(0, 2.0).AsDouble(), 20.0);  // ratio: scale cancels
}

TEST(AggregateTest, EmptySumAndAvgAreNull) {
  EXPECT_TRUE(NewAcc(AggKind::kSum)->Result(0, 1.0).is_null());
  EXPECT_TRUE(NewAcc(AggKind::kAvg)->Result(0, 1.0).is_null());
  EXPECT_DOUBLE_EQ(NewAcc(AggKind::kCount)->Result(0, 1.0).AsDouble(), 0.0);
}

TEST(AggregateTest, MinMax) {
  auto mn = NewAcc(AggKind::kMin);
  auto mx = NewAcc(AggKind::kMax);
  for (int x : {5, -3, 9}) {
    mn->Add(0, Value::Int64(x), 1.0);
    mx->Add(0, Value::Int64(x), 1.0);
  }
  EXPECT_EQ(mn->Result(0, 1.0).int64(), -3);
  EXPECT_EQ(mx->Result(0, 1.0).int64(), 9);
}

TEST(AggregateTest, MinMaxNotSampleable) {
  EXPECT_FALSE(MakeBuiltinAggFunction(AggKind::kMin)->SupportsSampling());
  EXPECT_FALSE(MakeBuiltinAggFunction(AggKind::kMax)->SupportsSampling());
  EXPECT_TRUE(MakeBuiltinAggFunction(AggKind::kAvg)->SupportsSampling());
}

TEST(AggregateTest, VarianceAndStddev) {
  auto var = NewAcc(AggKind::kVar);
  auto sd = NewAcc(AggKind::kStddev);
  for (int x : {2, 4, 4, 4, 5, 5, 7, 9}) {
    var->Add(0, Value::Int64(x), 1.0);
    sd->Add(0, Value::Int64(x), 1.0);
  }
  EXPECT_NEAR(var->Result(0, 1.0).AsDouble(), 4.0, 1e-9);
  EXPECT_NEAR(sd->Result(0, 1.0).AsDouble(), 2.0, 1e-9);
}

TEST(AggregateTest, MergeEqualsSequential) {
  auto a = NewAcc(AggKind::kAvg);
  auto b = NewAcc(AggKind::kAvg);
  auto whole = NewAcc(AggKind::kAvg);
  for (int x = 0; x < 10; ++x) {
    (x % 2 == 0 ? a : b)->Add(0, Value::Int64(x), 1.0);
    whole->Add(0, Value::Int64(x), 1.0);
  }
  a->Merge(*b);
  EXPECT_DOUBLE_EQ(a->Result(0, 1.0).AsDouble(), whole->Result(0, 1.0).AsDouble());
}

TEST(AggregateTest, CloneIsIndependent) {
  auto acc = NewAcc(AggKind::kSum);
  acc->Add(0, Value::Int64(10), 1.0);
  auto copy = acc->Clone();
  copy->Add(0, Value::Int64(5), 1.0);
  EXPECT_DOUBLE_EQ(acc->Result(0, 1.0).AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(copy->Result(0, 1.0).AsDouble(), 15.0);
}

TEST(AggregateTest, ByteSizeIsSmall) {
  // Sketch states must be sub-linear: a handful of doubles.
  EXPECT_LE(NewAcc(AggKind::kAvg)->ByteSize(), 64u);
  EXPECT_LE(NewAcc(AggKind::kVar)->ByteSize(), 64u);
}

TEST(AggregateTest, KindFromName) {
  EXPECT_EQ(AggKindFromName("sum"), AggKind::kSum);
  EXPECT_EQ(AggKindFromName("stddev"), AggKind::kStddev);
  EXPECT_EQ(AggKindFromName("geomean"), AggKind::kUdaf);
}

class UdafTest : public ::testing::Test {
 protected:
  UdafTest() : registry_(FunctionRegistry::Default()) {}

  std::unique_ptr<AggAccumulator> NewUdaf(const std::string& name) {
    auto fn = registry_->FindAggregate(name);
    EXPECT_TRUE(fn.ok()) << name;
    return (*fn)->NewAccumulator(1);
  }

  std::shared_ptr<FunctionRegistry> registry_;
};

TEST_F(UdafTest, Geomean) {
  auto acc = NewUdaf("geomean");
  acc->Add(0, Value::Double(2.0), 1.0);
  acc->Add(0, Value::Double(8.0), 1.0);
  EXPECT_NEAR(acc->Result(0, 1.0).AsDouble(), 4.0, 1e-9);
  // Non-positive values are skipped, not poisoned.
  acc->Add(0, Value::Double(-1.0), 1.0);
  EXPECT_NEAR(acc->Result(0, 1.0).AsDouble(), 4.0, 1e-9);
}

TEST_F(UdafTest, HarmonicMean) {
  auto acc = NewUdaf("harmonic_mean");
  acc->Add(0, Value::Double(1.0), 1.0);
  acc->Add(0, Value::Double(2.0), 1.0);
  EXPECT_NEAR(acc->Result(0, 1.0).AsDouble(), 4.0 / 3.0, 1e-9);
}

TEST_F(UdafTest, Rms) {
  auto acc = NewUdaf("rms");
  acc->Add(0, Value::Double(3.0), 1.0);
  acc->Add(0, Value::Double(4.0), 1.0);
  EXPECT_NEAR(acc->Result(0, 1.0).AsDouble(), std::sqrt(12.5), 1e-9);
}

TEST_F(UdafTest, UdafsAreSmooth) {
  for (const char* name : {"geomean", "harmonic_mean", "rms"}) {
    auto fn = registry_->FindAggregate(name);
    ASSERT_TRUE(fn.ok());
    EXPECT_TRUE((*fn)->SupportsSampling()) << name;
  }
}

TEST_F(UdafTest, UdafMergeAndClone) {
  auto a = NewUdaf("rms");
  a->Add(0, Value::Double(3.0), 1.0);
  auto b = NewUdaf("rms");
  b->Add(0, Value::Double(4.0), 1.0);
  auto c = a->Clone();
  c->Merge(*b);
  EXPECT_NEAR(c->Result(0, 1.0).AsDouble(), std::sqrt(12.5), 1e-9);
  EXPECT_NEAR(a->Result(0, 1.0).AsDouble(), 3.0, 1e-9);  // a untouched
}

TEST_F(UdafTest, WeightedUdaf) {
  // A bootstrap trial weighting of 2 must equal adding the value twice.
  auto weighted = NewUdaf("geomean");
  weighted->Add(0, Value::Double(2.0), 2.0);
  weighted->Add(0, Value::Double(8.0), 1.0);
  auto repeated = NewUdaf("geomean");
  repeated->Add(0, Value::Double(2.0), 1.0);
  repeated->Add(0, Value::Double(2.0), 1.0);
  repeated->Add(0, Value::Double(8.0), 1.0);
  EXPECT_NEAR(weighted->Result(0, 1.0).AsDouble(),
              repeated->Result(0, 1.0).AsDouble(), 1e-9);
}

// ------------------------------------------- replicated fold kernels
//
// An R-replica accumulator must behave, bit for bit, like R independent
// single-replica accumulators that each see the inputs of their replica
// (multiplicity weight * tw[r], skipped when zero): range folds, clones,
// merges and byte sizes alike.

constexpr int kReplicas = 20;

struct FoldInput {
  Value v;
  double weight;
  bool uniform;  // true: no per-replica weights (tw = nullptr)
};

void ExpectSameBits(const Value& a, const Value& b, const std::string& where) {
  ASSERT_EQ(a.type(), b.type()) << where;
  if (a.type() == ValueType::kDouble) {
    uint64_t x;
    uint64_t y;
    const double da = a.dbl();
    const double db = b.dbl();
    std::memcpy(&x, &da, sizeof(x));
    std::memcpy(&y, &db, sizeof(y));
    EXPECT_EQ(x, y) << where << ": " << da << " vs " << db;
  } else if (!a.is_null()) {
    EXPECT_TRUE(a.Equals(b)) << where;
  }
}

// Packed Poisson weights for input i, with replicas 0 and 7 forced to zero
// so every scenario exercises skipped replicas.
std::vector<uint8_t> WeightsFor(size_t i) {
  std::vector<uint8_t> tw(kReplicas);
  BootstrapWeights(11, kReplicas).Fill(i, tw.data());
  tw[0] = 0;
  tw[7] = 0;
  return tw;
}

struct ReplicaFolds {
  std::unique_ptr<AggAccumulator> range;  // R replicas, range folds
  std::vector<std::unique_ptr<AggAccumulator>> single;  // R x (R = 1)
};

ReplicaFolds NewFolds(const AggFunction& fn) {
  ReplicaFolds folds;
  folds.range = fn.NewAccumulator(kReplicas);
  for (int r = 0; r < kReplicas; ++r) {
    folds.single.push_back(fn.NewAccumulator(1));
  }
  return folds;
}

// Folds `inputs` into the range accumulator as two sub-ranges split at
// `split`, and into the single-replica oracles one replica at a time.
void Fold(const std::vector<FoldInput>& inputs, int split,
          ReplicaFolds* folds) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    const FoldInput& in = inputs[i];
    const std::vector<uint8_t> tw = WeightsFor(i);
    const uint8_t* w = in.uniform ? nullptr : tw.data();
    folds->range->AddRange(in.v, in.weight, w, 0, split);
    folds->range->AddRange(in.v, in.weight, w != nullptr ? w + split : nullptr,
                           split, kReplicas);
    for (int r = 0; r < kReplicas; ++r) {
      const double wr = w != nullptr ? in.weight * w[r] : in.weight;
      if (wr != 0.0) folds->single[r]->Add(0, in.v, wr);
    }
  }
}

void ExpectReplicasMatch(const ReplicaFolds& folds, const std::string& where) {
  size_t bytes = 0;
  for (int r = 0; r < kReplicas; ++r) {
    ExpectSameBits(folds.range->Result(r, 3.0),
                   folds.single[r]->Result(0, 3.0),
                   where + " replica " + std::to_string(r));
    bytes += folds.single[r]->ByteSize();
  }
  EXPECT_EQ(folds.range->ByteSize(), bytes) << where;
}

std::vector<std::shared_ptr<const AggFunction>> AllAggFunctions() {
  std::vector<std::shared_ptr<const AggFunction>> fns;
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                       AggKind::kMin, AggKind::kMax, AggKind::kVar,
                       AggKind::kStddev}) {
    fns.push_back(MakeBuiltinAggFunction(kind));
  }
  auto registry = FunctionRegistry::Default();
  for (const char* name : {"geomean", "harmonic_mean", "rms"}) {
    fns.push_back(*registry->FindAggregate(name));
  }
  return fns;
}

std::vector<std::vector<FoldInput>> NumericScenarios() {
  const double inf = std::numeric_limits<double>::infinity();
  return {
      // Finite values, NULL, zero and negative inputs (skipped by geomean
      // and harmonic_mean), -0.0, a zero row weight and uniform rows.
      {{Value::Double(1.5), 1.0, false},
       {Value::Double(-2.25), 1.0, false},
       {Value::Null(), 1.0, false},
       {Value::Double(0.0), 1.0, false},
       {Value::Double(-0.0), 1.0, false},
       {Value::Double(7.0), 0.0, false},
       {Value::Int64(4), 0.5, false},
       {Value::Double(2.5), 1.0, true},
       {Value::Double(5.0), 0.0, true},
       {Value::Double(1e-3), 3.0, false}},
      // +inf: zero multiplicities must stay skipped (0 * inf = NaN).
      {{Value::Double(1.5), 1.0, false},
       {Value::Double(inf), 1.0, false},
       {Value::Double(2.0), 1.0, false}},
      {{Value::Double(-inf), 1.0, false},
       {Value::Double(3.0), 1.0, false},
       {Value::Double(-inf), 0.0, true}},
  };
}

TEST(ReplicatedFoldTest, RangeFoldEqualsSingleReplicaFolds) {
  const auto scenarios = NumericScenarios();
  for (const auto& fn : AllAggFunctions()) {
    for (size_t s = 0; s < scenarios.size(); ++s) {
      for (int split : {0, 1, 9, kReplicas}) {
        ReplicaFolds folds = NewFolds(*fn);
        Fold(scenarios[s], split, &folds);
        ExpectReplicasMatch(folds, fn->name() + " scenario " +
                                       std::to_string(s) + " split " +
                                       std::to_string(split));
      }
    }
  }
}

TEST(ReplicatedFoldTest, StringMinMax) {
  const std::vector<FoldInput> inputs = {
      {Value::String("pear"), 1.0, false},
      {Value::String("apple"), 1.0, false},
      {Value::Null(), 1.0, false},
      {Value::String("zucchini-with-a-long-name"), 1.0, false},
      {Value::String("aardvark"), 0.0, false},
      {Value::String("fig"), 1.0, true},
  };
  for (AggKind kind : {AggKind::kMin, AggKind::kMax}) {
    auto fn = MakeBuiltinAggFunction(kind);
    ReplicaFolds folds = NewFolds(*fn);
    Fold(inputs, 9, &folds);
    ExpectReplicasMatch(folds, fn->name());
  }
}

TEST(ReplicatedFoldTest, CloneAndMergeAreReplicaWise) {
  const auto scenarios = NumericScenarios();
  for (const auto& fn : AllAggFunctions()) {
    const std::string where = fn->name();
    ReplicaFolds a = NewFolds(*fn);
    ReplicaFolds b = NewFolds(*fn);
    Fold(scenarios[0], 9, &a);
    Fold(scenarios[1], 3, &b);

    // Clone: an equal, independent copy.
    ReplicaFolds copy;
    copy.range = a.range->Clone();
    for (const auto& single : a.single) copy.single.push_back(single->Clone());
    ExpectReplicasMatch(copy, where + " clone");
    Fold(scenarios[2], 5, &copy);
    ExpectReplicasMatch(a, where + " original after clone folds");

    // Merge: replica r of the merge is the merge of replica r's oracles.
    a.range->Merge(*b.range);
    for (int r = 0; r < kReplicas; ++r) a.single[r]->Merge(*b.single[r]);
    ExpectReplicasMatch(a, where + " merge");
  }
}

TEST(ReplicatedFoldTest, ByteSizeIsPerReplicaFootprint) {
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
    EXPECT_EQ(MakeBuiltinAggFunction(kind)->NewAccumulator(101)->ByteSize(),
              101 * 2 * sizeof(double));
  }
  for (AggKind kind : {AggKind::kVar, AggKind::kStddev}) {
    EXPECT_EQ(MakeBuiltinAggFunction(kind)->NewAccumulator(101)->ByteSize(),
              101 * 3 * sizeof(double));
  }
  auto registry = FunctionRegistry::Default();
  for (const char* name : {"geomean", "harmonic_mean", "rms"}) {
    EXPECT_EQ((*registry->FindAggregate(name))->NewAccumulator(61)->ByteSize(),
              61 * 2 * sizeof(double))
        << name;
  }
  // MIN/MAX: each replica's Value plus what it owns.
  auto min = MakeBuiltinAggFunction(AggKind::kMin)->NewAccumulator(3);
  min->Add(1, Value::String("abc"), 1.0);
  EXPECT_EQ(min->ByteSize(),
            3 * sizeof(Value) + 2 * Value::Null().ByteSize() +
                Value::String("abc").ByteSize());
}

}  // namespace
}  // namespace iolap
