// Unit tests for the execution layer: ExecRow, the incremental join steps
// with cached states and rollback watermarks, and the grouped sketch.

#include <gtest/gtest.h>

#include <map>

#include "exec/batch.h"
#include "exec/hash_aggregate.h"
#include "exec/operators.h"

namespace iolap {
namespace {

ExecRow MakeRow(std::initializer_list<int64_t> values, uint64_t uid = ExecRow::kNoStream) {
  ExecRow row;
  for (int64_t v : values) row.values.push_back(Value::Int64(v));
  row.stream_uid = uid;
  return row;
}

TEST(ExecRowTest, ConcatMultipliesWeightAndKeepsUid) {
  ExecRow left = MakeRow({1}, 7);
  left.weight = 2.0;
  ExecRow right = MakeRow({2});
  right.weight = 3.0;
  const ExecRow joined = ConcatRows(left, right);
  EXPECT_EQ(joined.values.size(), 2u);
  EXPECT_DOUBLE_EQ(joined.weight, 6.0);
  EXPECT_EQ(joined.stream_uid, 7u);
  EXPECT_TRUE(joined.FromStream());
}

TEST(ExecRowTest, ConcatUidFromRightSide) {
  const ExecRow joined = ConcatRows(MakeRow({1}), MakeRow({2}, 9));
  EXPECT_EQ(joined.stream_uid, 9u);
}

TEST(ExecRowTest, RowRefReadsAndCopiesTheRow) {
  ExecRow row = MakeRow({1, 2}, 5);
  row.weight = 2.0;
  const RowRef ref = row;
  EXPECT_EQ(&ref.values, &row.values);
  EXPECT_EQ(ref.ByteSize(), row.ByteSize());
  const ExecRow copy = ref.ToOwned();
  EXPECT_EQ(copy.values.size(), 2u);
  EXPECT_DOUBLE_EQ(copy.weight, 2.0);
  EXPECT_EQ(copy.stream_uid, 5u);
}

TEST(DeltaViewTest, StreamAndAllRowsReadTheTableInPlace) {
  Table table;
  for (int64_t i = 0; i < 4; ++i) table.AddRow({Value::Int64(10 * i)});
  const std::vector<uint64_t> ids = {3, 1};
  const DeltaView stream = DeltaView::Stream(table, ids);
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(&stream[0].values, &table.row(3));
  EXPECT_EQ(stream[0].stream_uid, 3u);
  EXPECT_DOUBLE_EQ(stream[0].weight, 1.0);
  EXPECT_EQ(stream[1].stream_uid, 1u);

  const DeltaView all = DeltaView::AllRows(table);
  ASSERT_EQ(all.size(), 4u);
  size_t i = 0;
  for (const RowRef row : all) {
    EXPECT_EQ(&row.values, &table.row(i++));
    EXPECT_FALSE(row.FromStream());
  }
  EXPECT_EQ(DeltaView().size(), 0u);
}

// --------------------------------------------------------- InputCache

TEST(InputCacheTest, AppendAndMatch) {
  InputCache cache({0});
  cache.Append(MakeRow({1, 10}));
  cache.Append(MakeRow({2, 20}));
  cache.Append(MakeRow({1, 30}));
  EXPECT_EQ(cache.Matches({Value::Int64(1)}).size(), 2u);
  EXPECT_EQ(cache.Matches({Value::Int64(2)}).size(), 1u);
  EXPECT_TRUE(cache.Matches({Value::Int64(3)}).empty());
  EXPECT_GT(cache.ByteSize(), 0u);
}

TEST(InputCacheTest, TruncateRollsBackIndexAndBytes) {
  InputCache cache({0});
  cache.Append(MakeRow({1}));
  const size_t mark = cache.watermark();
  const size_t bytes = cache.ByteSize();
  cache.Append(MakeRow({1}));
  cache.Append(MakeRow({2}));
  EXPECT_EQ(cache.Matches({Value::Int64(1)}).size(), 2u);
  cache.TruncateTo(mark);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.ByteSize(), bytes);
  EXPECT_EQ(cache.Matches({Value::Int64(1)}).size(), 1u);
  EXPECT_TRUE(cache.Matches({Value::Int64(2)}).empty());
}

// ------------------------------------------------------------ JoinStep

// Joins owned batches through views over them.
size_t Join(JoinStep* step, const RowBatch& prefix, const RowBatch& input,
            RowBatch* out) {
  return step->ProcessBatch(DeltaView(prefix), DeltaView(input), out);
}

// Incremental Δ(P ⋈ I) over several batches must equal the full join.
TEST(JoinStepTest, IncrementalEqualsFullJoin) {
  JoinStep step({0}, {0}, /*input_grows=*/true, /*prefix_grows=*/true);
  std::vector<std::pair<int, int>> produced;  // (left payload, right payload)

  auto deliver = [&](std::vector<std::pair<int64_t, int64_t>> left,
                     std::vector<std::pair<int64_t, int64_t>> right) {
    RowBatch lp, rp;
    for (auto [k, v] : left) lp.push_back(MakeRow({k, v}));
    for (auto [k, v] : right) rp.push_back(MakeRow({k, v}));
    RowBatch out;
    Join(&step, lp, rp, &out);
    for (const ExecRow& row : out) {
      produced.emplace_back(static_cast<int>(row.values[1].int64()),
                            static_cast<int>(row.values[3].int64()));
    }
  };

  // Batch 0: L={a:1}, R={a:10} -> (1,10)
  deliver({{5, 1}}, {{5, 10}});
  // Batch 1: L+={a:2}, R+={a:20}:
  //   new pairs: (1,20) [old P x dR], (2,10), (2,20) [dP x R_new]
  deliver({{5, 2}}, {{5, 20}});
  // Batch 2: only right grows: (1,30), (2,30)
  deliver({}, {{5, 30}});
  // Batch 3: only left grows: (3,10), (3,20), (3,30)
  deliver({{5, 3}}, {});

  std::sort(produced.begin(), produced.end());
  std::vector<std::pair<int, int>> expected;
  for (int l = 1; l <= 3; ++l) {
    for (int r = 10; r <= 30; r += 10) expected.emplace_back(l, r);
  }
  EXPECT_EQ(produced, expected);
}

TEST(JoinStepTest, NoDuplicatesWithinBatch) {
  JoinStep step({0}, {0}, true, true);
  RowBatch left = {MakeRow({1, 100})};
  RowBatch right = {MakeRow({1, 200})};
  RowBatch out;
  // Two cache appends and one joined row copied.
  EXPECT_EQ(Join(&step, left, right, &out), 3u);
  EXPECT_EQ(out.size(), 1u);  // ΔP⋈ΔI counted exactly once
}

TEST(JoinStepTest, StaticInputKeepsNoPrefixCache) {
  // input_grows=false: the prefix cache is not maintained.
  JoinStep step({0}, {0}, /*input_grows=*/false, /*prefix_grows=*/true);
  RowBatch dim = {MakeRow({1, 7})};
  RowBatch out;
  Join(&step, {}, dim, &out);
  const size_t bytes_after_dim = step.StateBytes();
  RowBatch fact = {MakeRow({1, 1}), MakeRow({1, 2})};
  out.clear();
  Join(&step, fact, {}, &out);
  EXPECT_EQ(out.size(), 2u);
  // Only the dimension side is cached; fact rows were not added.
  EXPECT_EQ(step.StateBytes(), bytes_after_dim);
}

TEST(JoinStepTest, WatermarkRollback) {
  JoinStep step({0}, {0}, true, true);
  RowBatch out;
  Join(&step, {MakeRow({1, 1})}, {MakeRow({1, 10})}, &out);
  const auto mark = step.watermark();
  Join(&step, {MakeRow({1, 2})}, {MakeRow({1, 20})}, &out);
  step.TruncateTo(mark);
  // Replaying the second batch reproduces the same deltas.
  RowBatch replay;
  Join(&step, {MakeRow({1, 2})}, {MakeRow({1, 20})}, &replay);
  EXPECT_EQ(replay.size(), 3u);  // (1,20), (2,10), (2,20)
}

TEST(JoinStepTest, CrossJoinEmptyKeys) {
  JoinStep step({}, {}, true, true);
  RowBatch out;
  Join(&step, {MakeRow({1}), MakeRow({2})}, {MakeRow({10})}, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(JoinStepTest, ProbeCount) {
  JoinStep step({0}, {0}, false, true);
  RowBatch dim;
  for (int i = 0; i < 5; ++i) dim.push_back(MakeRow({i % 2, i}));
  RowBatch out;
  Join(&step, {}, dim, &out);
  EXPECT_EQ(step.ProbeCount({Value::Int64(0)}), 3u);
  EXPECT_EQ(step.ProbeCount({Value::Int64(1)}), 2u);
}

// ------------------------------------------- JoinStep over borrowed views

// The engine feeds JoinStep views that borrow catalog rows; before, it fed
// owned copies of the same rows. Each batch below runs through two steps,
// one reading the views and one reading copies, and the two must agree
// row for row, in order, with the same cache bytes.

RowBatch Own(const DeltaView& view) {
  RowBatch rows;
  for (const RowRef row : view) rows.push_back(row.ToOwned());
  return rows;
}

void ExpectSameRows(const RowBatch& got, const RowBatch& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].values.size(), want[r].values.size()) << "row " << r;
    for (size_t c = 0; c < want[r].values.size(); ++c) {
      EXPECT_TRUE(got[r].values[c].Equals(want[r].values[c]))
          << "row " << r << " col " << c;
    }
    EXPECT_EQ(got[r].weight, want[r].weight) << "row " << r;
    EXPECT_EQ(got[r].stream_uid, want[r].stream_uid) << "row " << r;
  }
}

struct TwinSteps {
  JoinStep viewed;
  JoinStep owned;

  explicit TwinSteps(bool input_grows)
      : viewed({0}, {0}, input_grows, true),
        owned({0}, {0}, input_grows, true) {}

  /// One batch through both steps; returns the joined rows.
  RowBatch Run(const DeltaView& prefix, const DeltaView& input) {
    RowBatch from_views;
    RowBatch from_copies;
    const size_t copied = viewed.ProcessBatch(prefix, input, &from_views);
    const RowBatch prefix_rows = Own(prefix);
    const RowBatch input_rows = Own(input);
    EXPECT_EQ(copied, owned.ProcessBatch(DeltaView(prefix_rows),
                                         DeltaView(input_rows), &from_copies));
    ExpectSameRows(from_views, from_copies);
    EXPECT_EQ(viewed.StateBytes(), owned.StateBytes());
    return from_views;
  }
};

// A streamed fact table: row i is (i % 3, 100 + i).
Table FactTable() {
  Table fact;
  for (int64_t i = 0; i < 12; ++i) {
    fact.AddRow({Value::Int64(i % 3), Value::Int64(100 + i)});
  }
  return fact;
}

TEST(JoinStepViewTest, IncrementalEqualsFullJoinOverViews) {
  const Table fact = FactTable();
  const std::vector<std::vector<uint64_t>> batches = {
      {7, 2, 9}, {0, 5}, {}, {11, 1, 4, 3}};
  const std::vector<RowBatch> dims = {
      {MakeRow({0, 10}), MakeRow({1, 11})}, {MakeRow({2, 12})},
      {MakeRow({0, 20})}, {}};
  TwinSteps steps(/*input_grows=*/true);
  size_t joined = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const RowBatch out = steps.Run(DeltaView::Stream(fact, batches[b]),
                                   DeltaView(dims[b]));
    for (const ExecRow& row : out) {
      // Every joined row keeps its fact row's id as its stream uid.
      EXPECT_TRUE(fact.row(row.stream_uid)[1].Equals(row.values[1]));
    }
    joined += out.size();
  }
  // The full join: 9 fact rows streamed, three per key; key 0 has two
  // dimension rows, keys 1 and 2 one each.
  EXPECT_EQ(joined, 3u * 2 + 3u * 1 + 3u * 1);
}

TEST(JoinStepViewTest, WatermarkRollbackOverViews) {
  const Table fact = FactTable();
  const std::vector<uint64_t> first = {1, 4};
  const std::vector<uint64_t> second = {7, 10, 3};
  const RowBatch dim_first = {MakeRow({1, 10})};
  const RowBatch dim_second = {MakeRow({1, 20}), MakeRow({0, 30})};
  TwinSteps steps(/*input_grows=*/true);
  steps.Run(DeltaView::Stream(fact, first), DeltaView(dim_first));
  const auto mark = steps.viewed.watermark();
  const RowBatch before = steps.Run(DeltaView::Stream(fact, second),
                                    DeltaView(dim_second));
  steps.viewed.TruncateTo(mark);
  steps.owned.TruncateTo(mark);
  EXPECT_EQ(steps.viewed.StateBytes(), steps.owned.StateBytes());
  // Replaying the rolled-back batch reproduces its rows exactly.
  const RowBatch replay = steps.Run(DeltaView::Stream(fact, second),
                                    DeltaView(dim_second));
  ExpectSameRows(replay, before);
}

TEST(JoinStepViewTest, StaticInputOverViews) {
  const Table fact = FactTable();
  Table dim;
  dim.AddRow({Value::Int64(0), Value::String("zero")});
  dim.AddRow({Value::Int64(2), Value::String("two")});
  TwinSteps steps(/*input_grows=*/false);
  // Batch 0 delivers the whole static table, read in place.
  const std::vector<uint64_t> first = {0, 1, 2, 3};
  steps.Run(DeltaView::Stream(fact, first), DeltaView::AllRows(dim));
  const size_t dim_bytes = steps.viewed.StateBytes();
  const std::vector<uint64_t> second = {5, 6, 8};
  const RowBatch out = steps.Run(DeltaView::Stream(fact, second), DeltaView());
  EXPECT_EQ(out.size(), 3u);  // fact rows 5 (key 2), 6 (key 0), 8 (key 2)
  for (const ExecRow& row : out) EXPECT_FALSE(row.values[3].is_null());
  // Only the static side is cached; the streamed rows were not copied in.
  EXPECT_EQ(steps.viewed.StateBytes(), dim_bytes);
}

// ----------------------------------------------- GroupedAggregateState

std::vector<AggSpec> SumSpec() {
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{MakeBuiltinAggFunction(AggKind::kSum),
                          Col(0, "x", ValueType::kDouble), "s"});
  return specs;
}

TEST(GroupedAggregateTest, GetOrCreateTracksFirstBatch) {
  auto specs = SumSpec();
  GroupedAggregateState state(&specs, 2);
  bool created = false;
  auto& cells = state.GetOrCreate({Value::Int64(1)}, 3, &created);
  EXPECT_TRUE(created);
  EXPECT_EQ(cells.first_batch, 3);
  EXPECT_EQ(cells.aggs.size(), 1u);
  state.GetOrCreate({Value::Int64(1)}, 5, &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(state.num_groups(), 1u);
}

double MainSum(const GroupedAggregateState::GroupCells& cells) {
  return cells.aggs[0].MainResult(1.0).AsDouble();
}

// A snapshot is a deep copy in effect: writes to the live state after the
// capture never reach the captured cells.
TEST(GroupedAggregateTest, CloneIsDeep) {
  auto specs = SumSpec();
  GroupedAggregateState state(&specs, 0);
  state.GetOrCreate({Value::Int64(1)}, 0).aggs[0].AddMainOnly(
      Value::Double(5), 1.0);
  const GroupedAggregateState::Snapshot snapshot = state.Capture();
  state.GetOrCreate({Value::Int64(1)}, 0).aggs[0].AddMainOnly(
      Value::Double(7), 1.0);
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_DOUBLE_EQ(MainSum(*snapshot[0]), 5.0);
  EXPECT_DOUBLE_EQ(MainSum(*state.Find({Value::Int64(1)})), 12.0);

  GroupedAggregateState restored(&specs, 0);
  restored.Restore(snapshot);
  EXPECT_DOUBLE_EQ(MainSum(*restored.Find({Value::Int64(1)})), 5.0);
}

// Capture, touch one group, capture again: the second snapshot shares
// every untouched cell by pointer, holds a fresh copy of the touched one,
// and the first snapshot still reads the old values.
TEST(GroupedAggregateTest, CaptureSharesUntouchedCells) {
  auto specs = SumSpec();
  GroupedAggregateState state(&specs, 3);
  for (int g = 0; g < 8; ++g) {
    state.GetOrCreate({Value::Int64(g)}, 0).aggs[0].AddMainOnly(
        Value::Double(g), 1.0);
  }
  const GroupedAggregateState::Snapshot first = state.Capture();
  state.GetOrCreate({Value::Int64(5)}, 1).aggs[0].AddMainOnly(
      Value::Double(100), 1.0);
  const GroupedAggregateState::Snapshot second = state.Capture();
  ASSERT_EQ(first.size(), 8u);
  ASSERT_EQ(second.size(), 8u);

  std::map<int64_t, const GroupedAggregateState::GroupCells*> before;
  for (const auto& cell : first) before[cell->key[0].int64()] = cell.get();
  for (const auto& cell : second) {
    const int64_t g = cell->key[0].int64();
    EXPECT_TRUE(cell->frozen);
    if (g == 5) {
      EXPECT_NE(cell.get(), before[g]);
      EXPECT_DOUBLE_EQ(MainSum(*cell), 105.0);
      EXPECT_DOUBLE_EQ(MainSum(*before[g]), 5.0);
    } else {
      EXPECT_EQ(cell.get(), before[g]) << "group " << g;
    }
  }
  // Every captured cell's cached hash and size match its contents.
  for (const auto* snapshot : {&first, &second}) {
    for (const auto& cell : *snapshot) {
      EXPECT_EQ(cell->content_hash, cell->ContentHash());
      EXPECT_EQ(cell->byte_size, cell->ComputeByteSize());
    }
  }
}

// ByteSize is a running count over frozen cells plus the open ones; it
// equals a recount after captures, copy-on-write touches and a restore.
TEST(GroupedAggregateTest, ByteSizeMatchesRecount) {
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{MakeBuiltinAggFunction(AggKind::kSum),
                          Col(0, "x", ValueType::kDouble), "s"});
  specs.push_back(AggSpec{MakeBuiltinAggFunction(AggKind::kAvg),
                          Col(0, "x", ValueType::kDouble), "a"});
  GroupedAggregateState state(&specs, 4);
  const auto recount = [&state] {
    size_t total = 0;
    for (const auto& [key, cell] : state.groups()) {
      total += cell->ComputeByteSize();
    }
    return total;
  };
  for (int g = 0; g < 6; ++g) {
    state.GetOrCreate({Value::String("g" + std::to_string(g))}, 0);
  }
  EXPECT_EQ(state.ByteSize(), recount());
  const GroupedAggregateState::Snapshot snapshot = state.Capture();
  EXPECT_EQ(state.ByteSize(), recount());
  state.GetOrCreate({Value::String("g2")}, 1);
  state.GetOrCreate({Value::String("a much longer group key")}, 1);
  EXPECT_EQ(state.ByteSize(), recount());
  state.Restore(snapshot);
  EXPECT_EQ(state.ByteSize(), recount());
  state.Clear();
  EXPECT_EQ(state.ByteSize(), 0u);
}

TEST(GroupedAggregateTest, ByteSizeGrowsWithGroups) {
  auto specs = SumSpec();
  GroupedAggregateState state(&specs, 4);
  const size_t empty = state.ByteSize();
  for (int g = 0; g < 10; ++g) state.GetOrCreate({Value::Int64(g)}, 0);
  EXPECT_GT(state.ByteSize(), empty);
}

}  // namespace
}  // namespace iolap
