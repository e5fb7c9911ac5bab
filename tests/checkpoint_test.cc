// Copy-on-write checkpoints and the engine's running byte counters, over
// the whole workload corpus:
//
//  * every checkpoint in the ring carries a checksum (summed from the hash
//    each sketch cell cached when it froze) that equals a recompute from
//    the cells' contents, with compilation on/off at 0 and 4 threads;
//  * restoring any ring entry, after later batches replaced its cells by
//    copy-on-write clones, replays bit-identically;
//  * after every batch — also after restores and full restarts — the byte
//    counters equal a from-scratch rescan of the state they describe,
//    including the JOIN caches, which copy the rows they take out of
//    borrowed batch deltas.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "iolap/query_controller.h"
#include "iolap/session.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

namespace iolap {

/// Reads the private engine state the byte counters and the checkpoint
/// ring describe.
class CheckpointTestPeer {
 public:
  using Ring = std::deque<
      std::vector<std::shared_ptr<const BlockExecutor::Checkpoint>>>;

  static const Ring& CheckpointRing(const QueryController& controller) {
    return controller.checkpoints_;
  }

  /// Bytes of everything BatchMetrics::other_state_bytes covers, counted
  /// from scratch with the byte model's formulas.
  static size_t RescanOtherStateBytes(const QueryController& controller) {
    size_t total = 0;
    for (const auto& executor : controller.executors_) {
      for (const auto& [key, cell] : executor->sketch_.groups()) {
        total += RowByteSize(key) + sizeof(int);
        for (const TrialAccumulatorSet& acc : cell->aggs) {
          total += acc.ByteSize();
        }
      }
      for (const ExecRow& row : executor->pending_) total += row.ByteSize();
      for (const ExecRow& row : executor->sink_rows_) total += row.ByteSize();
      for (const Row& key : executor->emitted_order_) {
        total += RowByteSize(key);
      }
    }
    for (size_t b = 0; b < controller.registry_->relations_.size(); ++b) {
      total += RescanRelationBytes(*controller.registry_, b);
      for (const auto& [key, entry] :
           controller.registry_->relations_[b].entries) {
        for (const VariationRangeTracker& tracker : entry.ranges) {
          total += tracker.ByteSize();
        }
      }
    }
    return total;
  }

  /// Bytes of every JOIN cache (BatchMetrics::join_state_bytes), counted
  /// row by row.
  static size_t RescanJoinStateBytes(const QueryController& controller) {
    const auto rescan = [](const InputCache& cache) {
      size_t bytes = 0;
      for (uint32_t pos = 0; pos < cache.size(); ++pos) {
        bytes += cache.row(pos).ByteSize();
      }
      return bytes;
    };
    size_t total = 0;
    for (const auto& executor : controller.executors_) {
      for (const JoinStep& step : executor->join_steps_) {
        total += rescan(step.input_cache_);
        if (step.keep_prefix_) total += rescan(step.prefix_cache_);
      }
    }
    return total;
  }

  static size_t RescanRelationBytes(const AggregateRegistry& registry,
                                    size_t block) {
    size_t total = 0;
    for (const auto& [key, entry] : registry.relations_[block].entries) {
      total += RowByteSize(key);
      for (const Value& v : entry.main) total += v.ByteSize();
      for (const auto& trials : entry.trials) {
        total += trials.size() * sizeof(double);
      }
    }
    return total;
  }

  static const AggregateRegistry& Registry(const QueryController& c) {
    return *c.registry_;
  }
};

namespace {

std::shared_ptr<FunctionRegistry> Functions() {
  static std::shared_ptr<FunctionRegistry> functions = [] {
    auto f = FunctionRegistry::Default();
    RegisterConvivaUdfs(f.get());
    return f;
  }();
  return functions;
}

std::shared_ptr<Catalog> TpchCatalog(const std::string& streamed) {
  static std::map<std::string, std::shared_ptr<Catalog>> cache;
  auto it = cache.find(streamed);
  if (it != cache.end()) return it->second;
  TpchConfig config;
  auto catalog = MakeTpchCatalog(config.Scaled(0.01), streamed);
  EXPECT_TRUE(catalog.ok()) << catalog.status();
  return cache.emplace(streamed, *catalog).first->second;
}

std::shared_ptr<Catalog> ConvivaCatalog() {
  static std::shared_ptr<Catalog> catalog = [] {
    ConvivaConfig config;
    auto made = MakeConvivaCatalog(config.Scaled(0.01));
    EXPECT_TRUE(made.ok()) << made.status();
    return *made;
  }();
  return catalog;
}

struct Case {
  std::string name;
  std::shared_ptr<Catalog> catalog;
  std::string sql;
  bool nested = false;
};

std::vector<Case> Corpus() {
  std::vector<Case> cases;
  for (const BenchQuery& q : TpchQueries()) {
    cases.push_back(
        {"tpch_" + q.id, TpchCatalog(q.streamed_table), q.sql, q.nested});
  }
  for (const BenchQuery& q : ConvivaQueries()) {
    cases.push_back({"conviva_" + q.id, ConvivaCatalog(), q.sql, q.nested});
  }
  return cases;
}

struct Config {
  bool compile = true;
  size_t threads = 0;
  int batches = 6;
  std::string failpoints;
  /// OPT2; off, the shipped-bytes model charges the pending byte counter.
  bool lazy_lineage = true;
};

EngineOptions OptionsFor(const Config& config) {
  EngineOptions options;
  options.num_trials = 16;
  options.num_batches = config.batches;
  options.seed = 99;
  options.compile_expressions = config.compile;
  options.num_threads = config.threads;
  options.failpoints = config.failpoints;
  options.lazy_lineage = config.lazy_lineage;
  return options;
}

/// Runs `c` under `config`, calling `check` with the controller after every
/// delivered batch; returns every partial result.
std::vector<PartialResult> RunChecked(
    const Case& c, const Config& config,
    const std::function<void(const QueryController&, int)>& check,
    QueryMetrics* metrics = nullptr) {
  Session session(c.catalog.get(), OptionsFor(config), Functions());
  auto query = session.Sql(c.sql);
  EXPECT_TRUE(query.ok()) << query.status() << "\n  sql: " << c.sql;
  if (!query.ok()) return {};
  const QueryController& controller = (*query)->controller();
  std::vector<PartialResult> partials;
  const Status status = (*query)->Run([&](const PartialResult& partial) {
    partials.push_back(partial);
    if (check) check(controller, partial.batch);
    return BatchAction::kContinue;
  });
  EXPECT_TRUE(status.ok()) << status;
  if (metrics != nullptr) *metrics = (*query)->metrics();
  return partials;
}

void ExpectBitIdentical(const std::vector<PartialResult>& got,
                        const std::vector<PartialResult>& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t p = 0; p < want.size(); ++p) {
    const Table& tg = got[p].rows;
    const Table& tw = want[p].rows;
    ASSERT_EQ(tg.num_rows(), tw.num_rows()) << context << " batch " << p;
    for (size_t r = 0; r < tw.num_rows(); ++r) {
      for (size_t col = 0; col < tw.row(r).size(); ++col) {
        EXPECT_TRUE(tg.row(r)[col].Equals(tw.row(r)[col]))
            << context << " batch " << p << " row " << r << " col " << col;
      }
    }
    ASSERT_EQ(got[p].estimates.size(), want[p].estimates.size()) << context;
    for (size_t r = 0; r < want[p].estimates.size(); ++r) {
      for (size_t k = 0; k < want[p].estimates[r].size(); ++k) {
        const ErrorEstimate& eg = got[p].estimates[r][k];
        const ErrorEstimate& ew = want[p].estimates[r][k];
        EXPECT_EQ(eg.stddev, ew.stddev) << context << " batch " << p;
        EXPECT_EQ(eg.ci_lo, ew.ci_lo) << context << " batch " << p;
        EXPECT_EQ(eg.ci_hi, ew.ci_hi) << context << " batch " << p;
      }
    }
  }
}

TEST(CheckpointTest, CachedChecksumEqualsRecomputeOverCorpus) {
  for (const Case& c : Corpus()) {
    for (bool compile : {true, false}) {
      for (size_t threads : {size_t{0}, size_t{4}}) {
        SCOPED_TRACE(c.name + " compile=" + std::to_string(compile) +
                     " threads=" + std::to_string(threads));
        size_t verified = 0;
        RunChecked(c, {compile, threads}, [&](const QueryController& ctl,
                                              int batch) {
          const auto& ring = CheckpointTestPeer::CheckpointRing(ctl);
          ASSERT_FALSE(ring.empty());
          EXPECT_EQ(ring.back()[0]->batch, batch);
          for (const auto& snapshot : ring) {
            for (const auto& cp : snapshot) {
              const uint64_t cached = BlockExecutor::ChecksumCheckpoint(*cp);
              EXPECT_EQ(cached, cp->checksum);
              EXPECT_EQ(cached, BlockExecutor::ChecksumCheckpoint(
                                    *cp, /*recompute_cells=*/true));
              EXPECT_TRUE(BlockExecutor::VerifyCheckpoint(*cp));
              for (const auto& cell : cp->sketch) {
                EXPECT_TRUE(cell->frozen);
                EXPECT_EQ(cell->byte_size, cell->ComputeByteSize());
              }
              ++verified;
            }
          }
        });
        EXPECT_GT(verified, 0u);
      }
    }
  }
}

// Rolls every nested query back to each retained ring entry in turn
// (controller-batch-fault with depth d at the last batch). Injected
// recoveries replay unfrozen, so each run must reproduce the fault-free
// run bit for bit, although the batches after the restored entry opened
// copies of its cells and the live state no longer shares them. Queries
// whose fault-free run recovers naturally are left out: a replay across a
// natural recovery's frozen window legally re-routes rows.
TEST(CheckpointTest, RestoreAnyRingEntryReplaysBitIdentical) {
  constexpr int kBatches = 8;
  size_t cloned_cells = 0;
  int replayed_queries = 0;
  for (const Case& c : Corpus()) {
    if (!c.nested) continue;
    SCOPED_TRACE(c.name);
    Config clean{true, 0, kBatches, ""};
    QueryMetrics clean_metrics;
    const std::vector<PartialResult> want = RunChecked(
        c, clean, [&](const QueryController& ctl, int batch) {
          if (batch != kBatches - 2) return;
          // Cells of older entries that the newest entry no longer holds:
          // the copy-on-write clones the restores below must undo.
          const auto& ring = CheckpointTestPeer::CheckpointRing(ctl);
          for (size_t blk = 0; blk < ring.back().size(); ++blk) {
            std::unordered_set<const void*> newest;
            for (const auto& cell : ring.back()[blk]->sketch) {
              newest.insert(cell.get());
            }
            for (const auto& snapshot : ring) {
              for (const auto& cell : snapshot[blk]->sketch) {
                cloned_cells += newest.count(cell.get()) == 0;
              }
            }
          }
        },
        &clean_metrics);
    if (clean_metrics.TotalFailureRecoveries() > 0) continue;
    ++replayed_queries;
    for (int depth = 1; depth < kBatches; ++depth) {
      for (size_t threads : {size_t{0}, size_t{4}}) {
        Config faulty{true, threads, kBatches,
                      "controller-batch-fault=at:" +
                          std::to_string(kBatches - 1) +
                          ",times:1,arg:" + std::to_string(depth)};
        ExpectBitIdentical(RunChecked(c, faulty, nullptr), want,
                           c.name + " depth=" + std::to_string(depth) +
                               " threads=" + std::to_string(threads));
      }
    }
  }
  EXPECT_GE(replayed_queries, 8);
  EXPECT_GT(cloned_cells, 0u);
}

// After every batch the running byte counters — what BatchMetrics reports
// as join_state_bytes and other_state_bytes, and each relation's
// RelationBytes — equal a from-scratch rescan. The schedules add a restore
// (depth 2), a full restart (depth past the ring) and a corrupt-checkpoint
// escalation. With OPT2 off the pending counter is also what the
// shipped-bytes model charges for re-shipping the saved rows, so both
// modes are checked.
TEST(CheckpointTest, ByteCountersMatchRescanOverCorpus) {
  const std::vector<std::string> schedules = {
      "",
      "controller-batch-fault=at:4,times:1,arg:2",
      "controller-batch-fault=at:3,times:1,arg:10",
      "checkpoint-capture-corrupt=at:2,times:1;"
      "controller-batch-fault=at:3,times:1,arg:1",
  };
  for (const Case& c : Corpus()) {
    for (const std::string& spec : schedules) {
      for (size_t threads : {size_t{0}, size_t{4}}) {
        for (bool lazy : {true, false}) {
          SCOPED_TRACE(c.name + " spec=" + spec + " threads=" +
                       std::to_string(threads) +
                       " lazy=" + std::to_string(lazy));
          int checked = 0;
          const auto check = [&](const QueryController& ctl, int) {
            const BatchMetrics& bm = ctl.metrics().batches.back();
            EXPECT_EQ(bm.other_state_bytes,
                      CheckpointTestPeer::RescanOtherStateBytes(ctl));
            EXPECT_EQ(bm.join_state_bytes,
                      CheckpointTestPeer::RescanJoinStateBytes(ctl));
            const AggregateRegistry& registry =
                CheckpointTestPeer::Registry(ctl);
            for (size_t b = 0; b < ctl.plan().blocks.size(); ++b) {
              EXPECT_EQ(registry.RelationBytes(static_cast<int>(b)),
                        CheckpointTestPeer::RescanRelationBytes(registry, b));
            }
            ++checked;
          };
          RunChecked(c, {true, threads, 6, spec, lazy}, check);
          EXPECT_EQ(checked, 6);
        }
      }
    }
  }
}

}  // namespace
}  // namespace iolap
