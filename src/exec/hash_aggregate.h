#ifndef IOLAP_EXEC_HASH_AGGREGATE_H_
#define IOLAP_EXEC_HASH_AGGREGATE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "bootstrap/trial_accumulator.h"
#include "core/value.h"
#include "plan/logical_plan.h"

namespace iolap {

/// The hash-grouped sketch state of an AGGREGATE operator (§4.2): one
/// TrialAccumulatorSet per (group, aggregate). Two instances exist per
/// aggregate block in the delta engine — the persistent sketch fed only by
/// near-deterministic tuples, and a per-batch scratch instance holding the
/// revocable contribution of the non-deterministic set.
///
/// Checkpoints share cells with the live state instead of copying them
/// (copy-on-write). A cell is *open* from its creation until the next
/// Capture, which *freezes* it: its content hash and byte size are cached
/// and it never changes again. The first GetOrCreate of a frozen cell in a
/// later batch replaces it in the live map by an open copy, so every
/// snapshot that holds the frozen cell keeps reading its old contents. A
/// capture therefore hashes only the cells opened since the previous one,
/// and the snapshot itself is one pointer per group.
class GroupedAggregateState {
 public:
  struct GroupCells {
    Row key;
    std::vector<TrialAccumulatorSet> aggs;
    /// Batch in which the group first appeared (for failure-recovery
    /// rollbacks and registry bookkeeping).
    int first_batch = 0;
    /// Batch in which the group last received a contribution. Publication
    /// re-materializes trial replicas only for touched groups.
    int last_touched = -1;
    /// Set by Capture; the cell is immutable from then on.
    bool frozen = false;
    /// ContentHash() and ComputeByteSize(), cached when the cell freezes.
    uint64_t content_hash = 0;
    size_t byte_size = 0;

    /// Hash of everything a restore replays from this cell: key, first
    /// batch and the accumulator *results* (the bits publication reads),
    /// so it does not depend on the accumulator representation.
    uint64_t ContentHash() const;
    /// Approximate footprint (key + first-batch tag + accumulators).
    size_t ComputeByteSize() const;
  };

  using GroupMap =
      std::unordered_map<Row, std::shared_ptr<GroupCells>, RowHash, RowEq>;
  /// A captured sketch: frozen cells in the live map's iteration order.
  using Snapshot = std::vector<std::shared_ptr<const GroupCells>>;

  GroupedAggregateState(const std::vector<AggSpec>* specs, int num_trials)
      : specs_(specs), num_trials_(num_trials) {}

  // A copy would share the open cells with the original and let both
  // mutate them; snapshots go through Capture / Restore instead.
  GroupedAggregateState(const GroupedAggregateState&) = delete;
  GroupedAggregateState& operator=(const GroupedAggregateState&) = delete;
  GroupedAggregateState(GroupedAggregateState&&) = default;
  GroupedAggregateState& operator=(GroupedAggregateState&&) = default;

  /// Returns (creating if needed) the mutable cells for `key`, replacing a
  /// frozen cell by an open copy first. `created` (optional) reports
  /// whether the group is new. The only mutation path into the cells.
  GroupCells& GetOrCreate(const Row& key, int batch, bool* created = nullptr);

  /// Same, with a precomputed HashRow(key): probes via heterogeneous lookup
  /// so the key is not re-hashed. Only group *creation* (the rare path)
  /// re-hashes, because try_emplace cannot take a caller-supplied hash.
  GroupCells& GetOrCreate(const Row& key, uint64_t hash, int batch,
                          bool* created = nullptr);

  const GroupCells* Find(const Row& key) const;

  /// Find with a precomputed HashRow(key); never re-hashes.
  const GroupCells* Find(const Row& key, uint64_t hash) const;

  /// Pre-sizes the bucket array for `expected_new_groups` more groups.
  void Reserve(size_t expected_new_groups) {
    groups_.reserve(groups_.size() + expected_new_groups);
  }

  const GroupMap& groups() const { return groups_; }
  size_t num_groups() const { return groups_.size(); }

  void Clear();

  /// Freezes every open cell and returns the whole sketch as shared
  /// pointers. Work beyond the pointer copies is proportional to the cells
  /// opened since the previous capture.
  Snapshot Capture();

  /// Replaces the live state by `snapshot`'s cells, rebuilding the map in
  /// two pre-sized passes: the snapshot's order into a staging map, then
  /// the staging map's order into the live one. The iteration order this
  /// produces fixes the order a replay publishes groups and emits them
  /// downstream in, which floating-point sums downstream depend on, so it
  /// is part of the recovery's determinism contract (one pass would
  /// iterate differently).
  void Restore(const Snapshot& snapshot);

  /// Running total: the cached sizes of frozen cells plus a recount of the
  /// open ones.
  size_t ByteSize() const;

 private:
  /// Makes `slot`'s cell mutable: a frozen cell is replaced by an open copy.
  GroupCells& Open(std::shared_ptr<GroupCells>& slot);

  const std::vector<AggSpec>* specs_ = nullptr;
  int num_trials_ = 0;
  GroupMap groups_;
  /// Cells created or cloned since the last capture (each listed once).
  std::vector<GroupCells*> open_;
  /// Σ byte_size over the frozen cells in groups_.
  size_t frozen_bytes_ = 0;
};

}  // namespace iolap

#endif  // IOLAP_EXEC_HASH_AGGREGATE_H_
