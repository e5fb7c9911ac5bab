#include "exec/hash_aggregate.h"

#include <cstring>

#include "common/hash.h"

namespace iolap {

namespace {

uint64_t DoubleBits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t GroupedAggregateState::GroupCells::ContentHash() const {
  uint64_t g = HashCombine(HashRow(key), static_cast<uint64_t>(first_batch));
  for (const TrialAccumulatorSet& acc : aggs) {
    const Value main = acc.MainResult(1.0);
    g = HashCombine(g, main.is_null() ? 0x9e3779b97f4a7c15ULL : main.Hash());
    for (double trial : acc.TrialResults(1.0)) {
      g = HashCombine(g, DoubleBits(trial));
    }
    g = HashCombine(g, DoubleBits(acc.moment_count()));
    g = HashCombine(g, DoubleBits(acc.moment_variance()));
  }
  return Mix64(g);
}

size_t GroupedAggregateState::GroupCells::ComputeByteSize() const {
  size_t total = RowByteSize(key) + sizeof(int);
  for (const TrialAccumulatorSet& acc : aggs) total += acc.ByteSize();
  return total;
}

GroupedAggregateState::GroupCells& GroupedAggregateState::Open(
    std::shared_ptr<GroupCells>& slot) {
  if (!slot->frozen) return *slot;
  frozen_bytes_ -= slot->byte_size;
  auto copy = std::make_shared<GroupCells>();
  copy->key = slot->key;
  copy->aggs.reserve(slot->aggs.size());
  for (const TrialAccumulatorSet& acc : slot->aggs) {
    copy->aggs.push_back(acc.Clone());
  }
  copy->first_batch = slot->first_batch;
  copy->last_touched = slot->last_touched;
  slot = std::move(copy);
  open_.push_back(slot.get());
  return *slot;
}

GroupedAggregateState::GroupCells& GroupedAggregateState::GetOrCreate(
    const Row& key, int batch, bool* created) {
  auto [it, inserted] = groups_.try_emplace(key);
  if (created != nullptr) *created = inserted;
  if (!inserted) return Open(it->second);
  auto cell = std::make_shared<GroupCells>();
  cell->key = key;
  cell->first_batch = batch;
  cell->aggs.reserve(specs_->size());
  for (const AggSpec& spec : *specs_) {
    cell->aggs.emplace_back(*spec.fn, num_trials_);
  }
  open_.push_back(cell.get());
  it->second = std::move(cell);
  return *it->second;
}

GroupedAggregateState::GroupCells& GroupedAggregateState::GetOrCreate(
    const Row& key, uint64_t hash, int batch, bool* created) {
  auto it = groups_.find(HashedRowRef{&key, hash});
  if (it != groups_.end()) {
    if (created != nullptr) *created = false;
    return Open(it->second);
  }
  return GetOrCreate(key, batch, created);
}

const GroupedAggregateState::GroupCells* GroupedAggregateState::Find(
    const Row& key) const {
  auto it = groups_.find(key);
  return it == groups_.end() ? nullptr : it->second.get();
}

const GroupedAggregateState::GroupCells* GroupedAggregateState::Find(
    const Row& key, uint64_t hash) const {
  auto it = groups_.find(HashedRowRef{&key, hash});
  return it == groups_.end() ? nullptr : it->second.get();
}

void GroupedAggregateState::Clear() {
  groups_.clear();
  open_.clear();
  frozen_bytes_ = 0;
}

GroupedAggregateState::Snapshot GroupedAggregateState::Capture() {
  for (GroupCells* cell : open_) {
    cell->content_hash = cell->ContentHash();
    cell->byte_size = cell->ComputeByteSize();
    cell->frozen = true;
    frozen_bytes_ += cell->byte_size;
  }
  open_.clear();
  Snapshot snapshot;
  snapshot.reserve(groups_.size());
  for (const auto& [key, cell] : groups_) snapshot.push_back(cell);
  return snapshot;
}

void GroupedAggregateState::Restore(const Snapshot& snapshot) {
  // Two fresh maps, each pre-sized and filled in its source's iteration
  // order; the second one's order is the replay order (see the header).
  GroupMap captured;
  captured.reserve(snapshot.size());
  for (const auto& cell : snapshot) {
    captured.emplace(cell->key, std::const_pointer_cast<GroupCells>(cell));
  }
  GroupMap restored;
  restored.reserve(captured.size());
  frozen_bytes_ = 0;
  for (const auto& [key, cell] : captured) {
    restored.emplace(key, cell);
    frozen_bytes_ += cell->byte_size;
  }
  groups_ = std::move(restored);
  open_.clear();
}

size_t GroupedAggregateState::ByteSize() const {
  size_t total = frozen_bytes_;
  for (const GroupCells* cell : open_) total += cell->ComputeByteSize();
  return total;
}

}  // namespace iolap
