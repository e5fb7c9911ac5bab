#include "exec/operators.h"

namespace iolap {

void InputCache::Append(ExecRow row) {
  byte_size_ += row.ByteSize();
  Row key = KeyOf(row);
  index_[std::move(key)].push_back(static_cast<uint32_t>(rows_.size()));
  rows_.push_back(std::move(row));
}

const std::vector<uint32_t>& InputCache::Matches(const Row& key) const {
  static const std::vector<uint32_t> kEmpty;
  auto it = index_.find(key);
  return it == index_.end() ? kEmpty : it->second;
}

void InputCache::TruncateTo(size_t watermark) {
  while (rows_.size() > watermark) {
    const ExecRow& row = rows_.back();
    byte_size_ -= row.ByteSize();
    auto it = index_.find(KeyOf(row));
    // Positions are appended in order, so the last position of this key is
    // the row being dropped.
    it->second.pop_back();
    if (it->second.empty()) index_.erase(it);
    rows_.pop_back();
  }
}

Row InputCache::KeyOf(RowRef row) const {
  Row key;
  key.reserve(key_cols_.size());
  for (int c : key_cols_) key.push_back(row.values[c]);
  return key;
}

JoinStep::JoinStep(std::vector<int> prefix_key_cols,
                   std::vector<int> input_key_cols, bool input_grows,
                   bool /*prefix_grows*/)
    : prefix_key_cols_(prefix_key_cols),
      input_cache_(std::move(input_key_cols)),
      prefix_cache_(std::move(prefix_key_cols)),
      keep_prefix_(input_grows) {}

Row JoinStep::PrefixKey(RowRef row) const {
  Row key;
  key.reserve(prefix_key_cols_.size());
  for (int c : prefix_key_cols_) key.push_back(row.values[c]);
  return key;
}

size_t JoinStep::ProcessBatch(const DeltaView& prefix_delta,
                              const DeltaView& input_delta, RowBatch* out) {
  const size_t out_before = out->size();
  size_t appended = 0;
  // (1) P_old ⋈ ΔI — before the prefix delta is folded into the cache.
  if (keep_prefix_) {
    for (const RowRef input_row : input_delta) {
      // The input row's join-key values, probed against the prefix cache
      // (both sides index the same key values).
      const Row key = input_cache_.KeyOf(input_row);
      for (uint32_t pos : prefix_cache_.Matches(key)) {
        out->push_back(ConcatRows(prefix_cache_.row(pos), input_row));
      }
    }
  }
  // (2) Fold ΔI into the input cache, then ΔP ⋈ I_new (covers ΔP ⋈ I_old
  // and ΔP ⋈ ΔI in one probe).
  for (const RowRef input_row : input_delta) {
    input_cache_.Append(input_row.ToOwned());
    ++appended;
  }
  for (const RowRef prefix_row : prefix_delta) {
    const Row key = PrefixKey(prefix_row);
    for (uint32_t pos : input_cache_.Matches(key)) {
      out->push_back(ConcatRows(prefix_row, input_cache_.row(pos)));
    }
  }
  // (3) Remember the prefix delta for future ΔI arrivals.
  if (keep_prefix_) {
    for (const RowRef prefix_row : prefix_delta) {
      prefix_cache_.Append(prefix_row.ToOwned());
      ++appended;
    }
  }
  return appended + (out->size() - out_before);
}

size_t JoinStep::ProbeCount(const Row& prefix_key) const {
  return input_cache_.Matches(prefix_key).size();
}

JoinStep::Watermark JoinStep::watermark() const {
  return Watermark{input_cache_.watermark(), prefix_cache_.watermark()};
}

void JoinStep::TruncateTo(const Watermark& mark) {
  input_cache_.TruncateTo(mark.input);
  prefix_cache_.TruncateTo(mark.prefix);
}

size_t JoinStep::StateBytes() const {
  return input_cache_.ByteSize() +
         (keep_prefix_ ? prefix_cache_.ByteSize() : 0);
}

}  // namespace iolap
