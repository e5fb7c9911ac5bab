#include "exec/batch.h"

#include <cassert>

namespace iolap {

uint64_t DeltaView::ShippedBytes(uint64_t per_streamed_row) const {
  if (sizes_ != nullptr) {
    const uint64_t overhead =
        RowRef::kOverheadBytes + (ids_ != nullptr ? per_streamed_row : 0);
    return sizes_->Sum(*table_rows_, ids_) + size() * overhead;
  }
  uint64_t total = 0;
  for (const RowRef row : *this) {
    total += row.ByteSize();
    if (row.FromStream()) total += per_streamed_row;
  }
  return total;
}

ExecRow ConcatRows(RowRef left, RowRef right) {
  ExecRow out;
  out.values.reserve(left.values.size() + right.values.size());
  out.values.insert(out.values.end(), left.values.begin(), left.values.end());
  out.values.insert(out.values.end(), right.values.begin(),
                    right.values.end());
  out.weight = left.weight * right.weight;
  assert(!(left.FromStream() && right.FromStream()) &&
         "at most one relation may be streamed");
  out.stream_uid = left.FromStream() ? left.stream_uid : right.stream_uid;
  return out;
}

}  // namespace iolap
