#include "core/table.h"

#include <cassert>
#include <limits>

namespace iolap {

size_t Table::ByteSize() const {
  size_t total = 0;
  for (const Row& row : rows_) total += RowByteSize(row);
  return total;
}

uint64_t RowByteSizeCache::Sum(const std::vector<Row>& rows,
                               const std::vector<uint64_t>* ids) const {
  assert(rows.size() == num_rows_);
  std::call_once(alloc_once_, [this] {
    sizes_.reset(new std::atomic<uint16_t>[num_rows_]());
  });
  const auto size_of = [&](size_t i) -> uint64_t {
    const uint16_t known = sizes_[i].load(std::memory_order_relaxed);
    if (known != 0) return known;
    const size_t bytes = RowByteSize(rows[i]);
    if (bytes <= std::numeric_limits<uint16_t>::max()) {
      sizes_[i].store(static_cast<uint16_t>(bytes), std::memory_order_relaxed);
    }
    return bytes;
  };
  uint64_t total = 0;
  if (ids != nullptr) {
    for (const uint64_t id : *ids) total += size_of(id);
  } else {
    for (size_t i = 0; i < num_rows_; ++i) total += size_of(i);
  }
  return total;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString();
  out += "\n";
  const size_t limit = rows_.size() < max_rows ? rows_.size() : max_rows;
  for (size_t i = 0; i < limit; ++i) {
    out += RowToString(rows_[i]);
    out += "\n";
  }
  if (rows_.size() > limit) {
    out += "... (" + std::to_string(rows_.size() - limit) + " more rows)\n";
  }
  return out;
}

}  // namespace iolap
