#ifndef IOLAP_CORE_TABLE_H_
#define IOLAP_CORE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/schema.h"
#include "core/value.h"

namespace iolap {

/// An in-memory relation: a schema plus a vector of rows. Tables are the
/// storage substrate of the engine; the catalog owns base tables, and
/// partial query results are delivered as tables.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() { return rows_; }

  size_t num_rows() const { return rows_.size(); }
  const Row& row(size_t i) const { return rows_[i]; }

  void AddRow(Row row) { rows_.push_back(std::move(row)); }
  void Reserve(size_t n) { rows_.reserve(n); }

  /// Approximate payload size, for the shuffle cost model.
  size_t ByteSize() const;

  /// Multi-line debug rendering (header + up to `max_rows` rows).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

/// RowByteSize of each row of an immutable table, remembered per row the
/// first time it is asked for, so that the shuffle cost model charges a
/// table's rows by summing integers on every later batch and query instead
/// of walking their values again. The catalog keeps one per registered
/// table. Safe to share between threads: racing first computations of a
/// row store the same size. Sizes are kept in 16 bits; a row of 64 KiB or
/// more is sized on every call.
class RowByteSizeCache {
 public:
  explicit RowByteSizeCache(size_t num_rows) : num_rows_(num_rows) {}

  /// Σ RowByteSize over rows[ids[i]] (over every row when `ids` is null);
  /// `rows` is the table this cache was made for.
  uint64_t Sum(const std::vector<Row>& rows,
               const std::vector<uint64_t>* ids) const;

 private:
  size_t num_rows_;
  mutable std::once_flag alloc_once_;  // sizes_ is allocated on first use
  mutable std::unique_ptr<std::atomic<uint16_t>[]> sizes_;  // 0 = unknown
};

}  // namespace iolap

#endif  // IOLAP_CORE_TABLE_H_
