#ifndef IOLAP_EXEC_BATCH_H_
#define IOLAP_EXEC_BATCH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/table.h"
#include "core/value.h"

namespace iolap {

/// A tuple flowing through the delta engine. Besides its values it carries:
///  - `weight`: its multiplicity within the accumulated sample D_i (before
///    the |D|/|D_i| scaling that aggregates apply at result time);
///  - `stream_uid`: the id of the streamed base row it derives from, or
///    kNoStream. The poissonized bootstrap derives the row's per-trial
///    multiplicities from this id, so re-processing a tuple (delta update,
///    failure recovery) reproduces the same resamples.
struct ExecRow {
  static constexpr uint64_t kNoStream = std::numeric_limits<uint64_t>::max();

  Row values;
  double weight = 1.0;
  uint64_t stream_uid = kNoStream;

  bool FromStream() const { return stream_uid != kNoStream; }

  size_t ByteSize() const;
};

using RowBatch = std::vector<ExecRow>;

/// A borrowed ExecRow: the same fields, with the values owned elsewhere (a
/// catalog Table, or an ExecRow the caller holds). Valid only while that
/// owner is; copy it into an ExecRow (ToOwned) to keep it.
struct RowRef {
  const Row& values;
  double weight = 1.0;
  uint64_t stream_uid = ExecRow::kNoStream;

  RowRef(const Row& v, double w, uint64_t uid)
      : values(v), weight(w), stream_uid(uid) {}
  // Implicit: every ExecRow can be read through a borrowed view.
  RowRef(const ExecRow& row)  // NOLINT(runtime/explicit)
      : values(row.values), weight(row.weight), stream_uid(row.stream_uid) {}

  bool FromStream() const { return stream_uid != ExecRow::kNoStream; }

  /// What the byte model charges for the row: its values plus 17 bytes of
  /// row overhead.
  size_t ByteSize() const { return RowByteSize(values) + 17; }

  ExecRow ToOwned() const { return ExecRow{values, weight, stream_uid}; }
};

inline size_t ExecRow::ByteSize() const { return RowRef(*this).ByteSize(); }

/// One batch delta of a block input, read in place instead of copied:
///  - Stream(table, ids): rows `ids` of the streamed relation; each row's
///    id is its stream uid, its weight 1;
///  - AllRows(table): every row of a static table (batch 0), no stream uid;
///  - DeltaView(rows): rows the caller owns (block outputs, join outputs,
///    snapshot rows).
/// A view borrows; it never outlives the batch that built it.
class DeltaView {
 public:
  DeltaView() = default;
  explicit DeltaView(const RowBatch& rows) : owned_(&rows) {}
  explicit DeltaView(RowBatch&&) = delete;  // would dangle

  static DeltaView Stream(const Table& table,
                          const std::vector<uint64_t>& ids) {
    DeltaView view;
    view.table_rows_ = &table.rows();
    view.ids_ = &ids;
    return view;
  }
  static DeltaView AllRows(const Table& table) {
    DeltaView view;
    view.table_rows_ = &table.rows();
    return view;
  }

  size_t size() const {
    if (owned_ != nullptr) return owned_->size();
    if (ids_ != nullptr) return ids_->size();
    return table_rows_ != nullptr ? table_rows_->size() : 0;
  }

  RowRef operator[](size_t i) const {
    if (owned_ != nullptr) return (*owned_)[i];
    if (ids_ != nullptr) {
      const uint64_t id = (*ids_)[i];
      return RowRef((*table_rows_)[id], 1.0, id);
    }
    return RowRef((*table_rows_)[i], 1.0, ExecRow::kNoStream);
  }

  class Iterator {
   public:
    Iterator(const DeltaView* view, size_t i) : view_(view), i_(i) {}
    RowRef operator*() const { return (*view_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }

   private:
    const DeltaView* view_;
    size_t i_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

 private:
  const RowBatch* owned_ = nullptr;
  const std::vector<Row>* table_rows_ = nullptr;
  const std::vector<uint64_t>* ids_ = nullptr;
};

/// Concatenates two rows (join output); at most one side may carry a
/// stream uid (the engine streams a single relation, §2).
ExecRow ConcatRows(RowRef left, RowRef right);

}  // namespace iolap

#endif  // IOLAP_EXEC_BATCH_H_
