#include "exec/batch.h"

#include <cassert>

namespace iolap {

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
