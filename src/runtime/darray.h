// Per-processor storage for one distributed array: the owned block plus a
// fluff (ghost) margin wide enough for every direction the program declares.
// Fluff cells hold cached copies of neighbor-owned elements and are filled
// only by communication, so a miscompiled communication plan leaves stale
// values there. Tests that compare numbers see a stale read only when the
// stale and fresh values differ in a program they run: an SV moved past a
// later write of a member array passes every one of them, because the
// simulator copies each payload at SR.
#pragma once

#include <vector>

#include "src/runtime/layout.h"
#include "src/zir/program.h"

namespace zc::rt {

class LocalArray {
 public:
  /// `owned`: this processor's part of the array's declared region (may be
  /// empty). `declared`: the full declared region. `fluff`: margin width per
  /// dimension. Storage covers owned expanded by fluff, clamped to declared
  /// (fluff never extends past the declared region: those cells cannot be
  /// read by a valid program).
  LocalArray(Box owned, const Box& declared, const std::array<long long, kMaxRank>& fluff);

  LocalArray() = default;

  [[nodiscard]] const Box& owned() const { return owned_; }
  [[nodiscard]] const Box& storage_box() const { return storage_; }

  [[nodiscard]] bool covers(const Box& b) const { return storage_.contains(b); }

  /// The row-major storage (last dim contiguous) and its strides: element
  /// g of the storage box lives at data()[sum over d of (g[d] - lo[d]) *
  /// stride(d)].
  [[nodiscard]] const double* data() const { return data_.data(); }
  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] long long stride(int dim) const { return stride_[dim]; }

  /// The storage offset of non-empty `b`'s low corner, or -1 when the
  /// storage does not cover `b`.
  [[nodiscard]] long long offset_of(const Box& b) const;

  /// Element accessors by global index (must lie within the storage box).
  [[nodiscard]] double at(long long i, long long j = 0, long long k = 0) const;
  double& at(long long i, long long j = 0, long long k = 0);

  /// Bulk copy of `b` (within the storage box) into `out`, row-major
  /// (dim 0 outer, last dim contiguous). `out` must hold b.count() doubles.
  void read_box(const Box& b, double* out) const;

  /// Bulk write of `b` from `in`, same layout.
  void write_box(const Box& b, const double* in);

  /// Fills the whole allocation with `value` (tests / init).
  void fill(double value);

  [[nodiscard]] std::size_t allocation_size() const { return data_.size(); }

 private:
  [[nodiscard]] std::size_t offset(long long i, long long j, long long k) const;

  Box owned_;
  Box storage_;
  std::array<long long, kMaxRank> stride_{};
  std::vector<double> data_;
};

/// Computes the fluff width needed per dimension: the max |offset| over all
/// declared directions (at least 0). Distributed and local dims both get
/// margins — rank-3 dim-2 shifts read within the declared region, which the
/// storage clamp already covers.
std::array<long long, kMaxRank> fluff_widths(const zir::Program& program);

}  // namespace zc::rt
