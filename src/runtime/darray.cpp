#include "src/runtime/darray.h"

#include <algorithm>

#include "src/support/check.h"

namespace zc::rt {

LocalArray::LocalArray(Box owned, const Box& declared,
                       const std::array<long long, kMaxRank>& fluff)
    : owned_(owned) {
  storage_ = owned_;
  if (!owned_.empty()) {
    for (int d = 0; d < storage_.rank; ++d) {
      storage_.lo[d] = std::max(declared.lo[d], owned_.lo[d] - fluff[d]);
      storage_.hi[d] = std::min(declared.hi[d], owned_.hi[d] + fluff[d]);
    }
  }
  // Row-major strides: last dim contiguous.
  long long size = 1;
  for (int d = storage_.rank - 1; d >= 0; --d) {
    stride_[d] = size;
    size *= storage_.extent(d);
  }
  data_.assign(storage_.empty() ? 0 : static_cast<std::size_t>(size), 0.0);
}

std::size_t LocalArray::offset(long long i, long long j, long long k) const {
  long long off = (i - storage_.lo[0]) * stride_[0];
  if (storage_.rank >= 2) off += (j - storage_.lo[1]) * stride_[1];
  if (storage_.rank >= 3) off += (k - storage_.lo[2]) * stride_[2];
  ZC_ASSERT(off >= 0 && off < static_cast<long long>(data_.size()));
  return static_cast<std::size_t>(off);
}

long long LocalArray::offset_of(const Box& b) const {
  // One pass for the coverage check and the offset: an empty storage box
  // (lo > hi in some dim) fails the bounds test for any non-empty `b`.
  if (b.rank != storage_.rank) return -1;
  long long off = 0;
  for (int d = 0; d < b.rank; ++d) {
    if (b.lo[d] < storage_.lo[d] || b.hi[d] > storage_.hi[d] || b.lo[d] > b.hi[d]) return -1;
    off += (b.lo[d] - storage_.lo[d]) * stride_[d];
  }
  return off;
}

double LocalArray::at(long long i, long long j, long long k) const {
  return data_[offset(i, j, k)];
}

double& LocalArray::at(long long i, long long j, long long k) {
  return data_[offset(i, j, k)];
}

namespace {

/// Iterates the outer (non-contiguous) dims of `b` and invokes `fn(i, j,
/// span_lo, span_len)` once per contiguous last-dim span.
template <typename Fn>
void for_each_span(const Box& b, Fn&& fn) {
  if (b.empty()) return;
  const int last = b.rank - 1;
  const long long span_lo = b.lo[last];
  const long long span_len = b.extent(last);
  const long long i_hi = b.rank >= 2 ? b.hi[0] : b.lo[0];
  const long long j_lo = b.rank >= 3 ? b.lo[1] : 0;
  const long long j_hi = b.rank >= 3 ? b.hi[1] : 0;
  for (long long i = b.lo[0]; i <= i_hi; ++i) {
    for (long long j = j_lo; j <= j_hi; ++j) {
      fn(i, j, span_lo, span_len);
    }
  }
}

}  // namespace

void LocalArray::read_box(const Box& b, double* out) const {
  ZC_ASSERT(covers(b));
  std::size_t n = 0;
  for_each_span(b, [&](long long i, long long j, long long span_lo, long long span_len) {
    const double* src = b.rank == 1 ? &data_[offset(i, 0, 0)]
                        : b.rank == 2 ? &data_[offset(i, span_lo, 0)]
                                      : &data_[offset(i, j, span_lo)];
    std::copy(src, src + span_len, out + n);
    n += static_cast<std::size_t>(span_len);
  });
}

void LocalArray::write_box(const Box& b, const double* in) {
  ZC_ASSERT(covers(b));
  std::size_t n = 0;
  for_each_span(b, [&](long long i, long long j, long long span_lo, long long span_len) {
    double* dst = b.rank == 1 ? &data_[offset(i, 0, 0)]
                  : b.rank == 2 ? &data_[offset(i, span_lo, 0)]
                                : &data_[offset(i, j, span_lo)];
    std::copy(in + n, in + n + span_len, dst);
    n += static_cast<std::size_t>(span_len);
  });
}

void LocalArray::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

std::array<long long, kMaxRank> fluff_widths(const zir::Program& program) {
  std::array<long long, kMaxRank> w{};
  for (std::size_t i = 0; i < program.direction_count(); ++i) {
    const zir::DirectionDecl& d = program.direction(zir::DirectionId(static_cast<int32_t>(i)));
    for (int k = 0; k < d.rank() && k < kMaxRank; ++k) {
      w[k] = std::max<long long>(w[k], std::abs(d.offsets[k]));
    }
  }
  return w;
}

}  // namespace zc::rt
