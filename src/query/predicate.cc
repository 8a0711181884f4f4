#include "query/predicate.h"

#include <algorithm>
#include <cmath>

#include "util/simd_dispatch.h"

#if NS_SIMD_DISPATCH
#include <immintrin.h>
#endif

namespace neurosketch {

void PredicateFunction::QueryBox(const QueryInstance& q, size_t data_dim,
                                 std::vector<double>* lo,
                                 std::vector<double>* hi) const {
  (void)q;
  lo->assign(data_dim, 0.0);
  hi->assign(data_dim, 1.0);
}

bool AxisRangePredicate::Matches(const QueryInstance& q, const double* row,
                                 size_t data_dim) const {
  // q = (c..., r...). Half-open interval [c, c + r) as in Sec. 2.
  const double* c = q.q.data();
  const double* r = q.q.data() + data_dim;
  for (size_t i = 0; i < data_dim; ++i) {
    // Inactive attributes have (c, r) = (0, 1); normalized data can sit
    // exactly at 1.0, so treat a full-range attribute as unconstrained.
    if (c[i] == 0.0 && r[i] >= 1.0) continue;
    const double v = row[i];
    if (v < c[i] || v >= c[i] + r[i]) return false;
  }
  return true;
}

bool CompiledAxisRange::Compile(const PredicateFunction& predicate,
                                const QueryInstance& q, size_t data_dim) {
  num_active_ = 0;
  if (dynamic_cast<const AxisRangePredicate*>(&predicate) == nullptr ||
      q.dim() < 2 * data_dim) {
    return false;
  }
  const double* c = q.q.data();
  const double* r = q.q.data() + data_dim;
  for (size_t i = 0; i < data_dim; ++i) {
    if (c[i] == 0.0 && r[i] >= 1.0) continue;  // inactive, as in Matches
    if (num_active_ == kMaxActive) {
      num_active_ = 0;
      return false;
    }
    column_[num_active_] = static_cast<uint32_t>(i);
    lo_[num_active_] = c[i];
    hi_[num_active_] = c[i] + r[i];
    ++num_active_;
  }
  return true;
}

namespace {

size_t SelectInRangeBaseline(const double* x, size_t len, double lo,
                             double hi, uint32_t* sel) {
  return CompiledAxisRange::SelectRows(x, 1, 0, len, lo, hi, sel, 0);
}

#if NS_SIMD_DISPATCH
// Each step stores a full vector of offsets at sel[k]; k <= j, so the
// store stays inside sel[0, j + step) and a full step needs j + step <=
// len. Lanes past the popcount are overwritten by the next step or left
// as undefined slots past the count.
__attribute__((target("avx512f"))) size_t SelectInRangeAvx512(
    const double* x, size_t len, double lo, double hi, uint32_t* sel) {
  const __m512d vlo = _mm512_set1_pd(lo), vhi = _mm512_set1_pd(hi);
  __m512i rows = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15);
  const __m512i step = _mm512_set1_epi32(16);
  size_t k = 0, j = 0;
  for (; j + 16 <= len; j += 16) {
    const __m512d a = _mm512_loadu_pd(x + j), b = _mm512_loadu_pd(x + j + 8);
    const __mmask8 in_a = _mm512_mask_cmp_pd_mask(
        _mm512_cmp_pd_mask(a, vlo, _CMP_NLT_UQ), a, vhi, _CMP_NGE_UQ);
    const __mmask8 in_b = _mm512_mask_cmp_pd_mask(
        _mm512_cmp_pd_mask(b, vlo, _CMP_NLT_UQ), b, vhi, _CMP_NGE_UQ);
    const __mmask16 in = _mm512_kunpackb(in_b, in_a);
    _mm512_storeu_si512(sel + k, _mm512_maskz_compress_epi32(in, rows));
    k += static_cast<size_t>(__builtin_popcount(in));
    rows = _mm512_add_epi32(rows, step);
  }
  return CompiledAxisRange::SelectRows(x, 1, j, len, lo, hi, sel, k);
}

// kLanes[m] lists the set bits of the 4-bit mask m in ascending order.
alignas(16) constexpr uint32_t kLanes[16][4] = {
    {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0},
    {2, 0, 0, 0}, {0, 2, 0, 0}, {1, 2, 0, 0}, {0, 1, 2, 0},
    {3, 0, 0, 0}, {0, 3, 0, 0}, {1, 3, 0, 0}, {0, 1, 3, 0},
    {2, 3, 0, 0}, {0, 2, 3, 0}, {1, 2, 3, 0}, {0, 1, 2, 3}};

__attribute__((target("avx2"))) size_t SelectInRangeAvx2(
    const double* x, size_t len, double lo, double hi, uint32_t* sel) {
  const __m256d vlo = _mm256_set1_pd(lo), vhi = _mm256_set1_pd(hi);
  size_t k = 0, j = 0;
  for (; j + 4 <= len; j += 4) {
    const __m256d v = _mm256_loadu_pd(x + j);
    const int in = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_NLT_UQ),
                      _mm256_cmp_pd(v, vhi, _CMP_NGE_UQ)));
    const __m128i lanes =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kLanes[in]));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(sel + k),
        _mm_add_epi32(lanes, _mm_set1_epi32(static_cast<int>(j))));
    k += static_cast<size_t>(__builtin_popcount(in));
  }
  return CompiledAxisRange::SelectRows(x, 1, j, len, lo, hi, sel, k);
}

__attribute__((target("avx512f"))) size_t SelectInRangeIsa(
    const double* x, size_t len, double lo, double hi, uint32_t* sel) {
  return SelectInRangeAvx512(x, len, lo, hi, sel);
}

__attribute__((target("avx2"))) size_t SelectInRangeIsa(
    const double* x, size_t len, double lo, double hi, uint32_t* sel) {
  return SelectInRangeAvx2(x, len, lo, hi, sel);
}
#endif

NS_TARGET_DEFAULT
size_t SelectInRangeIsa(const double* x, size_t len, double lo, double hi,
                        uint32_t* sel) {
  return SelectInRangeBaseline(x, len, lo, hi, sel);
}

}  // namespace

size_t SelectInRange(const double* x, size_t len, double lo, double hi,
                     uint32_t* sel) {
  return SelectInRangeIsa(x, len, lo, hi, sel);
}

const std::vector<RangeSelectKernel>& RangeSelectKernels() {
  static const std::vector<RangeSelectKernel> kernels = [] {
    std::vector<RangeSelectKernel> v = {{"baseline", SelectInRangeBaseline}};
#if NS_SIMD_DISPATCH
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      v.push_back({"avx2", SelectInRangeAvx2});
    }
    if (__builtin_cpu_supports("avx512f")) {
      v.push_back({"avx512f", SelectInRangeAvx512});
    }
#endif
    return v;
  }();
  return kernels;
}

void AxisRangePredicate::QueryBox(const QueryInstance& q, size_t data_dim,
                                  std::vector<double>* lo,
                                  std::vector<double>* hi) const {
  lo->assign(data_dim, 0.0);
  hi->assign(data_dim, 1.0);
  for (size_t i = 0; i < data_dim; ++i) {
    (*lo)[i] = q[i];
    (*hi)[i] = q[i] + q[data_dim + i];
  }
}

bool RotatedRectPredicate::Matches(const QueryInstance& q, const double* row,
                                   size_t data_dim) const {
  (void)data_dim;
  const double px = q[0], py = q[1];
  const double qx = q[2], qy = q[3];
  const double phi = q[4];
  // Rotate both the point and the opposite corner into the rectangle's
  // frame anchored at p; then it is an axis-aligned test.
  const double cosp = std::cos(-phi), sinp = std::sin(-phi);
  auto rot = [&](double x, double y, double* ox, double* oy) {
    *ox = cosp * x - sinp * y;
    *oy = sinp * x + cosp * y;
  };
  double ux, uy, vx, vy;
  rot(row[0] - px, row[1] - py, &ux, &uy);
  rot(qx - px, qy - py, &vx, &vy);
  const double xlo = std::min(0.0, vx), xhi = std::max(0.0, vx);
  const double ylo = std::min(0.0, vy), yhi = std::max(0.0, vy);
  return ux >= xlo && ux <= xhi && uy >= ylo && uy <= yhi;
}

void RotatedRectPredicate::QueryBox(const QueryInstance& q, size_t data_dim,
                                    std::vector<double>* lo,
                                    std::vector<double>* hi) const {
  lo->assign(data_dim, 0.0);
  hi->assign(data_dim, 1.0);
  // Bounding box of the four rectangle corners. p and q are two opposite
  // corners; the other two follow from the rotated frame.
  const double px = q[0], py = q[1];
  const double qx = q[2], qy = q[3];
  const double phi = q[4];
  const double cosp = std::cos(-phi), sinp = std::sin(-phi);
  const double vx = cosp * (qx - px) - sinp * (qy - py);
  const double vy = sinp * (qx - px) + cosp * (qy - py);
  // Corners in the rectangle frame: (0,0), (vx,0), (0,vy), (vx,vy).
  const double cr = std::cos(phi), sr = std::sin(phi);
  double xs[4], ys[4];
  const double fx[4] = {0.0, vx, 0.0, vx};
  const double fy[4] = {0.0, 0.0, vy, vy};
  for (int i = 0; i < 4; ++i) {
    xs[i] = px + cr * fx[i] - sr * fy[i];
    ys[i] = py + sr * fx[i] + cr * fy[i];
  }
  (*lo)[0] = std::min({xs[0], xs[1], xs[2], xs[3]});
  (*hi)[0] = std::max({xs[0], xs[1], xs[2], xs[3]});
  (*lo)[1] = std::min({ys[0], ys[1], ys[2], ys[3]});
  (*hi)[1] = std::max({ys[0], ys[1], ys[2], ys[3]});
}

bool HalfSpacePredicate::Matches(const QueryInstance& q, const double* row,
                                 size_t data_dim) const {
  (void)data_dim;
  return row[1] > row[0] * q[0] + q[1];
}

bool CircularPredicate::Matches(const QueryInstance& q, const double* row,
                                size_t data_dim) const {
  (void)data_dim;
  double acc = 0.0;
  for (size_t i = 0; i < centers_; ++i) {
    const double d = row[i] - q[i];
    acc += d * d;
  }
  const double radius = q[centers_];
  return acc <= radius * radius;
}

void CircularPredicate::QueryBox(const QueryInstance& q, size_t data_dim,
                                 std::vector<double>* lo,
                                 std::vector<double>* hi) const {
  lo->assign(data_dim, 0.0);
  hi->assign(data_dim, 1.0);
  const double radius = q[centers_];
  for (size_t i = 0; i < centers_ && i < data_dim; ++i) {
    (*lo)[i] = q[i] - radius;
    (*hi)[i] = q[i] + radius;
  }
}

}  // namespace neurosketch
