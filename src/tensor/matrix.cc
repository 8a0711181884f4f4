#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/simd_dispatch.h"

// GEMM kernels are SIMD clones (util/simd_dispatch.h), bit-identical per ISA.

// Helpers inlined into every ISA entry point, so each is compiled for that
// entry point's ISA; an out-of-line copy would be baseline code.
#define NS_ALWAYS_INLINE inline __attribute__((always_inline))

namespace neurosketch {

namespace {

NS_TARGET_CLONES
void GemmKernel(const double* a, const double* b, double* o, size_t m,
                size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = o + i * n;
    for (size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

NS_TARGET_CLONES
void GemmTransAKernel(const double* a, const double* b, double* o, size_t k,
                      size_t m, size_t n) {
  for (size_t p = 0; p < k; ++p) {
    const double* arow = a + p * m;
    const double* brow = b + p * n;
    for (size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* orow = o + i * n;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

NS_TARGET_CLONES
void GemmTransBKernel(const double* a, const double* b, double* o, size_t m,
                      size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = o + i * n;
    for (size_t j = 0; j < n; ++j) {
      const double* brow = b + j * k;
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] = acc;
    }
  }
}

// Bias + activation epilogue of the fused kernels. Kept as per-activation
// loops (not a switch in the inner loop) so each case auto-vectorizes; the
// arithmetic matches AddRowVector followed by ApplyActivation exactly. T is
// double or float: one body for both tiers, inlined into each ISA entry
// point so it vectorizes at that entry point's width.
template <typename T>
NS_ALWAYS_INLINE void FusedEpilogue(T* yrow, const T* b, size_t n,
                                    Activation act) {
  switch (act) {
    case Activation::kIdentity:
      for (size_t j = 0; j < n; ++j) yrow[j] += b[j];
      return;
    case Activation::kRelu:
      for (size_t j = 0; j < n; ++j) {
        const T v = yrow[j] + b[j];
        yrow[j] = v > T(0) ? v : T(0);
      }
      return;
    case Activation::kTanh:
      for (size_t j = 0; j < n; ++j) yrow[j] = std::tanh(yrow[j] + b[j]);
      return;
    case Activation::kSigmoid:
      for (size_t j = 0; j < n; ++j) {
        yrow[j] = T(1) / (T(1) + std::exp(-(yrow[j] + b[j])));
      }
      return;
  }
}

// The reference order every dense-forward path reproduces: row i's output
// j is +0.0 plus x[i][p] * w[p][j] for ascending p, skipping x[i][p] == 0.
template <typename T>
NS_ALWAYS_INLINE void DenseRowLoop(const T* x, size_t m, size_t k, const T* w,
                                   const T* b, Activation act, T* y,
                                   size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const T* xrow = x + i * k;
    T* yrow = y + i * n;
    for (size_t j = 0; j < n; ++j) yrow[j] = T(0);
    for (size_t p = 0; p < k; ++p) {
      const T xv = xrow[p];
      if (xv == T(0)) continue;
      const T* wrow = w + p * n;
      for (size_t j = 0; j < n; ++j) yrow[j] += xv * wrow[j];
    }
    FusedEpilogue(yrow, b, n, act);
  }
}

// Register tile: kTileRows rows of x against kVecs vectors of kBytes
// bytes of w's columns [j0, j0 + kVecs * lanes). The accumulators stay in
// vector registers while p walks k once, so each weight vector is loaded
// once per kTileRows rows instead of once per row. Per output element the
// arithmetic is DenseRowLoop's: ascending p, separate multiply and add
// (the build pins -ffp-contract=off), and an x == 0 term adds +0.0 in
// place of the skipped product. That add is exact: the accumulator starts
// at +0.0 and a round-to-nearest sum is -0.0 only when both operands are,
// so it never holds -0.0, and +0.0 leaves every other value (NaN and inf
// included) unchanged. The select also keeps 0 * inf from adding NaN.
constexpr size_t kTileRows = 4;

template <typename T, size_t kBytes, size_t kVecs>
NS_ALWAYS_INLINE void DenseTile(const T* x, size_t k, const T* w, size_t n,
                                T* y, size_t j0) {
  typedef T V __attribute__((vector_size(kBytes)));
  constexpr size_t kLanes = kBytes / sizeof(T);
  V acc[kTileRows][kVecs] = {};
  for (size_t p = 0; p < k; ++p) {
    V wv[kVecs];
#pragma GCC unroll 2
    for (size_t v = 0; v < kVecs; ++v) {
      std::memcpy(&wv[v], w + p * n + j0 + v * kLanes, sizeof(V));
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < kTileRows; ++r) {
      const V xb = x[r * k + p] - V{};  // broadcast; x - +0.0 == x
      const auto zero = xb == V{};
#pragma GCC unroll 2
      for (size_t v = 0; v < kVecs; ++v) {
        acc[r][v] += zero ? V{} : xb * wv[v];
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < kTileRows; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < kVecs; ++v) {
      std::memcpy(y + r * n + j0 + v * kLanes, &acc[r][v], sizeof(V));
    }
  }
}

// Column tile for layers narrower than one vector (the 1-unit output
// layer): the tile's kTileRows rows become the lanes of one vector, so
// column j of all four rows accumulates in one register, in the same
// per-element order and with the same +0.0 select as DenseTile.
template <typename T>
NS_ALWAYS_INLINE void DenseColumnTile(const T* x, size_t k, const T* w,
                                      size_t n, T* y, size_t j) {
  static_assert(kTileRows == 4, "the row gather below lists four rows");
  typedef T R __attribute__((vector_size(kTileRows * sizeof(T))));
  R acc = {};
  for (size_t p = 0; p < k; ++p) {
    const R xr = {x[p], x[k + p], x[2 * k + p], x[3 * k + p]};
    acc += xr == R{} ? R{} : xr * w[p * n + j];
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < kTileRows; ++r) y[r * n + j] = acc[r];
}

// y = act(x * w + b) for the full kTileRows-row blocks of x, in register
// tiles: two-vector tiles across n, then one one-vector tile, then a last
// one-vector tile ending at column n. That last tile may overlap columns
// already written; it recomputes them in the same order, so it stores the
// same bits. Layers narrower than one vector take column tiles instead.
// Returns the number of rows done; the caller runs the rest (m mod
// kTileRows) through the row loop.
template <typename T, size_t kBytes>
NS_ALWAYS_INLINE size_t DenseTiled(const T* x, size_t m, size_t k, const T* w,
                                   const T* b, Activation act, T* y,
                                   size_t n) {
  constexpr size_t kLanes = kBytes / sizeof(T);
  size_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    const T* xb = x + i * k;
    T* yb = y + i * n;
    size_t j = 0;
    if (n >= kLanes) {
      for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
        DenseTile<T, kBytes, 2>(xb, k, w, n, yb, j);
      }
      if (j + kLanes <= n) {
        DenseTile<T, kBytes, 1>(xb, k, w, n, yb, j);
        j += kLanes;
      }
      if (j < n) DenseTile<T, kBytes, 1>(xb, k, w, n, yb, n - kLanes);
    } else {
      for (; j < n; ++j) DenseColumnTile(xb, k, w, n, yb, j);
    }
    for (size_t r = 0; r < kTileRows; ++r) {
      FusedEpilogue(yb + r * n, b, n, act);
    }
  }
  return i;
}

// Row-loop kernels: every m = 1 call (PredictOne), the rows after the last
// full tile block, and whole batches where no tile kernel runs. Kept apart
// from the tile kernels: inlined into their larger frames, the m = 1 path
// measured about 5% slower in the AVX2 f64 entry point.
NS_TARGET_CLONES
void FusedDenseRows(const double* x, size_t m, size_t k, const double* w,
                    const double* b, Activation act, double* y, size_t n) {
  DenseRowLoop(x, m, k, w, b, act, y, n);
}

NS_TARGET_CLONES
void FusedDenseRowsF32(const float* x, size_t m, size_t k, const float* w,
                       const float* b, Activation act, float* y, size_t n) {
  DenseRowLoop(x, m, k, w, b, act, y, n);
}

// Tile kernels: one entry point per ISA, each instantiating DenseTiled at
// its own vector width (GCC function multiversioning; the ifunc resolver
// picks the widest the CPU supports). One body cannot serve all widths
// through target_clones: 64-byte vectors compile to slow scalarized code
// in the AVX2 clone, and 32-byte ones likewise in the baseline. The
// baseline entry point, and every build without dispatch, tiles nothing
// and leaves the whole batch to the row loop.
#if NS_SIMD_DISPATCH
__attribute__((target("avx512f"))) size_t FusedDenseTiles(
    const double* x, size_t m, size_t k, const double* w, const double* b,
    Activation act, double* y, size_t n) {
  return DenseTiled<double, 64>(x, m, k, w, b, act, y, n);
}

__attribute__((target("avx2"))) size_t FusedDenseTiles(
    const double* x, size_t m, size_t k, const double* w, const double* b,
    Activation act, double* y, size_t n) {
  return DenseTiled<double, 32>(x, m, k, w, b, act, y, n);
}

__attribute__((target("avx512f"))) size_t FusedDenseTilesF32(
    const float* x, size_t m, size_t k, const float* w, const float* b,
    Activation act, float* y, size_t n) {
  return DenseTiled<float, 64>(x, m, k, w, b, act, y, n);
}

__attribute__((target("avx2"))) size_t FusedDenseTilesF32(
    const float* x, size_t m, size_t k, const float* w, const float* b,
    Activation act, float* y, size_t n) {
  return DenseTiled<float, 32>(x, m, k, w, b, act, y, n);
}
#endif

NS_TARGET_DEFAULT
size_t FusedDenseTiles(const double*, size_t, size_t, const double*,
                       const double*, Activation, double*, size_t) {
  return 0;
}

NS_TARGET_DEFAULT
size_t FusedDenseTilesF32(const float*, size_t, size_t, const float*,
                          const float*, Activation, float*, size_t) {
  return 0;
}

}  // namespace

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols_);
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

void Matrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::Apply(const std::function<double(double)>& fn) {
  for (double& x : data_) x = fn(x);
}

void Matrix::Axpy(double alpha, const Matrix& other) {
  assert(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::Scale(double alpha) {
  for (double& x : data_) x *= alpha;
}

double Matrix::SquaredNorm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return acc;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.cols() == b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  *out = Matrix(m, n, 0.0);
  GemmKernel(a.data(), b.data(), out->data(), m, k, n);
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.rows() == b.rows());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  *out = Matrix(m, n, 0.0);
  GemmTransAKernel(a.data(), b.data(), out->data(), k, m, n);
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.cols() == b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  *out = Matrix(m, n, 0.0);
  GemmTransBKernel(a.data(), b.data(), out->data(), m, k, n);
}

void AddRowVector(Matrix* m, const Matrix& rowvec) {
  assert(rowvec.rows() == 1 && rowvec.cols() == m->cols());
  for (size_t r = 0; r < m->rows(); ++r) {
    double* mr = m->row(r);
    const double* v = rowvec.row(0);
    for (size_t c = 0; c < m->cols(); ++c) mr[c] += v[c];
  }
}

void FusedDenseForward(const double* x, size_t m, size_t k, const double* w,
                       const double* b, Activation act, double* y, size_t n) {
  const size_t tiled =
      m >= kTileRows ? FusedDenseTiles(x, m, k, w, b, act, y, n) : 0;
  FusedDenseRows(x + tiled * k, m - tiled, k, w, b, act, y + tiled * n, n);
}

void FusedDenseForwardF32(const float* x, size_t m, size_t k, const float* w,
                          const float* b, Activation act, float* y, size_t n) {
  const size_t tiled =
      m >= kTileRows ? FusedDenseTilesF32(x, m, k, w, b, act, y, n) : 0;
  FusedDenseRowsF32(x + tiled * k, m - tiled, k, w, b, act, y + tiled * n,
                    n);
}

void ColumnSums(const Matrix& m, Matrix* out) {
  *out = Matrix(1, m.cols(), 0.0);
  double* o = out->row(0);
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* mr = m.row(r);
    for (size_t c = 0; c < m.cols(); ++c) o[c] += mr[c];
  }
}

}  // namespace neurosketch
