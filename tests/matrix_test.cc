// Unit and property tests for the dense matrix kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "tensor/matrix.h"
#include "util/random.h"

namespace neurosketch {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng->Uniform(-2, 2);
  }
  return m;
}

/// Reference triple-loop product.
Matrix NaiveGemm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

void ExpectMatrixNear(const Matrix& a, const Matrix& b, double tol = 1e-12) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a(r, c), b(r, c), tol) << "at (" << r << "," << c << ")";
    }
  }
}

TEST(MatrixTest, ConstructAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -7.0);
}

TEST(MatrixTest, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, FillAndZero) {
  Matrix m(2, 2, 3.0);
  m.Zero();
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 0.0);
  m.Fill(2.0);
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 16.0);
}

TEST(MatrixTest, Apply) {
  Matrix m(1, 3);
  m(0, 0) = -1;
  m(0, 1) = 0;
  m(0, 2) = 2;
  m.Apply([](double x) { return x * x; });
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 4.0);
}

TEST(MatrixTest, AxpyAndScale) {
  Matrix a(1, 2, 1.0), b(1, 2, 2.0);
  a.Axpy(3.0, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 7.0);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 3.5);
}

TEST(MatrixTest, Transposed) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, GemmSmallKnown) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix out;
  Gemm(a, b, &out);
  EXPECT_DOUBLE_EQ(out(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(out(1, 1), 50.0);
}

TEST(MatrixTest, AddRowVector) {
  Matrix m(2, 3, 1.0);
  Matrix row(1, 3);
  row(0, 0) = 1;
  row(0, 1) = 2;
  row(0, 2) = 3;
  AddRowVector(&m, row);
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 4.0);
}

TEST(MatrixTest, ColumnSums) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix sums;
  ColumnSums(m, &sums);
  EXPECT_EQ(sums.rows(), 1u);
  EXPECT_DOUBLE_EQ(sums(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(sums(0, 1), 12.0);
}

// Property sweep: the optimized kernels agree with the naive reference
// across shapes, including skinny and degenerate cases.
class GemmShapeTest
    : public testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(GemmShapeTest, GemmMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(k, n, &rng);
  Matrix out;
  Gemm(a, b, &out);
  ExpectMatrixNear(out, NaiveGemm(a, b));
}

TEST_P(GemmShapeTest, GemmTransAMatchesExplicitTranspose) {
  auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  Matrix a = RandomMatrix(k, m, &rng);  // a^T is (m, k)
  Matrix b = RandomMatrix(k, n, &rng);
  Matrix out;
  GemmTransA(a, b, &out);
  ExpectMatrixNear(out, NaiveGemm(a.Transposed(), b));
}

TEST_P(GemmShapeTest, GemmTransBMatchesExplicitTranspose) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 7 + k * 3 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(n, k, &rng);  // b^T is (k, n)
  Matrix out;
  GemmTransB(a, b, &out);
  ExpectMatrixNear(out, NaiveGemm(a, b.Transposed()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 5, 1),
                    std::make_tuple(5, 1, 5), std::make_tuple(3, 4, 5),
                    std::make_tuple(8, 8, 8), std::make_tuple(2, 16, 3),
                    std::make_tuple(16, 2, 16), std::make_tuple(7, 13, 11)));

TEST(MatrixTest, GemmWithZeroEntriesSkipsCorrectly) {
  // The ikj kernel skips zero multipliers; verify it is still exact.
  Matrix a = Matrix::FromRows({{0, 1}, {2, 0}});
  Matrix b = Matrix::FromRows({{3, 0}, {0, 4}});
  Matrix out;
  Gemm(a, b, &out);
  ExpectMatrixNear(out, NaiveGemm(a, b));
}

// Row-at-a-time reference for the fused dense forward: output (i, j) is
// +0.0 plus x(i,p) * w(p,j) over ascending p, skipping x(i,p) == 0, then
// bias and activation.
template <typename T>
std::vector<T> ReferenceDense(const std::vector<T>& x, size_t m, size_t k,
                              const std::vector<T>& w,
                              const std::vector<T>& b, Activation act,
                              size_t n) {
  std::vector<T> y(m * n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      T acc = T(0);
      for (size_t p = 0; p < k; ++p) {
        const T xv = x[i * k + p];
        if (xv == T(0)) continue;
        acc += xv * w[p * n + j];
      }
      const T v = acc + b[j];
      switch (act) {
        case Activation::kIdentity: y[i * n + j] = v; break;
        case Activation::kRelu: y[i * n + j] = v > T(0) ? v : T(0); break;
        case Activation::kTanh: y[i * n + j] = std::tanh(v); break;
        case Activation::kSigmoid:
          y[i * n + j] = T(1) / (T(1) + std::exp(-v));
          break;
      }
    }
  }
  return y;
}

// Input (i, p) for the sweep: signed zeros and subnormals everywhere, plus
// one NaN per row in rows i % 4 == 1 and one +-inf per row in rows
// i % 4 == 2, so most outputs stay finite while each special value still
// reaches every tile position.
template <typename T>
std::vector<T> SweepInputs(size_t m, size_t k, Rng* rng) {
  const T sub = std::numeric_limits<T>::denorm_min();
  const T inf = std::numeric_limits<T>::infinity();
  std::vector<T> x(m * k);
  for (T& v : x) {
    const size_t u = rng->Index(10);
    v = u < 2    ? T(0)
        : u < 3  ? -T(0)
        : u < 4  ? sub * T(rng->Int(-1000, 1000))
                 : T(rng->Uniform(-1, 1));
  }
  for (size_t i = 0; i < m; ++i) {
    T* row = x.data() + i * k;
    if (i % 4 == 1) row[rng->Index(k)] = std::numeric_limits<T>::quiet_NaN();
    if (i % 4 == 2) row[rng->Index(k)] = rng->Index(2) ? inf : -inf;
  }
  return x;
}

// Weights: signed zeros, subnormals and a few +-inf, so an x == 0 term
// against an infinite weight must stay skipped (0 * inf would add NaN).
template <typename T>
std::vector<T> SweepWeights(size_t count, Rng* rng) {
  const T inf = std::numeric_limits<T>::infinity();
  std::vector<T> w(count);
  for (T& v : w) {
    const size_t u = rng->Index(50);
    v = u < 3    ? T(0)
        : u < 5  ? -T(0)
        : u < 6  ? inf
        : u < 7  ? -inf
        : u < 8  ? std::numeric_limits<T>::denorm_min() * T(7)
                 : T(rng->Uniform(-1, 1));
  }
  return w;
}

// Bit-for-bit equality, except that any NaN matches any NaN.
template <typename T>
void ExpectSameBits(const std::vector<T>& got, const std::vector<T>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t e = 0; e < want.size(); ++e) {
    if (std::isnan(want[e])) {
      ASSERT_TRUE(std::isnan(got[e])) << "element " << e;
      continue;
    }
    ASSERT_EQ(std::memcmp(&got[e], &want[e], sizeof(T)), 0)
        << "element " << e << ": got " << got[e] << " want " << want[e];
  }
}

template <typename T, typename Kernel>
void SweepFusedDense(Kernel kernel, uint64_t seed) {
  Rng rng(seed);
  const Activation acts[] = {Activation::kIdentity, Activation::kRelu,
                             Activation::kTanh, Activation::kSigmoid};
  for (size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 65, 256}) {
    for (size_t k : {1, 2, 7, 12, 48}) {
      for (size_t n : {1, 3, 4, 7, 8, 9, 15, 16, 17, 24, 31, 48}) {
        const std::vector<T> x = SweepInputs<T>(m, k, &rng);
        const std::vector<T> w = SweepWeights<T>(k * n, &rng);
        std::vector<T> b(n);
        for (T& v : b) v = T(rng.Uniform(-0.5, 0.5));
        for (Activation act : acts) {
          // A NaN sentinel in y shows any output the kernel leaves unset.
          std::vector<T> y(m * n, std::numeric_limits<T>::quiet_NaN());
          kernel(x.data(), m, k, w.data(), b.data(), act, y.data(), n);
          SCOPED_TRACE(testing::Message()
                       << "m=" << m << " k=" << k << " n=" << n
                       << " act=" << static_cast<int>(act));
          ExpectSameBits(y, ReferenceDense(x, m, k, w, b, act, n));
        }
      }
    }
  }
}

TEST(FusedDenseForwardTest, SweepBitIdenticalToRowLoopF64) {
  SweepFusedDense<double>(FusedDenseForward, 1901);
}

TEST(FusedDenseForwardTest, SweepBitIdenticalToRowLoopF32) {
  SweepFusedDense<float>(FusedDenseForwardF32, 1902);
}

}  // namespace
}  // namespace neurosketch
