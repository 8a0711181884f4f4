// Predicate functions P_f(q, x) (paper Sec. 4.3): binary functions that
// decide whether data point x matches the range described by query
// instance q. NeuroSketch is generic over the predicate family; the
// baselines DBEst/DeepDB support only the axis-aligned family, which the
// evaluation (Table 2) exploits.
#ifndef NEUROSKETCH_QUERY_PREDICATE_H_
#define NEUROSKETCH_QUERY_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/query.h"

namespace neurosketch {

/// \brief Interface for P_f(q, x).
class PredicateFunction {
 public:
  virtual ~PredicateFunction() = default;

  /// \brief Length of the query-instance vector for a table with
  /// `data_dim` attributes.
  virtual size_t QueryDim(size_t data_dim) const = 0;

  /// \brief True iff the row matches the predicate. `row` has `data_dim`
  /// normalized attribute values.
  virtual bool Matches(const QueryInstance& q, const double* row,
                       size_t data_dim) const = 0;

  /// \brief Axis-aligned bounding box of the matching region, used by
  /// index-backed evaluators (TREE-AGG) to prune candidates before the
  /// exact Matches test. The default is the whole normalized domain.
  virtual void QueryBox(const QueryInstance& q, size_t data_dim,
                        std::vector<double>* lo,
                        std::vector<double>* hi) const;

  virtual std::string name() const = 0;
};

/// \brief The canonical WHERE clause of Sec. 2:
/// c_i <= A_i < c_i + r_i for every attribute i.
/// q = (c_1..c_d, r_1..r_d); an inactive attribute has (c,r) = (0,1).
class AxisRangePredicate : public PredicateFunction {
 public:
  size_t QueryDim(size_t data_dim) const override { return 2 * data_dim; }
  bool Matches(const QueryInstance& q, const double* row,
               size_t data_dim) const override;
  void QueryBox(const QueryInstance& q, size_t data_dim,
                std::vector<double>* lo, std::vector<double>* hi) const override;
  std::string name() const override { return "axis_range"; }

  static std::shared_ptr<const AxisRangePredicate> Make() {
    return std::make_shared<const AxisRangePredicate>();
  }
};

/// \brief The unit-stride filter under CompiledAxisRange::Select: writes
/// the offsets j < len with `CompiledAxisRange::InRange(x[j], lo, hi)`
/// to `sel`, in order, and returns their count. Reads only x[0, len) and
/// writes only sel[0, len).
///
/// Mask and compact: each step compares a vector of values with both
/// bounds into a match mask, using the unordered predicates `NLT` and
/// `NGE`, i.e. `!(v < lo) & !(v >= hi)`, so a NaN cell or bound matches
/// exactly when InRange says it does. It then stores the matching row
/// offsets at sel[k] and advances k by the mask's popcount. AVX-512
/// takes 16 rows a step (two 8-wide compares, one 16-lane compress);
/// AVX2 takes 4 (a 16-entry table of lane patterns); the baseline, and
/// every tail shorter than a step, is the scalar
/// CompiledAxisRange::SelectRows. Every kernel writes the same selection
/// vector, so a scan's answer is bit-identical on every ISA. Dispatched
/// per ISA (util/simd_dispatch.h).
size_t SelectInRange(const double* x, size_t len, double lo, double hi,
                     uint32_t* sel);

/// \brief One ISA's kernel behind SelectInRange.
struct RangeSelectKernel {
  const char* isa;  // "baseline", "avx2" or "avx512f"
  size_t (*select)(const double* x, size_t len, double lo, double hi,
                   uint32_t* sel);
};

/// \brief The kernels this build compiles and this CPU runs, baseline
/// first and widest last (the one SelectInRange dispatches to), so tests
/// and benchmarks can run each.
const std::vector<RangeSelectKernel>& RangeSelectKernels();

/// \brief One AxisRangePredicate query compiled for a scan: its active
/// attributes with their [lo, hi) bounds. Exact and delta scans compile a
/// query once and then test only the active columns of each row, instead
/// of a virtual Matches call that re-derives the bounds per row.
///
/// Same match semantics as AxisRangePredicate::Matches, bit for bit:
/// hi is `c + r` as Matches computes it, an attribute with
/// `c == 0.0 && r >= 1.0` is inactive, and a value v matches when
/// `!(v < lo) & !(v >= hi)`, so a NaN cell (or a NaN bound) matches
/// exactly when Matches says it does.
///
/// The two tests combine with a non-short-circuit `&` (Ross, "Selection
/// Conditions in Main Memory", TODS 2004): both comparisons always run,
/// so a scan at mid selectivity has no data-dependent branch to
/// mispredict. Select fills a selection vector the same way.
class CompiledAxisRange {
 public:
  /// Fixed capacity: compiling needs no allocation. A query with more
  /// active attributes does not compile and keeps the per-row path.
  static constexpr size_t kMaxActive = 64;

  /// \brief Compiles `q` for rows of `data_dim` attributes. Returns false
  /// (and the caller keeps the per-row Matches path) when `predicate` is
  /// not an AxisRangePredicate or the query has over kMaxActive active
  /// attributes.
  bool Compile(const PredicateFunction& predicate, const QueryInstance& q,
               size_t data_dim);

  size_t num_active() const { return num_active_; }
  size_t column(size_t k) const { return column_[k]; }
  double lo(size_t k) const { return lo_[k]; }
  double hi(size_t k) const { return hi_[k]; }

  static bool InRange(double v, double lo, double hi) {
    return !(v < lo) & !(v >= hi);
  }

  /// \brief Filters `len` rows into the selection vector `sel`, in row
  /// order, and returns the number of matches. Attribute c of row j is
  /// `column_at(c)[j]`: a block is unit-stride columns, a Table's column
  /// block or a run of a streaming delta chunk alike. `sel` receives the
  /// offsets j of the matching rows: with `values = column_at(c)`,
  /// `values[sel[i]]` is attribute c of the i-th match; `sel` must hold
  /// `len` entries, and slots past the returned count hold no defined
  /// value. The first active attribute fills `sel` through
  /// SelectInRange, the ISA-dispatched mask-and-compact kernel. Each
  /// further attribute narrows `sel` with the scalar loop. Every step
  /// writes its slot and advances by the test result, so no loop has a
  /// data-dependent branch. A query with no active attribute selects
  /// every row.
  template <typename ColumnAt>
  size_t Select(ColumnAt column_at, size_t len, uint32_t* sel) const {
    if (num_active_ == 0) {
      for (size_t j = 0; j < len; ++j) sel[j] = static_cast<uint32_t>(j);
      return len;
    }
    size_t k = SelectInRange(column_at(column_[0]), len, lo_[0], hi_[0], sel);
    for (size_t a = 1; a < num_active_; ++a) {
      const double* y = column_at(column_[a]);
      const double lo_a = lo_[a], hi_a = hi_[a];
      size_t kept = 0;
      for (size_t j = 0; j < k; ++j) {
        const uint32_t r = sel[j];
        sel[kept] = r;
        kept += InRange(y[r], lo_a, hi_a);
      }
      k = kept;
    }
    return k;
  }

  /// \brief The scalar filter over rows [from, len): writes j to sel[k]
  /// and advances k by InRange(x[j], lo, hi) for each row j, then
  /// returns k. The baseline SelectInRange kernel, and the tail of the
  /// vector ones.
  static size_t SelectRows(const double* x, size_t from, size_t len,
                           double lo, double hi, uint32_t* sel, size_t k) {
    for (size_t j = from; j < len; ++j) {
      sel[k] = static_cast<uint32_t>(j);
      k += InRange(x[j], lo, hi);
    }
    return k;
  }

 private:
  size_t num_active_ = 0;
  uint32_t column_[kMaxActive] = {};
  double lo_[kMaxActive] = {};
  double hi_[kMaxActive] = {};
};

/// \brief General rectangle (Table 2): q = (p_x, p_y, p'_x, p'_y, phi)
/// where p, p' are two non-adjacent vertices and phi is the angle the
/// rectangle makes with the x-axis. Applies to the first two attributes.
class RotatedRectPredicate : public PredicateFunction {
 public:
  size_t QueryDim(size_t data_dim) const override {
    (void)data_dim;
    return 5;
  }
  bool Matches(const QueryInstance& q, const double* row,
               size_t data_dim) const override;
  void QueryBox(const QueryInstance& q, size_t data_dim,
                std::vector<double>* lo, std::vector<double>* hi) const override;
  std::string name() const override { return "rotated_rect"; }

  static std::shared_ptr<const RotatedRectPredicate> Make() {
    return std::make_shared<const RotatedRectPredicate>();
  }
};

/// \brief Half-space above a line (Sec. 4.3 example):
/// matches when x[1] > x[0] * q[0] + q[1].
class HalfSpacePredicate : public PredicateFunction {
 public:
  size_t QueryDim(size_t data_dim) const override {
    (void)data_dim;
    return 2;
  }
  bool Matches(const QueryInstance& q, const double* row,
               size_t data_dim) const override;
  std::string name() const override { return "half_space"; }

  static std::shared_ptr<const HalfSpacePredicate> Make() {
    return std::make_shared<const HalfSpacePredicate>();
  }
};

/// \brief Circular range (Sec. 3.3.2): q = (c_1..c_d, radius), matches
/// points with ||x - c||_2 <= radius over the first `centers` attributes.
class CircularPredicate : public PredicateFunction {
 public:
  explicit CircularPredicate(size_t centers) : centers_(centers) {}
  size_t QueryDim(size_t data_dim) const override {
    (void)data_dim;
    return centers_ + 1;
  }
  bool Matches(const QueryInstance& q, const double* row,
               size_t data_dim) const override;
  void QueryBox(const QueryInstance& q, size_t data_dim,
                std::vector<double>* lo, std::vector<double>* hi) const override;
  std::string name() const override { return "circular"; }

  static std::shared_ptr<const CircularPredicate> Make(size_t centers) {
    return std::make_shared<const CircularPredicate>(centers);
  }

 private:
  size_t centers_;
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_PREDICATE_H_
