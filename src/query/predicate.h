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

/// \brief One AxisRangePredicate query compiled for a scan: its active
/// attributes with their [lo, hi) bounds. Exact and delta scans compile a
/// query once and then test only the active columns of each row, instead
/// of a virtual Matches call that re-derives the bounds per row.
///
/// Same match semantics as AxisRangePredicate::Matches, bit for bit:
/// hi is `c + r` as Matches computes it, an attribute with
/// `c == 0.0 && r >= 1.0` is inactive, and a value v matches when
/// `!(v < lo) && !(v >= hi)`, so a NaN cell (or a NaN bound) matches
/// exactly when Matches says it does.
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
    return !(v < lo) && !(v >= hi);
  }

  /// \brief Row-major test over the active attributes of one row.
  bool Matches(const double* row) const {
    for (size_t k = 0; k < num_active_; ++k) {
      if (!InRange(row[column_[k]], lo_[k], hi_[k])) return false;
    }
    return true;
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
