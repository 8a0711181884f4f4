#include "query/predicate.h"

#include <algorithm>
#include <cmath>

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
