#include "query/aggregate.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/stats.h"

namespace neurosketch {

AggregateAccumulator::AggregateAccumulator(Aggregate agg) : agg_(agg) {}

template <typename Get>
void AggregateAccumulator::AddEach(size_t n, Get get) {
  // Update only the state Finalize reads for this aggregate, in a local
  // copy for the whole run; each value is folded in exactly as a lone Add
  // folds it, so answers do not depend on how rows are grouped.
  switch (agg_) {
    case Aggregate::kCount:
      break;
    case Aggregate::kSum: {
      double sum = sum_;
      for (size_t j = 0; j < n; ++j) sum += get(j);
      sum_ = sum;
      break;
    }
    case Aggregate::kAvg: {  // Welford mean
      double mean = mean_;
      size_t c = count_;
      for (size_t j = 0; j < n; ++j) {
        const double v = get(j);
        mean += (v - mean) / static_cast<double>(++c);
      }
      mean_ = mean;
      break;
    }
    case Aggregate::kStd: {  // Welford mean and M2
      double mean = mean_, m2 = m2_;
      size_t c = count_;
      for (size_t j = 0; j < n; ++j) {
        const double v = get(j);
        const double delta = v - mean;
        mean += delta / static_cast<double>(++c);
        m2 += delta * (v - mean);
      }
      mean_ = mean;
      m2_ = m2;
      break;
    }
    case Aggregate::kMedian:
      for (size_t j = 0; j < n; ++j) buffer_.push_back(get(j));
      break;
    case Aggregate::kMin: {
      double lo = min_;
      for (size_t j = 0; j < n; ++j) {
        lo = count_ + j == 0 ? get(j) : std::min(lo, get(j));
      }
      min_ = lo;
      break;
    }
    case Aggregate::kMax: {
      double hi = max_;
      for (size_t j = 0; j < n; ++j) {
        hi = count_ + j == 0 ? get(j) : std::max(hi, get(j));
      }
      max_ = hi;
      break;
    }
  }
  count_ += n;
}

void AggregateAccumulator::Add(double v) {
  AddEach(1, [v](size_t) { return v; });
}

void AggregateAccumulator::AddSelected(const double* values,
                                       const uint32_t* sel, size_t n) {
  AddEach(n, [values, sel](size_t j) { return values[sel[j]]; });
}

double AggregateAccumulator::Finalize() const {
  switch (agg_) {
    case Aggregate::kCount:
      return static_cast<double>(count_);
    case Aggregate::kSum:
      return sum_;
    case Aggregate::kAvg:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return mean_;
    case Aggregate::kStd:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return std::sqrt(m2_ / static_cast<double>(count_));
    case Aggregate::kMedian:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return stats::Median(buffer_);
    case Aggregate::kMin:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return min_;
    case Aggregate::kMax:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return max_;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double AggregateAccumulator::Evaluate(Aggregate agg,
                                      const std::vector<double>& values) {
  AggregateAccumulator acc(agg);
  for (double v : values) acc.Add(v);
  return acc.Finalize();
}

}  // namespace neurosketch
