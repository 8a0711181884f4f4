// Aggregate accumulators. Streaming where possible (COUNT/SUM/AVG/STD/
// MIN/MAX); MEDIAN buffers matched values. AVG and STD use Welford's
// method. Add updates only the state its aggregate's Finalize reads.
#ifndef NEUROSKETCH_QUERY_AGGREGATE_H_
#define NEUROSKETCH_QUERY_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/query.h"

namespace neurosketch {

/// \brief Accumulates measure values for one query and finalizes the
/// aggregate. COUNT/SUM of zero rows is 0; AVG/STD/MEDIAN/MIN/MAX of zero
/// rows is NaN (the query answer is undefined; workload generators resample
/// such queries).
class AggregateAccumulator {
 public:
  explicit AggregateAccumulator(Aggregate agg);

  void Add(double measure_value);
  /// \brief Add values[sel[0]], ..., values[sel[n-1]] in that order;
  /// the same state as n Add calls, without a call per value.
  void AddSelected(const double* values, const uint32_t* sel, size_t n);
  double Finalize() const;
  size_t count() const { return count_; }

  /// \brief One-shot evaluation over a value vector.
  static double Evaluate(Aggregate agg, const std::vector<double>& values);

 private:
  template <typename Get>
  void AddEach(size_t n, Get get);

  Aggregate agg_;
  size_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0, m2_ = 0.0;  // Welford state: AVG (mean), STD
  double min_ = 0.0, max_ = 0.0;
  std::vector<double> buffer_;  // MEDIAN only
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_AGGREGATE_H_
