// Aggregate accumulators. Streaming where possible (COUNT/SUM/AVG/STD/
// MIN/MAX); MEDIAN buffers matched values. AVG is SUM / COUNT, as in SQL:
// the same row-order sum SUM keeps, divided once in Finalize. STD uses
// Welford's method. Add updates only the state its aggregate's Finalize
// reads.
#ifndef NEUROSKETCH_QUERY_AGGREGATE_H_
#define NEUROSKETCH_QUERY_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
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
  /// \brief Lanes of one shared scan: for l < lanes (at most
  /// kMaxLanes, all of one aggregate), the same state as
  /// `accs[l].AddSelected(values, sels[l], counts[l])`. SUM and AVG keep
  /// the adds, and STD the Welford updates, of kLockstepChains lanes in
  /// flight at once, so their dependency chains overlap; each lane's own
  /// sequence of operations is unchanged, and its state is bit-identical
  /// to the separate call.
  static constexpr size_t kMaxLanes = 16;
  static constexpr size_t kLockstepChains = 4;
  static void AddSelectedLanes(AggregateAccumulator* accs, size_t lanes,
                               const double* values,
                               const uint32_t* const* sels,
                               const size_t* counts);
  double Finalize() const;
  size_t count() const { return count_; }

  /// \brief One-shot evaluation over a value vector.
  static double Evaluate(Aggregate agg, const std::vector<double>& values);

 private:
  template <typename Get>
  void AddEach(size_t n, Get get);
  struct Chain;
  template <size_t... I>
  static void Lockstep(std::index_sequence<I...>, Chain* chains,
                       const double* values, size_t steps);

  Aggregate agg_;
  size_t count_ = 0;
  double sum_ = 0.0;              // SUM, AVG
  double mean_ = 0.0, m2_ = 0.0;  // Welford state: STD
  double min_ = 0.0, max_ = 0.0;
  std::vector<double> buffer_;  // MEDIAN only
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_AGGREGATE_H_
