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
    case Aggregate::kSum:
    case Aggregate::kAvg: {  // AVG is SUM / COUNT, summed in row order
      double sum = sum_;
      for (size_t j = 0; j < n; ++j) sum += get(j);
      sum_ = sum;
      break;
    }
    // Welford divides by the running count. It is kept as a double:
    // exact below 2^53, so `c += 1.0` is the double of the incremented
    // integer count, without a conversion per value.
    case Aggregate::kStd: {  // Welford mean and M2
      double mean = mean_, m2 = m2_;
      double c = static_cast<double>(count_);
      for (size_t j = 0; j < n; ++j) {
        const double v = get(j);
        const double delta = v - mean;
        mean += delta / (c += 1.0);
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

struct AggregateAccumulator::Chain {
  AggregateAccumulator* acc;
  const uint32_t* sel;  // the lane's next value
  size_t left;          // values the lane still has
};

template <size_t... I>
void AggregateAccumulator::Lockstep(std::index_sequence<I...>, Chain* chains,
                                    const double* values, size_t steps) {
  // The next `steps` values of every chain, one value of each chain at a
  // time, with each chain's state in registers (the pack expansion
  // unrolls the chain loop). The per-lane updates are AddEach's, STD's
  // count kept as a double included.
  const uint32_t* sel[] = {chains[I].sel...};
  if (chains[0].acc->agg_ == Aggregate::kStd) {
    double mean[] = {chains[I].acc->mean_...};
    double m2[] = {chains[I].acc->m2_...};
    double n[] = {static_cast<double>(chains[I].acc->count_)...};
    auto update = [](double v, double* mean_l, double* m2_l, double* n_l) {
      const double delta = v - *mean_l;
      *mean_l += delta / (*n_l += 1.0);
      *m2_l += delta * (v - *mean_l);
    };
    for (size_t j = 0; j < steps; ++j) {
      (update(values[sel[I][j]], &mean[I], &m2[I], &n[I]), ...);
    }
    ((chains[I].acc->mean_ = mean[I], chains[I].acc->m2_ = m2[I]), ...);
  } else {  // SUM, AVG
    double sum[] = {chains[I].acc->sum_...};
    for (size_t j = 0; j < steps; ++j) ((sum[I] += values[sel[I][j]]), ...);
    ((chains[I].acc->sum_ = sum[I]), ...);
  }
  ((chains[I].acc->count_ += steps, chains[I].sel += steps,
    chains[I].left -= steps),
   ...);
}

void AggregateAccumulator::AddSelectedLanes(AggregateAccumulator* accs,
                                            size_t lanes, const double* values,
                                            const uint32_t* const* sels,
                                            const size_t* counts) {
  const bool lockstep =
      lanes >= 2 && (accs[0].agg_ == Aggregate::kSum ||
                     accs[0].agg_ == Aggregate::kAvg ||
                     accs[0].agg_ == Aggregate::kStd);
  if (!lockstep) {
    for (size_t l = 0; l < lanes; ++l) {
      accs[l].AddSelected(values, sels[l], counts[l]);
    }
    return;
  }
  // Lanes longest first: the longest lane bounds the walk, so it starts
  // at once. kLockstepChains lanes are in flight; all of them advance in
  // lockstep until the shortest runs out, whose chain then takes the
  // next waiting lane. Once no lane waits, the rest drain on fewer
  // chains, down to the last lane's final values alone.
  uint8_t order[kMaxLanes];
  for (size_t l = 0; l < lanes; ++l) {
    size_t at = l;
    for (; at > 0 && counts[order[at - 1]] < counts[l]; --at) {
      order[at] = order[at - 1];
    }
    order[at] = static_cast<uint8_t>(l);
  }
  static_assert(kLockstepChains == 4, "the switch below covers 1..4 chains");
  Chain chains[kLockstepChains];
  size_t active = 0;
  for (size_t next = 0;;) {
    for (; active < kLockstepChains && next < lanes; ++next) {
      const size_t l = order[next];
      if (counts[l] > 0) chains[active++] = Chain{&accs[l], sels[l], counts[l]};
    }
    if (active == 0) break;
    size_t steps = chains[0].left;
    for (size_t c = 1; c < active; ++c) steps = std::min(steps, chains[c].left);
    switch (active) {
      case 4:
        Lockstep(std::make_index_sequence<4>(), chains, values, steps);
        break;
      case 3:
        Lockstep(std::make_index_sequence<3>(), chains, values, steps);
        break;
      case 2:
        Lockstep(std::make_index_sequence<2>(), chains, values, steps);
        break;
      default:
        Lockstep(std::make_index_sequence<1>(), chains, values, steps);
        break;
    }
    size_t kept = 0;
    for (size_t c = 0; c < active; ++c) {
      if (chains[c].left > 0) chains[kept++] = chains[c];
    }
    active = kept;
  }
}

double AggregateAccumulator::Finalize() const {
  switch (agg_) {
    case Aggregate::kCount:
      return static_cast<double>(count_);
    case Aggregate::kSum:
      return sum_;
    case Aggregate::kAvg:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return sum_ / static_cast<double>(count_);
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
