// Tests for the query model: predicates, aggregates, workload generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "data/generators.h"
#include "query/aggregate.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/query.h"
#include "query/workload.h"
#include "util/random.h"
#include "util/stats.h"

namespace neurosketch {
namespace {

TEST(QueryInstanceTest, AxisRangeLayout) {
  QueryInstance q = QueryInstance::AxisRange({0.1, 0.2}, {0.3, 0.4});
  ASSERT_EQ(q.dim(), 4u);
  EXPECT_DOUBLE_EQ(q[0], 0.1);
  EXPECT_DOUBLE_EQ(q[3], 0.4);
}

TEST(QueryTest, AggregateNames) {
  EXPECT_EQ(AggregateName(Aggregate::kCount), "COUNT");
  EXPECT_EQ(AggregateName(Aggregate::kMedian), "MEDIAN");
}

TEST(QueryTest, SpecToString) {
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kAvg;
  spec.measure_col = 2;
  EXPECT_NE(spec.ToString().find("AVG"), std::string::npos);
  EXPECT_NE(spec.ToString().find("axis_range"), std::string::npos);
}

TEST(AxisRangeTest, BasicMatching) {
  AxisRangePredicate pred;
  QueryInstance q = QueryInstance::AxisRange({0.2, 0.0}, {0.3, 1.0});
  double in_row[2] = {0.3, 0.9};
  double below[2] = {0.1, 0.5};
  double at_upper[2] = {0.5, 0.5};  // c + r boundary is exclusive
  double at_lower[2] = {0.2, 0.5};  // c boundary is inclusive
  EXPECT_TRUE(pred.Matches(q, in_row, 2));
  EXPECT_FALSE(pred.Matches(q, below, 2));
  EXPECT_FALSE(pred.Matches(q, at_upper, 2));
  EXPECT_TRUE(pred.Matches(q, at_lower, 2));
}

TEST(AxisRangeTest, InactiveAttributeUnconstrained) {
  AxisRangePredicate pred;
  QueryInstance q = QueryInstance::AxisRange({0.0, 0.4}, {1.0, 0.2});
  // Attribute 0 is inactive (0, 1): a value of exactly 1.0 must match.
  double row[2] = {1.0, 0.5};
  EXPECT_TRUE(pred.Matches(q, row, 2));
}

TEST(AxisRangeTest, QueryDimAndBox) {
  AxisRangePredicate pred;
  EXPECT_EQ(pred.QueryDim(3), 6u);
  QueryInstance q = QueryInstance::AxisRange({0.1, 0.2}, {0.3, 0.4});
  std::vector<double> lo, hi;
  pred.QueryBox(q, 2, &lo, &hi);
  EXPECT_DOUBLE_EQ(lo[0], 0.1);
  EXPECT_DOUBLE_EQ(hi[0], 0.4);
  EXPECT_DOUBLE_EQ(hi[1], 0.6);
}

TEST(RotatedRectTest, ZeroAngleMatchesAxisRect) {
  RotatedRectPredicate rot;
  // p = (0.2, 0.3), p' = (0.6, 0.5), phi = 0.
  QueryInstance q(std::vector<double>{0.2, 0.3, 0.6, 0.5, 0.0});
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    double row[2] = {rng.Uniform(), rng.Uniform()};
    const bool in_axis = row[0] >= 0.2 && row[0] <= 0.6 && row[1] >= 0.3 &&
                         row[1] <= 0.5;
    EXPECT_EQ(rot.Matches(q, row, 2), in_axis)
        << row[0] << "," << row[1];
  }
}

TEST(RotatedRectTest, RotatedContainsCenterExcludesAxisCorner) {
  RotatedRectPredicate rot;
  // A thin rectangle rotated 45 degrees around p.
  const double phi = M_PI / 4.0;
  const double w = 0.4, h = 0.1;
  const double px = 0.3, py = 0.3;
  const double qx = px + std::cos(phi) * w - std::sin(phi) * h;
  const double qy = py + std::sin(phi) * w + std::cos(phi) * h;
  QueryInstance q(std::vector<double>{px, py, qx, qy, phi});
  // Midpoint of the diagonal is always inside.
  double center[2] = {(px + qx) / 2, (py + qy) / 2};
  EXPECT_TRUE(rot.Matches(q, center, 2));
  // The axis-aligned corner (qx, py) lies outside the rotated rectangle.
  double corner[2] = {qx, py};
  EXPECT_FALSE(rot.Matches(q, corner, 2));
}

TEST(RotatedRectTest, BoundingBoxCoversMatches) {
  RotatedRectPredicate rot;
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const double phi = rng.Uniform(0, M_PI / 2);
    const double px = rng.Uniform(0.1, 0.5), py = rng.Uniform(0.1, 0.5);
    const double w = rng.Uniform(0.05, 0.3), h = rng.Uniform(0.05, 0.3);
    const double qx = px + std::cos(phi) * w - std::sin(phi) * h;
    const double qy = py + std::sin(phi) * w + std::cos(phi) * h;
    QueryInstance q(std::vector<double>{px, py, qx, qy, phi});
    std::vector<double> lo, hi;
    rot.QueryBox(q, 2, &lo, &hi);
    for (int i = 0; i < 100; ++i) {
      double row[2] = {rng.Uniform(), rng.Uniform()};
      if (rot.Matches(q, row, 2)) {
        EXPECT_GE(row[0], lo[0] - 1e-9);
        EXPECT_LE(row[0], hi[0] + 1e-9);
        EXPECT_GE(row[1], lo[1] - 1e-9);
        EXPECT_LE(row[1], hi[1] + 1e-9);
      }
    }
  }
}

TEST(HalfSpaceTest, AboveLine) {
  HalfSpacePredicate pred;
  // x[1] > 2 x[0] + 0.1
  QueryInstance q(std::vector<double>{2.0, 0.1});
  double above[2] = {0.1, 0.5};
  double below[2] = {0.3, 0.5};
  EXPECT_TRUE(pred.Matches(q, above, 2));
  EXPECT_FALSE(pred.Matches(q, below, 2));
  EXPECT_EQ(pred.QueryDim(7), 2u);
}

TEST(CircularTest, InsideOutsideAndBox) {
  CircularPredicate pred(2);
  QueryInstance q(std::vector<double>{0.5, 0.5, 0.2});
  double inside[2] = {0.6, 0.6};
  double outside[2] = {0.8, 0.8};
  double boundary[2] = {0.7, 0.5};
  EXPECT_TRUE(pred.Matches(q, inside, 2));
  EXPECT_FALSE(pred.Matches(q, outside, 2));
  EXPECT_TRUE(pred.Matches(q, boundary, 2));  // closed ball
  std::vector<double> lo, hi;
  pred.QueryBox(q, 2, &lo, &hi);
  EXPECT_DOUBLE_EQ(lo[0], 0.3);
  EXPECT_DOUBLE_EQ(hi[1], 0.7);
}

// Aggregate accumulators must match the reference implementations in
// util/stats over random inputs.
class AggregateTest : public testing::TestWithParam<Aggregate> {};

TEST_P(AggregateTest, MatchesReference) {
  const Aggregate agg = GetParam();
  Rng rng(static_cast<uint64_t>(agg) + 1);
  std::vector<double> values;
  AggregateAccumulator acc(agg);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.Uniform(-10, 10);
    values.push_back(v);
    acc.Add(v);
  }
  double expected = 0.0;
  switch (agg) {
    case Aggregate::kCount: expected = 500.0; break;
    case Aggregate::kSum: expected = stats::Sum(values); break;
    case Aggregate::kAvg: expected = stats::Mean(values); break;
    case Aggregate::kStd: expected = stats::Stddev(values); break;
    case Aggregate::kMedian: expected = stats::Median(values); break;
    case Aggregate::kMin: expected = stats::Min(values); break;
    case Aggregate::kMax: expected = stats::Max(values); break;
  }
  EXPECT_NEAR(acc.Finalize(), expected, 1e-9) << AggregateName(agg);
  EXPECT_EQ(acc.count(), 500u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, AggregateTest,
    testing::Values(Aggregate::kCount, Aggregate::kSum, Aggregate::kAvg,
                    Aggregate::kStd, Aggregate::kMedian, Aggregate::kMin,
                    Aggregate::kMax),
    [](const testing::TestParamInfo<Aggregate>& info) {
      return AggregateName(info.param);
    });

TEST(AggregateTest, EmptySemantics) {
  EXPECT_DOUBLE_EQ(AggregateAccumulator::Evaluate(Aggregate::kCount, {}), 0.0);
  EXPECT_DOUBLE_EQ(AggregateAccumulator::Evaluate(Aggregate::kSum, {}), 0.0);
  EXPECT_TRUE(
      std::isnan(AggregateAccumulator::Evaluate(Aggregate::kAvg, {})));
  EXPECT_TRUE(
      std::isnan(AggregateAccumulator::Evaluate(Aggregate::kMedian, {})));
  EXPECT_TRUE(std::isnan(AggregateAccumulator::Evaluate(Aggregate::kMin, {})));
}

// AVG is SUM / COUNT: one row-order sum, divided once. The accumulator
// tests below compare doubles by their bits.
uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Values with the cases an IEEE sum treats specially, each rare enough
// (one in a thousand) that most lanes stay finite: NaN, +inf, -inf and
// -0.0.
std::vector<double> SpecialValues(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    const size_t pick = rng->Index(1000);
    x = pick == 0   ? std::numeric_limits<double>::quiet_NaN()
        : pick == 1 ? std::numeric_limits<double>::infinity()
        : pick == 2 ? -std::numeric_limits<double>::infinity()
        : pick == 3 ? -0.0
                    : rng->Uniform(-1e3, 1e3);
  }
  return v;
}

// Selection vectors over `values`, one per lane, of random lengths in
// [0, max_len] (a quarter of them empty) and random rows.
std::vector<std::vector<uint32_t>> RandomLanes(size_t lanes, size_t rows,
                                               size_t max_len, Rng* rng) {
  std::vector<std::vector<uint32_t>> sels(lanes);
  for (auto& sel : sels) {
    if (rng->Bernoulli(0.25)) continue;
    sel.resize(rng->Index(max_len + 1));
    for (uint32_t& r : sel) r = static_cast<uint32_t>(rng->Index(rows));
  }
  return sels;
}

// Feeds `accs[l]` the values `sels[l]` selects through AddSelectedLanes.
void AddLanes(std::vector<AggregateAccumulator>* accs, const double* values,
              const std::vector<std::vector<uint32_t>>& sels) {
  std::vector<const uint32_t*> ptrs;
  std::vector<size_t> counts;
  for (const auto& sel : sels) {
    ptrs.push_back(sel.data());
    counts.push_back(sel.size());
  }
  AggregateAccumulator::AddSelectedLanes(accs->data(), sels.size(), values,
                                         ptrs.data(), counts.data());
}

TEST(AggregateTest, AvgIsSumOverCountBitForBit) {
  Rng rng(27);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.Uniform(-1e3, 1e3);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    // Add: one value at a time.
    const size_t n = rng.Index(300);
    AggregateAccumulator sum(Aggregate::kSum), avg(Aggregate::kAvg);
    for (size_t i = 0; i < n; ++i) {
      sum.Add(values[i]);
      avg.Add(values[i]);
    }
    if (n > 0) {
      EXPECT_EQ(Bits(avg.Finalize()),
                Bits(sum.Finalize() / static_cast<double>(n)));
    }

    // AddSelected over random groupings of one selection: every grouping
    // leaves the bits of a single row-order pass.
    const auto lane = RandomLanes(1, values.size(), 2000, &rng)[0];
    AggregateAccumulator whole(Aggregate::kAvg);
    whole.AddSelected(values.data(), lane.data(), lane.size());
    AggregateAccumulator pieces_sum(Aggregate::kSum);
    AggregateAccumulator pieces_avg(Aggregate::kAvg);
    for (size_t at = 0; at < lane.size();) {
      const size_t len = std::min(lane.size() - at, rng.Index(64) + 1);
      pieces_sum.AddSelected(values.data(), lane.data() + at, len);
      pieces_avg.AddSelected(values.data(), lane.data() + at, len);
      at += len;
    }
    if (lane.empty()) {
      EXPECT_TRUE(std::isnan(whole.Finalize()));
      EXPECT_TRUE(std::isnan(pieces_avg.Finalize()));
    } else {
      const double want =
          pieces_sum.Finalize() / static_cast<double>(lane.size());
      EXPECT_EQ(Bits(pieces_avg.Finalize()), Bits(want));
      EXPECT_EQ(Bits(whole.Finalize()), Bits(want));
    }

    // AddSelectedLanes, continuing accumulations that already hold rows.
    const size_t lanes = 1 + rng.Index(AggregateAccumulator::kMaxLanes);
    const auto sels = RandomLanes(lanes, values.size(), 700, &rng);
    std::vector<AggregateAccumulator> sums(
        lanes, AggregateAccumulator(Aggregate::kSum));
    std::vector<AggregateAccumulator> avgs(
        lanes, AggregateAccumulator(Aggregate::kAvg));
    for (size_t l = 0; l < lanes; ++l) {
      for (size_t i = 0; i < l % 3; ++i) {
        sums[l].Add(values[i]);
        avgs[l].Add(values[i]);
      }
    }
    AddLanes(&sums, values.data(), sels);
    AddLanes(&avgs, values.data(), sels);
    for (size_t l = 0; l < lanes; ++l) {
      SCOPED_TRACE(l);
      const size_t count = avgs[l].count();
      ASSERT_EQ(count, l % 3 + sels[l].size());
      if (count == 0) {
        EXPECT_TRUE(std::isnan(avgs[l].Finalize()));
      } else {
        EXPECT_EQ(Bits(avgs[l].Finalize()),
                  Bits(sums[l].Finalize() / static_cast<double>(count)));
      }
    }
  }
}

// The lockstep walk keeps up to four lanes in flight; each lane must end
// with exactly the state its own AddSelected leaves.
TEST(AggregateTest, LanesEqualSeparateCallsBitForBit) {
  Rng rng(2027);
  const std::vector<double> values = SpecialValues(2048, &rng);
  for (Aggregate agg : {Aggregate::kSum, Aggregate::kAvg, Aggregate::kStd,
                        Aggregate::kCount, Aggregate::kMin,
                        Aggregate::kMax}) {
    for (size_t lanes = 1; lanes <= AggregateAccumulator::kMaxLanes;
         ++lanes) {
      for (int trial = 0; trial < 4; ++trial) {
        SCOPED_TRACE(std::string(AggregateName(agg)) + " lanes " +
                     std::to_string(lanes) + " trial " +
                     std::to_string(trial));
        const auto sels = RandomLanes(lanes, values.size(), 300, &rng);
        std::vector<AggregateAccumulator> together(
            lanes, AggregateAccumulator(agg));
        std::vector<AggregateAccumulator> apart(lanes,
                                                AggregateAccumulator(agg));
        for (size_t l = 0; l < lanes; ++l) {  // some lanes continue
          for (size_t i = 0; i < l % 2; ++i) {
            together[l].Add(values[100 + l]);
            apart[l].Add(values[100 + l]);
          }
        }
        AddLanes(&together, values.data(), sels);
        for (size_t l = 0; l < lanes; ++l) {
          apart[l].AddSelected(values.data(), sels[l].data(), sels[l].size());
          EXPECT_EQ(together[l].count(), apart[l].count()) << "lane " << l;
          EXPECT_EQ(Bits(together[l].Finalize()), Bits(apart[l].Finalize()))
              << "lane " << l;
        }
      }
    }
  }
}

TEST(AggregateTest, ZeroRowAvgIsNaN) {
  const double values[] = {1.0};
  const uint32_t* sels[] = {nullptr, nullptr};
  const size_t counts[] = {0, 0};
  std::vector<AggregateAccumulator> accs(
      2, AggregateAccumulator(Aggregate::kAvg));
  accs[0].AddSelected(values, nullptr, 0);
  AggregateAccumulator::AddSelectedLanes(accs.data(), 2, values, sels, counts);
  for (const AggregateAccumulator& acc : accs) {
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_TRUE(std::isnan(acc.Finalize()));
  }
}

TEST(WorkloadTest, ActiveAttributeCount) {
  WorkloadConfig cfg;
  cfg.num_active = 2;
  cfg.seed = 5;
  WorkloadGenerator gen(5, cfg);
  for (int i = 0; i < 100; ++i) {
    QueryInstance q = gen.Generate();
    ASSERT_EQ(q.dim(), 10u);
    size_t active = 0;
    for (size_t a = 0; a < 5; ++a) {
      if (!(q[a] == 0.0 && q[5 + a] >= 1.0)) ++active;
    }
    EXPECT_EQ(active, 2u);
  }
}

TEST(WorkloadTest, RangesStayInDomain) {
  WorkloadConfig cfg;
  cfg.num_active = 3;
  cfg.range_frac_lo = 0.01;
  cfg.range_frac_hi = 0.9;
  cfg.seed = 6;
  WorkloadGenerator gen(4, cfg);
  for (int i = 0; i < 200; ++i) {
    QueryInstance q = gen.Generate();
    for (size_t a = 0; a < 4; ++a) {
      EXPECT_GE(q[a], 0.0);
      EXPECT_LE(q[a] + q[4 + a], 1.0 + 1e-12);
    }
  }
}

TEST(WorkloadTest, FixedAttrsAlwaysActive) {
  WorkloadConfig cfg;
  cfg.num_active = 2;
  cfg.fixed_attrs = {0, 1};
  cfg.seed = 7;
  WorkloadGenerator gen(3, cfg);
  for (int i = 0; i < 50; ++i) {
    QueryInstance q = gen.Generate();
    EXPECT_LT(q[3 + 0], 1.0);  // attr 0 has a real range
    EXPECT_LT(q[3 + 1], 1.0);
    EXPECT_DOUBLE_EQ(q[2], 0.0);  // attr 2 inactive
    EXPECT_DOUBLE_EQ(q[3 + 2], 1.0);
  }
}

TEST(WorkloadTest, FixedRangeFraction) {
  WorkloadConfig cfg;
  cfg.num_active = 1;
  cfg.range_frac_lo = cfg.range_frac_hi = 0.05;
  cfg.seed = 8;
  WorkloadGenerator gen(2, cfg);
  for (int i = 0; i < 50; ++i) {
    QueryInstance q = gen.Generate();
    for (size_t a = 0; a < 2; ++a) {
      if (q[2 + a] < 1.0) {
        EXPECT_NEAR(q[2 + a], 0.05, 1e-12);
      }
    }
  }
}

TEST(WorkloadTest, CandidateAttrsRestrictChoice) {
  WorkloadConfig cfg;
  cfg.num_active = 1;
  cfg.candidate_attrs = {2};
  cfg.seed = 9;
  WorkloadGenerator gen(4, cfg);
  for (int i = 0; i < 50; ++i) {
    QueryInstance q = gen.Generate();
    for (size_t a = 0; a < 4; ++a) {
      const bool active = !(q[a] == 0.0 && q[4 + a] >= 1.0);
      EXPECT_EQ(active, a == 2);
    }
  }
}

TEST(WorkloadTest, MinMatchesResamples) {
  // A tiny table with all data in a corner: unconstrained generation would
  // often produce empty queries; with min_matches the answers are defined.
  Table t = MakeGaussianTable(200, 2, 0.1, 0.02, 10);
  ExactEngine engine(&t);
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kAvg;
  spec.measure_col = 1;
  WorkloadConfig cfg;
  cfg.num_active = 1;
  cfg.range_frac_lo = cfg.range_frac_hi = 0.1;
  cfg.min_matches = 3;
  cfg.seed = 11;
  WorkloadGenerator gen(2, cfg);
  auto queries = gen.GenerateMany(30, &engine, &spec);
  for (const auto& q : queries) {
    EXPECT_GE(engine.CountMatches(spec, q), 3u);
  }
}

TEST(WorkloadTest, RotatedRectGeneration) {
  WorkloadConfig cfg;
  cfg.range_frac_lo = 0.1;
  cfg.range_frac_hi = 0.3;
  cfg.seed = 12;
  WorkloadGenerator gen(2, cfg);
  auto rects = gen.GenerateRotatedRects(40);
  for (const auto& q : rects) {
    ASSERT_EQ(q.dim(), 5u);
    EXPECT_GE(q[4], 0.0);
    EXPECT_LT(q[4], M_PI / 2);
  }
}

TEST(WorkloadTest, DeterministicBySeed) {
  WorkloadConfig cfg;
  cfg.seed = 13;
  WorkloadGenerator a(3, cfg), b(3, cfg);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Generate().q, b.Generate().q);
  }
}

}  // namespace
}  // namespace neurosketch
