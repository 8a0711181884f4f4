// Tests for the index substrates: query-space kd-tree (Alg. 2/3/5) and the
// R-tree used by TREE-AGG.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "index/kdtree.h"
#include "index/rtree.h"
#include "query/workload.h"
#include "util/random.h"

namespace neurosketch {
namespace {

std::vector<QueryInstance> RandomQueries(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryInstance> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> v(dim);
    for (auto& x : v) x = rng.Uniform();
    out.emplace_back(std::move(v));
  }
  return out;
}

TEST(KdTreeTest, HeightControlsLeafCount) {
  auto queries = RandomQueries(256, 4, 1);
  for (size_t h : {0u, 1u, 2u, 3u, 4u}) {
    auto tree = QuerySpaceKdTree::Build(queries, h);
    EXPECT_EQ(tree.NumLeaves(), static_cast<size_t>(1) << h) << "h=" << h;
  }
}

TEST(KdTreeTest, LeavesPartitionQuerySet) {
  auto queries = RandomQueries(200, 3, 2);
  auto tree = QuerySpaceKdTree::Build(queries, 3);
  std::multiset<size_t> seen;
  for (const auto* leaf : static_cast<const QuerySpaceKdTree&>(tree).Leaves()) {
    for (size_t id : leaf->query_ids) seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 200u);
  std::set<size_t> uniq(seen.begin(), seen.end());
  EXPECT_EQ(uniq.size(), 200u);  // no duplicates
}

TEST(KdTreeTest, MedianSplitsAreBalanced) {
  auto queries = RandomQueries(512, 2, 3);
  auto tree = QuerySpaceKdTree::Build(queries, 4);
  for (auto* leaf : tree.Leaves()) {
    // 512 / 16 = 32 per leaf, median splits keep it within ±50%.
    EXPECT_GE(leaf->query_ids.size(), 16u);
    EXPECT_LE(leaf->query_ids.size(), 48u);
  }
}

TEST(KdTreeTest, RoutingIsConsistentWithBuild) {
  auto queries = RandomQueries(300, 3, 4);
  auto tree = QuerySpaceKdTree::Build(queries, 3);
  // Every training query must route to the leaf that owns it.
  for (auto* leaf : tree.Leaves()) {
    for (size_t id : leaf->query_ids) {
      EXPECT_EQ(tree.Route(queries[id]), leaf) << "query " << id;
    }
  }
}

TEST(KdTreeTest, LeafIdsAreDense) {
  auto queries = RandomQueries(128, 2, 5);
  auto tree = QuerySpaceKdTree::Build(queries, 3);
  std::set<int> ids;
  for (auto* leaf : tree.Leaves()) ids.insert(leaf->leaf_id);
  EXPECT_EQ(ids.size(), tree.NumLeaves());
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), static_cast<int>(tree.NumLeaves()) - 1);
}

TEST(KdTreeTest, DegenerateDuplicatesStopSplitting) {
  std::vector<QueryInstance> queries(
      64, QueryInstance(std::vector<double>{0.5, 0.5}));
  auto tree = QuerySpaceKdTree::Build(queries, 4);
  // All coordinates identical: no valid split exists.
  EXPECT_EQ(tree.NumLeaves(), 1u);
}

TEST(KdTreeTest, MergeChildrenCollapsesLeafPair) {
  auto queries = RandomQueries(64, 2, 6);
  auto tree = QuerySpaceKdTree::Build(queries, 2);
  ASSERT_EQ(tree.NumLeaves(), 4u);
  // Find a parent of two leaves and merge.
  QuerySpaceKdTree::Node* parent = tree.root()->left.get();
  ASSERT_FALSE(parent->is_leaf());
  const size_t expected =
      parent->left->query_ids.size() + parent->right->query_ids.size();
  ASSERT_TRUE(tree.MergeChildren(parent).ok());
  EXPECT_TRUE(parent->is_leaf());
  EXPECT_EQ(parent->query_ids.size(), expected);
  EXPECT_EQ(tree.NumLeaves(), 3u);
}

TEST(KdTreeTest, MergePreconditionsEnforced) {
  auto queries = RandomQueries(64, 2, 7);
  auto tree = QuerySpaceKdTree::Build(queries, 3);
  EXPECT_FALSE(tree.MergeChildren(nullptr).ok());
  // Root's children are internal at height 3.
  EXPECT_FALSE(tree.MergeChildren(tree.root()).ok());
  // A leaf is rejected too.
  EXPECT_FALSE(tree.MergeChildren(tree.Leaves()[0]).ok());
}

TEST(KdTreeTest, EncodeDecodeRoutesIdentically) {
  auto queries = RandomQueries(200, 4, 8);
  auto tree = QuerySpaceKdTree::Build(queries, 3);
  auto encoded = tree.EncodeRouting();
  auto decoded = QuerySpaceKdTree::DecodeRouting(encoded, 4, tree.NumLeaves());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto probes = RandomQueries(100, 4, 9);
  for (const auto& q : probes) {
    EXPECT_EQ(tree.Route(q)->leaf_id, decoded.value().Route(q)->leaf_id);
  }
}

TEST(KdTreeTest, DecodeRejectsMalformed) {
  EXPECT_FALSE(QuerySpaceKdTree::DecodeRouting({}, 2, 1).ok());
  EXPECT_FALSE(QuerySpaceKdTree::DecodeRouting({0.0}, 2, 1).ok());
  // Internal node with missing children.
  EXPECT_FALSE(QuerySpaceKdTree::DecodeRouting({1.0, 0.5}, 2, 1).ok());
  // A split of dimension 0 over leaves 0 and 1 decodes; each rewrite of
  // one of its values below does not.
  const std::vector<double> good = {0.0, 0.5, -1.0, 0.0, -1.0, 1.0};
  ASSERT_TRUE(QuerySpaceKdTree::DecodeRouting(good, 2, 2).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    size_t at;
    double v;
  } bad[] = {{0, 2.0},  {0, 100000.0}, {0, nan}, {0, -inf}, {0, 0.5},
             {0, -2.0}, {1, nan},      {1, inf}, {3, -1.0}, {3, nan},
             {3, 0.5},  {5, 1e300}};
  for (const auto& b : bad) {
    std::vector<double> enc = good;
    enc[b.at] = b.v;
    EXPECT_FALSE(QuerySpaceKdTree::DecodeRouting(enc, 2, 2).ok())
        << "value " << b.v << " at " << b.at;
  }
}

TEST(BoundingBoxTest, ExpandMergeIntersect) {
  BoundingBox box = BoundingBox::Empty(2);
  double p1[2] = {0.2, 0.3}, p2[2] = {0.5, 0.1};
  box.Expand(p1, 2);
  box.Expand(p2, 2);
  EXPECT_DOUBLE_EQ(box.lo[0], 0.2);
  EXPECT_DOUBLE_EQ(box.hi[0], 0.5);
  EXPECT_DOUBLE_EQ(box.lo[1], 0.1);
  EXPECT_TRUE(box.Intersects({0.4, 0.0}, {0.6, 0.2}));
  EXPECT_FALSE(box.Intersects({0.6, 0.0}, {0.9, 0.05}));
  EXPECT_TRUE(box.ContainedIn({0.0, 0.0}, {1.0, 1.0}));
  EXPECT_FALSE(box.ContainedIn({0.3, 0.0}, {1.0, 1.0}));
}

// Property sweep: R-tree range queries must agree with a linear scan for
// random boxes across dimensions and data sizes.
class RTreeEquivalenceTest
    : public testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(RTreeEquivalenceTest, MatchesLinearScan) {
  auto [dim, n] = GetParam();
  Rng rng(dim * 1000 + n);
  std::vector<std::vector<double>> points(n, std::vector<double>(dim));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Uniform();
  }
  RTree tree = RTree::BulkLoad(points, /*leaf_capacity=*/8, /*fanout=*/4);
  EXPECT_EQ(tree.num_points(), n);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> lo(dim), hi(dim);
    for (size_t d = 0; d < dim; ++d) {
      const double a = rng.Uniform(), b = rng.Uniform();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    auto got = tree.RangeQuery(lo, hi);
    std::set<size_t> got_set(got.begin(), got.end());
    std::set<size_t> want;
    for (size_t i = 0; i < n; ++i) {
      bool inside = true;
      for (size_t d = 0; d < dim; ++d) {
        if (points[i][d] < lo[d] || points[i][d] > hi[d]) {
          inside = false;
          break;
        }
      }
      if (inside) want.insert(i);
    }
    EXPECT_EQ(got_set, want) << "dim=" << dim << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeEquivalenceTest,
    testing::Combine(testing::Values<size_t>(1, 2, 3, 5),
                     testing::Values<size_t>(1, 17, 256, 1000)));

TEST(RTreeTest, EmptyTree) {
  RTree tree = RTree::BulkLoad({});
  EXPECT_EQ(tree.num_points(), 0u);
  EXPECT_TRUE(tree.RangeQuery({0.0}, {1.0}).empty());
}

TEST(RTreeTest, FullDomainReturnsAll) {
  Rng rng(99);
  std::vector<std::vector<double>> points(500, std::vector<double>(3));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Uniform();
  }
  RTree tree = RTree::BulkLoad(points);
  auto got = tree.RangeQuery({0, 0, 0}, {1, 1, 1});
  EXPECT_EQ(got.size(), 500u);
}

TEST(RTreeTest, SizeBytesPositiveAndGrowing) {
  std::vector<std::vector<double>> small(10, std::vector<double>(2, 0.5));
  std::vector<std::vector<double>> large(1000, std::vector<double>(2, 0.5));
  EXPECT_GT(RTree::BulkLoad(small).SizeBytes(), 0u);
  EXPECT_GT(RTree::BulkLoad(large).SizeBytes(),
            RTree::BulkLoad(small).SizeBytes());
}

TEST(RTreeTest, ForEachVisitsEachPointOnce) {
  Rng rng(100);
  std::vector<std::vector<double>> points(300, std::vector<double>(2));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Uniform();
  }
  RTree tree = RTree::BulkLoad(points, 16);
  std::multiset<size_t> visited;
  tree.ForEachInBox({0, 0}, {1, 1},
                    [&](size_t id, const double*) { visited.insert(id); });
  EXPECT_EQ(visited.size(), 300u);
  std::set<size_t> uniq(visited.begin(), visited.end());
  EXPECT_EQ(uniq.size(), 300u);
}

}  // namespace
}  // namespace neurosketch
