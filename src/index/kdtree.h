// kd-tree over the query space (paper Alg. 2): partitions a training query
// set into 2^h equally probable regions by cycling through dimensions and
// splitting at the median. Leaves may later be merged pairwise (Alg. 3,
// driven by core/Partitioner); routing a query to its leaf is Alg. 5.
#ifndef NEUROSKETCH_INDEX_KDTREE_H_
#define NEUROSKETCH_INDEX_KDTREE_H_

#include <memory>
#include <vector>

#include "query/query.h"
#include "util/status.h"

namespace neurosketch {

/// \brief Query-space kd-tree with mergeable leaves.
class QuerySpaceKdTree {
 public:
  struct Node {
    // Internal node state (valid when !is_leaf()).
    int split_dim = -1;
    double split_val = 0.0;
    std::unique_ptr<Node> left, right;
    Node* parent = nullptr;
    // Leaf state.
    std::vector<size_t> query_ids;  // indices into the build query set
    bool marked = false;            // Alg. 3 merge mark
    int leaf_id = -1;               // model slot, set by AssignLeafIds
    double cached_aqc = 0.0;        // Alg. 3 line 3 result (set by caller)
    bool aqc_valid = false;         // cached_aqc reflects query_ids

    bool is_leaf() const { return left == nullptr; }
  };

  QuerySpaceKdTree() = default;

  /// \brief Alg. 2: build a tree of height `height` over `queries`
  /// (2^height leaves); splitting stops early if a node has < 2 queries.
  /// `parallelism` bounds the number of concurrent subtree builders on the
  /// shared pool (0 = hardware concurrency, 1 = fully sequential). Every
  /// split decision is a pure function of the node's query set — the
  /// median value along the cycled dimension and a stable left/right scan
  /// — so the tree is bit-identical for every parallelism setting.
  static QuerySpaceKdTree Build(const std::vector<QueryInstance>& queries,
                                size_t height, size_t parallelism = 1);

  /// \brief Alg. 5 traversal: the leaf whose region contains q.
  const Node* Route(const QueryInstance& q) const;
  Node* RouteMutable(const QueryInstance& q);

  /// \brief All current leaves, left-to-right.
  std::vector<Node*> Leaves();
  std::vector<const Node*> Leaves() const;

  size_t NumLeaves() const;

  /// \brief Collapse two sibling leaves into their parent (Alg. 3 line 8):
  /// parent becomes a leaf owning the union of the children's queries.
  Status MergeChildren(Node* parent);

  /// \brief Number the current leaves 0..NumLeaves()-1 (model slots).
  void AssignLeafIds();

  size_t query_dim() const { return query_dim_; }
  Node* root() { return root_.get(); }
  const Node* root() const { return root_.get(); }

  /// \brief Flat encoding of the routing structure (split dims/values and
  /// leaf ids) for sketch serialization. Pre-order; leaves encoded with
  /// split_dim = -1 and split_val = leaf_id.
  std::vector<double> EncodeRouting() const;
  /// \brief Inverse of EncodeRouting over untrusted doubles: fails unless
  /// every tag is -1 or an integer in [0, query_dim), every split value
  /// is finite, no leaf lies deeper than kMaxDepth, and the leaf ids are
  /// [0, num_leaves), each exactly once. Decodes without recursion.
  static Result<QuerySpaceKdTree> DecodeRouting(
      const std::vector<double>& encoded, size_t query_dim,
      size_t num_leaves);

  /// Deepest leaf DecodeRouting accepts. A build never goes deeper than
  /// its height, and a tree this deep would need 2^64 leaves to be
  /// balanced.
  static constexpr size_t kMaxDepth = 64;

 private:
  /// Split one node at `depth` (median along the cycled dimension); leaves
  /// the node a leaf when no further split is possible. Returns true iff
  /// children were created. Touches only `node` and its new children, so
  /// distinct nodes may be split concurrently.
  static bool SplitNode(Node* node, const std::vector<QueryInstance>& queries,
                        size_t depth, size_t dim);
  static void BuildRecursive(Node* node,
                             const std::vector<QueryInstance>& queries,
                             size_t height, size_t depth, size_t dim);

  std::unique_ptr<Node> root_;
  size_t query_dim_ = 0;
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_INDEX_KDTREE_H_
