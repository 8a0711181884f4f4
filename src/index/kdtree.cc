#include "index/kdtree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/thread_pool.h"

namespace neurosketch {

namespace {
/// Subtrees with fewer queries than this build sequentially even when the
/// parallel path is active: below it the split work is too small to cover
/// a pool hand-off. The cutoff affects scheduling only, never the splits.
constexpr size_t kSequentialBuildCutoff = 2048;

/// True when `v` is an integer in [0, end) that an int holds, so casting
/// it is defined. False for NaN.
bool IsIntBelow(double v, double end) {
  return v >= 0.0 && v < end && v <= std::numeric_limits<int>::max() &&
         v == std::trunc(v);
}
}  // namespace

QuerySpaceKdTree QuerySpaceKdTree::Build(
    const std::vector<QueryInstance>& queries, size_t height,
    size_t parallelism) {
  QuerySpaceKdTree tree;
  tree.query_dim_ = queries.empty() ? 0 : queries[0].dim();
  tree.root_ = std::make_unique<Node>();
  tree.root_->query_ids.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) tree.root_->query_ids[i] = i;
  if (parallelism == 1 || queries.size() < kSequentialBuildCutoff) {
    BuildRecursive(tree.root_.get(), queries, height, 0, tree.query_dim_);
  } else {
    // Task-splitting build, realized level-synchronously: each round
    // splits the current frontier of pending nodes concurrently on the
    // shared pool, then the children form the next frontier. A node whose
    // query set has shrunk below the cutoff builds its whole remaining
    // subtree sequentially inside its task instead of re-entering the
    // frontier. Distinct nodes touch disjoint state, and every split is
    // the same pure function of the node's query set the sequential build
    // applies, so the resulting tree is bit-identical to BuildRecursive.
    std::vector<Node*> frontier = {tree.root_.get()};
    size_t depth = 0;
    while (!frontier.empty() && depth < height) {
      const size_t d = depth;
      std::vector<std::pair<Node*, Node*>> children(frontier.size(),
                                                    {nullptr, nullptr});
      ThreadPool::Shared().ParallelFor(
          frontier.size(), parallelism, [&](size_t i) {
            Node* node = frontier[i];
            if (node->query_ids.size() < kSequentialBuildCutoff) {
              BuildRecursive(node, queries, height, d, tree.query_dim_);
              return;  // subtree finished; nothing joins the frontier
            }
            if (SplitNode(node, queries, d, tree.query_dim_)) {
              children[i] = {node->left.get(), node->right.get()};
            }
          });
      std::vector<Node*> next;
      next.reserve(2 * frontier.size());
      for (const auto& [left, right] : children) {
        if (left != nullptr) {
          next.push_back(left);
          next.push_back(right);
        }
      }
      frontier = std::move(next);
      ++depth;
    }
  }
  tree.AssignLeafIds();
  return tree;
}

bool QuerySpaceKdTree::SplitNode(Node* node,
                                 const std::vector<QueryInstance>& queries,
                                 size_t depth, size_t dim) {
  if (node->query_ids.size() < 2 || dim == 0) return false;
  const size_t split_dim = depth % dim;  // Alg. 2: cycle dimensions

  // Median of the node's queries along split_dim (Alg. 2 line 3). The
  // median *value* is the mid-th order statistic — deterministic no matter
  // how nth_element permutes the scratch vector internally.
  std::vector<double> vals;
  vals.reserve(node->query_ids.size());
  for (size_t id : node->query_ids) vals.push_back(queries[id].q[split_dim]);
  const size_t mid = vals.size() / 2;
  std::nth_element(vals.begin(), vals.begin() + mid, vals.end());
  const double split_val = vals[mid];

  std::vector<size_t> left_ids, right_ids;
  for (size_t id : node->query_ids) {
    if (queries[id].q[split_dim] <= split_val) {
      left_ids.push_back(id);
    } else {
      right_ids.push_back(id);
    }
  }
  // Degenerate split (many duplicate coordinates): keep the node a leaf.
  if (left_ids.empty() || right_ids.empty()) return false;

  node->split_dim = static_cast<int>(split_dim);
  node->split_val = split_val;
  node->left = std::make_unique<Node>();
  node->right = std::make_unique<Node>();
  node->left->parent = node;
  node->right->parent = node;
  node->left->query_ids = std::move(left_ids);
  node->right->query_ids = std::move(right_ids);
  node->query_ids.clear();
  node->query_ids.shrink_to_fit();
  return true;
}

void QuerySpaceKdTree::BuildRecursive(Node* node,
                                      const std::vector<QueryInstance>& queries,
                                      size_t height, size_t depth, size_t dim) {
  if (depth >= height) return;
  if (!SplitNode(node, queries, depth, dim)) return;
  BuildRecursive(node->left.get(), queries, height, depth + 1, dim);
  BuildRecursive(node->right.get(), queries, height, depth + 1, dim);
}

const QuerySpaceKdTree::Node* QuerySpaceKdTree::Route(
    const QueryInstance& q) const {
  const Node* node = root_.get();
  while (node != nullptr && !node->is_leaf()) {
    node = (q.q[node->split_dim] <= node->split_val) ? node->left.get()
                                                     : node->right.get();
  }
  return node;
}

QuerySpaceKdTree::Node* QuerySpaceKdTree::RouteMutable(const QueryInstance& q) {
  return const_cast<Node*>(
      static_cast<const QuerySpaceKdTree*>(this)->Route(q));
}

namespace {
template <typename NodeT>
void CollectLeaves(NodeT* node, std::vector<NodeT*>* out) {
  if (node == nullptr) return;
  if (node->is_leaf()) {
    out->push_back(node);
    return;
  }
  CollectLeaves<NodeT>(node->left.get(), out);
  CollectLeaves<NodeT>(node->right.get(), out);
}
}  // namespace

std::vector<QuerySpaceKdTree::Node*> QuerySpaceKdTree::Leaves() {
  std::vector<Node*> out;
  CollectLeaves(root_.get(), &out);
  return out;
}

std::vector<const QuerySpaceKdTree::Node*> QuerySpaceKdTree::Leaves() const {
  std::vector<const Node*> out;
  CollectLeaves<const Node>(root_.get(), &out);
  return out;
}

size_t QuerySpaceKdTree::NumLeaves() const { return Leaves().size(); }

Status QuerySpaceKdTree::MergeChildren(Node* parent) {
  if (parent == nullptr || parent->is_leaf()) {
    return Status::InvalidArgument("MergeChildren requires an internal node");
  }
  if (!parent->left->is_leaf() || !parent->right->is_leaf()) {
    return Status::FailedPrecondition("children must both be leaves");
  }
  parent->query_ids = std::move(parent->left->query_ids);
  parent->query_ids.insert(parent->query_ids.end(),
                           parent->right->query_ids.begin(),
                           parent->right->query_ids.end());
  parent->left.reset();
  parent->right.reset();
  parent->split_dim = -1;
  parent->marked = false;
  parent->aqc_valid = false;  // the merged query set needs a fresh AQC
  return Status::OK();
}

void QuerySpaceKdTree::AssignLeafIds() {
  int next = 0;
  for (Node* leaf : Leaves()) leaf->leaf_id = next++;
}

std::vector<double> QuerySpaceKdTree::EncodeRouting() const {
  std::vector<double> out;
  // Pre-order encoding: internal -> (split_dim, split_val),
  // leaf -> (-1, leaf_id).
  std::function<void(const Node*)> visit = [&](const Node* node) {
    if (node->is_leaf()) {
      out.push_back(-1.0);
      out.push_back(static_cast<double>(node->leaf_id));
      return;
    }
    out.push_back(static_cast<double>(node->split_dim));
    out.push_back(node->split_val);
    visit(node->left.get());
    visit(node->right.get());
  };
  if (root_) visit(root_.get());
  return out;
}

Result<QuerySpaceKdTree> QuerySpaceKdTree::DecodeRouting(
    const std::vector<double>& encoded, size_t query_dim, size_t num_leaves) {
  // A tree of L leaves has 2L - 1 nodes of two doubles each. Checked
  // first, so the leaf-id table below is no larger than the encoding.
  const size_t nodes = encoded.size() / 2;
  if (encoded.size() % 2 != 0 || nodes % 2 != 1 ||
      (nodes + 1) / 2 != num_leaves) {
    return Status::InvalidArgument("bad routing encoding length");
  }
  const Status malformed =
      Status::InvalidArgument("malformed routing encoding");
  QuerySpaceKdTree tree;
  tree.query_dim_ = query_dim;
  std::vector<bool> seen(num_leaves, false);
  // Pre-order with an explicit stack of the child slots still to fill, so
  // no untrusted depth reaches the call stack.
  struct Slot {
    std::unique_ptr<Node>* dst;
    Node* parent;
    size_t depth;
  };
  std::vector<Slot> todo = {{&tree.root_, nullptr, 0}};
  size_t pos = 0;
  while (!todo.empty()) {
    const Slot slot = todo.back();
    todo.pop_back();
    if (pos == encoded.size()) return malformed;
    const double tag = encoded[pos];
    const double val = encoded[pos + 1];
    pos += 2;
    auto node = std::make_unique<Node>();
    node->parent = slot.parent;
    // Untrusted bytes: each tag and leaf id is checked before its cast,
    // a split dimension must index the query vector Route reads, and
    // every model slot is named by exactly one leaf.
    if (tag == -1.0) {
      if (!IsIntBelow(val, static_cast<double>(num_leaves)) ||
          seen[static_cast<size_t>(val)]) {
        return malformed;
      }
      seen[static_cast<size_t>(val)] = true;
      node->leaf_id = static_cast<int>(val);
    } else {
      if (!IsIntBelow(tag, static_cast<double>(query_dim)) ||
          !std::isfinite(val) || slot.depth >= kMaxDepth) {
        return malformed;
      }
      node->split_dim = static_cast<int>(tag);
      node->split_val = val;
      // Right first, so the left subtree is decoded next.
      todo.push_back({&node->right, node.get(), slot.depth + 1});
      todo.push_back({&node->left, node.get(), slot.depth + 1});
    }
    *slot.dst = std::move(node);
  }
  if (pos != encoded.size()) return malformed;
  return tree;
}

}  // namespace neurosketch
