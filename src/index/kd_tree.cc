#include "index/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace psens {
namespace {

/// Relative slack applied to squared-distance pruning bounds: pruning a
/// subtree is only allowed when it is out of range by more than a few ulps,
/// so rounding in the bound arithmetic can never drop a boundary point the
/// exact leaf filter would keep.
inline bool DefinitelyFarther(double min_d2, double r2) {
  return min_d2 > r2 * (1.0 + 1e-12) + 1e-300;
}

}  // namespace

KdTreeIndex::KdTreeIndex(const std::vector<Point>& points) {
  order_.resize(points.size());
  std::iota(order_.begin(), order_.end(), 0);
  if (!order_.empty()) {
    nodes_.reserve(2 * order_.size() / kLeafSize + 2);
    Build(points, 0, static_cast<int>(order_.size()));
  }
  // Duplicate coordinates into order_ layout so leaf scans are contiguous.
  xs_.resize(points.size());
  ys_.resize(points.size());
  for (size_t k = 0; k < order_.size(); ++k) {
    xs_[k] = points[static_cast<size_t>(order_[k])].x;
    ys_[k] = points[static_cast<size_t>(order_[k])].y;
  }
}

int KdTreeIndex::Build(const std::vector<Point>& points, int begin, int end) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  Node node;
  node.begin = begin;
  node.end = end;
  node.bbox.x_min = node.bbox.x_max = points[order_[begin]].x;
  node.bbox.y_min = node.bbox.y_max = points[order_[begin]].y;
  for (int k = begin; k < end; ++k) {
    const Point& p = points[order_[k]];
    node.bbox.x_min = std::min(node.bbox.x_min, p.x);
    node.bbox.x_max = std::max(node.bbox.x_max, p.x);
    node.bbox.y_min = std::min(node.bbox.y_min, p.y);
    node.bbox.y_max = std::max(node.bbox.y_max, p.y);
  }
  const bool degenerate = node.bbox.Width() == 0.0 && node.bbox.Height() == 0.0;
  if (end - begin <= kLeafSize || degenerate) {
    // Leaf: ascending order lets range scans emit sorted runs.
    std::sort(order_.begin() + begin, order_.begin() + end);
    nodes_[node_id] = node;
    return node_id;
  }
  const bool split_x = node.bbox.Width() >= node.bbox.Height();
  const int mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end, [&](int a, int b) {
                     const double ka = split_x ? points[a].x : points[a].y;
                     const double kb = split_x ? points[b].x : points[b].y;
                     if (ka != kb) return ka < kb;
                     return a < b;  // deterministic total order on duplicates
                   });
  node.left = Build(points, begin, mid);
  node.right = Build(points, mid, end);
  nodes_[node_id] = node;
  return node_id;
}

double KdTreeIndex::BoxMinDist2(const Rect& b, const Point& p) {
  const double dx = std::max({b.x_min - p.x, p.x - b.x_max, 0.0});
  const double dy = std::max({b.y_min - p.y, p.y - b.y_max, 0.0});
  return dx * dx + dy * dy;
}

void KdTreeIndex::RangeRecurse(int node_id, const Point& center, double radius,
                               double r2, std::vector<int>* out) const {
  const Node& node = nodes_[node_id];
  if (DefinitelyFarther(BoxMinDist2(node.bbox, center), r2)) return;
  if (node.left < 0) {
    // Two-phase filter (RangeFilter in grid_geometry.h, including its
    // overflow cap): squared distance away from the boundary, the exact
    // brute-force predicate within it.
    const double r2_lo =
        std::min(r2 * (1.0 - 1e-12), std::numeric_limits<double>::max());
    const double r2_hi = r2 * (1.0 + 1e-12);
    for (int k = node.begin; k < node.end; ++k) {
      const double dx = xs_[k] - center.x;
      const double dy = ys_[k] - center.y;
      const double d2 = dx * dx + dy * dy;
      if (d2 > r2_hi) continue;
      if (d2 <= r2_lo || Distance(Point{xs_[k], ys_[k]}, center) <= radius) {
        out->push_back(order_[k]);
      }
    }
    return;
  }
  RangeRecurse(node.left, center, radius, r2, out);
  RangeRecurse(node.right, center, radius, r2, out);
}

void KdTreeIndex::RangeQuery(const Point& center, double radius,
                             std::vector<int>* out) const {
  out->clear();
  if (nodes_.empty() || radius < 0.0) return;
  RangeRecurse(0, center, radius, radius * radius, out);
  std::sort(out->begin(), out->end());
}

void KdTreeIndex::RectRecurse(int node_id, const Rect& rect,
                              std::vector<int>* out) const {
  const Node& node = nodes_[node_id];
  // Inclusive overlap test (Rect::Overlaps requires positive intersection
  // area, which would wrongly prune degenerate query rects and shared
  // edges that Contains accepts).
  if (node.bbox.x_min > rect.x_max || node.bbox.x_max < rect.x_min ||
      node.bbox.y_min > rect.y_max || node.bbox.y_max < rect.y_min) {
    return;
  }
  if (node.left < 0) {
    for (int k = node.begin; k < node.end; ++k) {
      if (rect.Contains(Point{xs_[k], ys_[k]})) out->push_back(order_[k]);
    }
    return;
  }
  RectRecurse(node.left, rect, out);
  RectRecurse(node.right, rect, out);
}

void KdTreeIndex::RectQuery(const Rect& rect, std::vector<int>* out) const {
  out->clear();
  if (nodes_.empty()) return;
  RectRecurse(0, rect, out);
  std::sort(out->begin(), out->end());
}

void KdTreeIndex::NearestRecurse(int node_id, const Point& p, int* best,
                                 double* best_d2) const {
  const Node& node = nodes_[node_id];
  // Prune only on strictly greater: an equal-distance subtree may hold a
  // lower index that wins the tie.
  if (BoxMinDist2(node.bbox, p) > *best_d2) return;
  if (node.left < 0) {
    for (int k = node.begin; k < node.end; ++k) {
      const int i = order_[k];
      const double dx = xs_[k] - p.x;
      const double dy = ys_[k] - p.y;
      const double d2 = dx * dx + dy * dy;
      if (d2 < *best_d2 || (d2 == *best_d2 && i < *best)) {
        *best_d2 = d2;
        *best = i;
      }
    }
    return;
  }
  // Visit the closer child first so the bound tightens early.
  const double left_d2 = BoxMinDist2(nodes_[node.left].bbox, p);
  const double right_d2 = BoxMinDist2(nodes_[node.right].bbox, p);
  if (left_d2 <= right_d2) {
    NearestRecurse(node.left, p, best, best_d2);
    NearestRecurse(node.right, p, best, best_d2);
  } else {
    NearestRecurse(node.right, p, best, best_d2);
    NearestRecurse(node.left, p, best, best_d2);
  }
}

int KdTreeIndex::Nearest(const Point& p) const {
  if (nodes_.empty()) return -1;
  int best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  NearestRecurse(0, p, &best, &best_d2);
  return best;
}

}  // namespace psens
