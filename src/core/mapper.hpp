// Content-to-key mapping (paper Sec IV-B, Eq. 6) and the stream-id location
// hash h2 (Sec IV-D).
//
// Feature vectors live on the unit hyper-sphere, so the routing coordinate
// x = Re(X_first) is guaranteed to be in [-1, 1]. Eq. 6 scales that interval
// onto the identifier circle:
//
//   h(x) = floor( (x + 1) / 2 * 2^m ),   clamped to 2^m - 1
//
// so -1 -> 0, 0 -> 2^(m-1), +1 -> 2^m - 1, and the paper's worked example
// holds: x = 0.40 with m = 5 gives key 22.
//
// Placement departs from Sec IV-B and Fig 4, which store an MBR on every
// node of its Eq. 6 range. A batch with routing interval [lo, hi] is stored
// over the stub [min(lo + E, hi), hi], and a query ball is routed over
// [x1 - r, x1 + r + E]: batches outnumber queries by orders of magnitude,
// so the slack E rides on the rare side. Whenever [lo, hi] meets
// [x1 - r, x1 + r], min(lo + E, hi) <= x1 + r + E and hi >= x1 - r still
// hold, so the stub meets the widened query and no match is dismissed
// (EXPERIMENTS.md, known deviation 6).
#pragma once

#include <algorithm>
#include <utility>

#include "common/ring_math.hpp"
#include "common/types.hpp"
#include "core/strategy.hpp"
#include "dsp/mbr.hpp"

namespace sdsi::core {

/// The key map of the dft and ecm strategies (any embedding with
/// coordinates in [-1, 1] maps monotonically onto the ring).
class SummaryMapper final : public ContentKeyMap {
 public:
  /// The placement slack E in routing-coordinate units (1.5 % of the
  /// circle). A batch narrower than E lands on one node. EXPERIMENTS.md's
  /// slack sweep (known deviation 6) shows why this value.
  static constexpr double kSlack = 0.03;

  explicit SummaryMapper(common::IdSpace space);

  const common::IdSpace& space() const noexcept { return space_; }

  /// Eq. 6 for a single routing coordinate. Values outside [-1, 1]
  /// (possible only through inflated MBR corners) are clamped first.
  Key key_for_coordinate(double x) const noexcept;

  /// Key of a feature vector = Eq. 6 of its routing coordinate.
  Key key_for(const dsp::FeatureVector& features) const noexcept override {
    return key_for_coordinate(features.routing_coordinate());
  }

  /// Key range [h(lo), h(hi)] an interval of routing coordinates covers:
  /// the paper's Eq. 6 image. lo <= hi; because Eq. 6 is monotone the image
  /// never wraps the ring.
  std::pair<Key, Key> key_range(double lo, double hi) const noexcept;

  /// Routed range of a similarity ball (Eq. 8) widened by the slack on the
  /// high side: [h(x1 - r), h(x1 + r + E)]. The sequential walk starts at
  /// the low end, so the query reaches every node of the ball's own range
  /// after the same hop count as without the slack.
  std::pair<Key, Key> query_range(const dsp::FeatureVector& features,
                                  double radius) const noexcept override {
    const double x = features.routing_coordinate();
    return key_range(x - radius, x + radius + kSlack);
  }

  /// Midpoint of the ball's own Eq. 6 range [h(x1 - r), h(x1 + r)].
  Key query_middle(const dsp::FeatureVector& features,
                   double radius) const noexcept override {
    const double x = features.routing_coordinate();
    const auto [lo, hi] = key_range(x - radius, x + radius);
    return space_.midpoint(lo, hi);
  }

  /// Routed range of an MBR: the image of its stub
  /// [min(low_1re + E, high_1re), high_1re].
  std::pair<Key, Key> mbr_range(const dsp::Mbr& mbr) const noexcept override {
    const double hi = mbr.routing_high();
    return key_range(std::min(mbr.routing_low() + kSlack, hi), hi);
  }

 private:
  common::IdSpace space_;
};

/// The location-service hash h2: stream id -> key of `space` (SHA-1 based,
/// unrelated to content so the directory load spreads independently of
/// data).
Key key_for_stream(const common::IdSpace& space, StreamId stream) noexcept;

}  // namespace sdsi::core
