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
#pragma once

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
  explicit SummaryMapper(common::IdSpace space);

  const common::IdSpace& space() const noexcept { return space_; }

  /// Eq. 6 for a single routing coordinate. Values outside [-1, 1]
  /// (possible only through inflated MBR corners) are clamped first.
  Key key_for_coordinate(double x) const noexcept;

  /// Key of a feature vector = Eq. 6 of its routing coordinate.
  Key key_for(const dsp::FeatureVector& features) const noexcept override {
    return key_for_coordinate(features.routing_coordinate());
  }

  /// Key range [h(lo), h(hi)] an interval of routing coordinates covers.
  /// lo <= hi; because Eq. 6 is monotone the image never wraps the ring.
  std::pair<Key, Key> key_range(double lo, double hi) const noexcept;

  /// Key range of a similarity ball (Eq. 8): [h(x1 - r), h(x1 + r)].
  std::pair<Key, Key> query_range(const dsp::FeatureVector& features,
                                  double radius) const noexcept override {
    const double x = features.routing_coordinate();
    return key_range(x - radius, x + radius);
  }

  /// Key range of an MBR: the image of [low_1re, high_1re].
  std::pair<Key, Key> mbr_range(const dsp::Mbr& mbr) const noexcept override {
    return key_range(mbr.routing_low(), mbr.routing_high());
  }

 private:
  common::IdSpace space_;
};

/// The location-service hash h2: stream id -> key of `space` (SHA-1 based,
/// unrelated to content so the directory load spreads independently of
/// data).
Key key_for_stream(const common::IdSpace& space, StreamId stream) noexcept;

}  // namespace sdsi::core
