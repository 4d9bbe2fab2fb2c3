#include "core/mapper.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"
#include "common/sha1.hpp"

namespace sdsi::core {

SummaryMapper::SummaryMapper(common::IdSpace space) : space_(space) {
  // 2^m must be exactly representable in double for Eq. 6 to be monotone.
  SDSI_CHECK(space.bits() <= 52);
}

Key SummaryMapper::key_for_coordinate(double x) const noexcept {
  const double clamped = std::clamp(x, -1.0, 1.0);
  const double scaled =
      (clamped + 1.0) / 2.0 * static_cast<double>(space_.size());
  const auto key = static_cast<Key>(scaled);
  return std::min<Key>(key, space_.size() - 1);
}

std::pair<Key, Key> SummaryMapper::key_range(double lo, double hi) const noexcept {
  SDSI_DCHECK(lo <= hi);
  return {key_for_coordinate(lo), key_for_coordinate(hi)};
}

Key key_for_stream(const common::IdSpace& space, StreamId stream) noexcept {
  return space.wrap(common::sha1_prefix64("stream:" + std::to_string(stream)));
}

}  // namespace sdsi::core
