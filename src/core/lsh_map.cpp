#include "core/lsh_map.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace sdsi::core {

LshKeyMap::LshKeyMap(const LshOptions& options, std::size_t dims,
                     common::IdSpace space)
    : options_(options), dims_(dims), space_(space) {
  SDSI_CHECK(options_.planes >= 1);
  SDSI_CHECK(options_.planes <= space.bits());
  SDSI_CHECK(options_.planes < 64u);
  SDSI_CHECK(options_.max_probes >= 1);
  SDSI_CHECK(dims_ >= 1);
  common::Pcg32 rng(options_.seed, 0x9a1e5u);
  planes_.resize(options_.planes * dims_);
  for (std::size_t p = 0; p < options_.planes; ++p) {
    double norm_sq = 0.0;
    for (std::size_t d = 0; d < dims_; ++d) {
      const double g = rng.normal();
      planes_[p * dims_ + d] = g;
      norm_sq += g * g;
    }
    const double inv = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 1.0;
    for (std::size_t d = 0; d < dims_; ++d) {
      planes_[p * dims_ + d] *= inv;  // unit normal: margin == distance
    }
  }
}

double LshKeyMap::project(std::span<const dsp::Complex> coeffs,
                          std::size_t p) const {
  double dot = 0.0;
  for (std::size_t c = 0; c < coeffs.size(); ++c) {
    const std::size_t d = 2 * c;
    if (d < dims_) {
      dot += planes_[p * dims_ + d] * coeffs[c].real();
    }
    if (d + 1 < dims_) {
      dot += planes_[p * dims_ + d + 1] * coeffs[c].imag();
    }
  }
  return dot;
}

std::uint64_t LshKeyMap::signature(const dsp::FeatureVector& features,
                                   std::vector<double>& margins) const {
  margins.assign(options_.planes, 0.0);
  std::uint64_t sig = 0;
  for (std::size_t p = 0; p < options_.planes; ++p) {
    margins[p] = project(features.coefficients(), p);
    if (margins[p] >= 0.0) {
      sig |= 1ull << p;
    }
  }
  return sig;
}

std::uint64_t LshKeyMap::box_signature(const dsp::Mbr& mbr,
                                       std::vector<bool>& straddles) const {
  straddles.assign(options_.planes, false);
  const std::span<const double> low = mbr.low();
  const std::span<const double> high = mbr.high();
  std::uint64_t sig = 0;
  for (std::size_t p = 0; p < options_.planes; ++p) {
    // Interval arithmetic: min/max of the projection over the box corners.
    double lo = 0.0;
    double hi = 0.0;
    const std::size_t limit = std::min(dims_, low.size());
    for (std::size_t d = 0; d < limit; ++d) {
      const double w = planes_[p * dims_ + d];
      if (w >= 0.0) {
        lo += w * low[d];
        hi += w * high[d];
      } else {
        lo += w * high[d];
        hi += w * low[d];
      }
    }
    if (lo + hi >= 0.0) {
      sig |= 1ull << p;
    }
    straddles[p] = lo < 0.0 && hi >= 0.0;
  }
  return sig;
}

std::pair<Key, Key> LshKeyMap::bucket_arc(std::uint64_t bucket) const {
  const unsigned shift =
      space_.bits() - static_cast<unsigned>(options_.planes);
  const Key lo = space_.wrap(bucket << shift);
  const Key hi = space_.wrap(((bucket + 1) << shift) - 1);
  return {lo, hi};
}

Key LshKeyMap::arc_midpoint(std::uint64_t bucket) const {
  const auto [lo, hi] = bucket_arc(bucket);
  return space_.midpoint(lo, hi);
}

std::pair<Key, Key> LshKeyMap::stub(std::uint64_t bucket,
                                    const dsp::Mbr& mbr) const {
  const auto [lo, hi] = bucket_arc(bucket);
  const double x = std::clamp(
      (mbr.routing_low() + mbr.routing_high()) / 2.0, -1.0, 1.0);
  const double offset = (x + 1.0) / 2.0 * static_cast<double>(hi - lo);
  const Key key = lo + static_cast<Key>(offset);
  return {key, key};
}

Key LshKeyMap::key_for(const dsp::FeatureVector& features) const {
  std::vector<double> margins;
  return arc_midpoint(signature(features, margins));
}

std::pair<Key, Key> LshKeyMap::mbr_range(const dsp::Mbr& mbr) const {
  std::vector<bool> straddles;
  return stub(box_signature(mbr, straddles), mbr);
}

std::pair<Key, Key> LshKeyMap::query_range(const dsp::FeatureVector& features,
                                           double radius) const {
  (void)radius;  // the primary probe is the center's bucket
  std::vector<double> margins;
  return bucket_arc(signature(features, margins));
}

void LshKeyMap::mbr_ranges(const dsp::Mbr& mbr,
                           std::vector<std::pair<Key, Key>>& out) const {
  out.clear();
  std::vector<bool> straddles;
  const std::uint64_t primary = box_signature(mbr, straddles);
  out.push_back(stub(primary, mbr));
  // The box genuinely spans every sign combination of its straddled planes,
  // so full coverage enumerates all subsets of the straddle mask (a corner
  // may differ from the center signature in several planes at once). Walk
  // subsets in increasing popcount — nearer buckets first — so the
  // max_probes cap cuts the least likely combinations; index order breaks
  // ties deterministically.
  std::vector<std::size_t> crossed;
  for (std::size_t p = 0; p < options_.planes; ++p) {
    if (straddles[p]) {
      crossed.push_back(p);
    }
  }
  const std::size_t subsets = std::size_t{1} << crossed.size();
  for (std::size_t flips = 1;
       flips <= crossed.size() && out.size() < options_.max_probes; ++flips) {
    for (std::size_t mask = 1;
         mask < subsets && out.size() < options_.max_probes; ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) != flips) {
        continue;
      }
      std::uint64_t sig = primary;
      for (std::size_t i = 0; i < crossed.size(); ++i) {
        if ((mask >> i) & 1u) {
          sig ^= 1ull << crossed[i];
        }
      }
      out.push_back(stub(sig, mbr));
    }
  }
}

void LshKeyMap::query_ranges(const dsp::FeatureVector& features, double radius,
                             std::vector<std::pair<Key, Key>>& out) const {
  out.clear();
  std::vector<double> margins;
  const std::uint64_t primary = signature(features, margins);
  out.push_back(bucket_arc(primary));
  // Planes the similarity ball crosses, most ambiguous (smallest margin)
  // first; ties break on plane index for determinism.
  std::vector<std::size_t> crossed;
  for (std::size_t p = 0; p < options_.planes; ++p) {
    if (std::abs(margins[p]) <= radius) {
      crossed.push_back(p);
    }
  }
  std::sort(crossed.begin(), crossed.end(), [&](std::size_t a, std::size_t b) {
    const double ma = std::abs(margins[a]);
    const double mb = std::abs(margins[b]);
    return ma != mb ? ma < mb : a < b;
  });
  for (const std::size_t p : crossed) {
    if (out.size() >= options_.max_probes) {
      break;
    }
    out.push_back(bucket_arc(primary ^ (1ull << p)));
  }
}

std::uint64_t LshKeyMap::signature_of(const dsp::FeatureVector& features) const {
  std::vector<double> margins;
  return signature(features, margins);
}

double LshKeyMap::margin_of(const dsp::FeatureVector& features,
                            std::size_t plane) const {
  SDSI_CHECK(plane < options_.planes);
  std::vector<double> margins;
  (void)signature(features, margins);
  return margins[plane];
}

}  // namespace sdsi::core
