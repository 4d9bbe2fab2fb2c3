// LSH content-to-key map: signed random projections (SRP-LSH) route similar
// streams to the same ring arc (Bahmani, Goel, Shinde — "Efficient
// Distributed Locality Sensitive Hashing", PAPERS.md).
//
// `planes` seeded unit hyperplanes split the feature space into 2^planes
// sign-signature buckets; each bucket owns one equal arc of the identifier
// circle. Keys depend only on (seed, dims, id-space bits) — never on ring
// membership — so churn moves arcs between nodes without ever re-keying
// content (the bucket-stability property tests/test_lsh_keymap.cpp pins).
//
// Ranges: the primary probe is the center signature's bucket. Queries
// multi-probe — every plane whose |margin| <= radius could flip somewhere in
// the similarity ball, so the lowest-margin single-bit neighbors are probed
// too, capped at max_probes. Boxes probe every plane their projection
// interval straddles. The cap deliberately trades recall for routed
// messages; the recall oracle and bench_strategies quantify the trade.
//
// A query walks the whole arc of each bucket it probes, so a box is stored
// on one key inside each of its probed arcs (the ContentKeyMap placement
// rule): its routing midpoint scaled into the arc, which spreads one
// bucket's batches over the arc's nodes.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/strategy.hpp"

namespace sdsi::core {

/// LshKeyMap geometry; the lsh strategy runs the defaults.
struct LshOptions {
  /// Signature bits (hyperplanes); the ring splits into 2^planes bucket
  /// arcs. Must not exceed the id-space bit width.
  std::size_t planes = 6;
  /// Multi-probe cap: primary bucket + at most (max_probes - 1) single-bit
  /// flips of low-margin planes.
  std::size_t max_probes = 8;
  std::uint64_t seed = 0x15b45eedULL;
};

class LshKeyMap final : public ContentKeyMap {
 public:
  /// `dims` is the flattened real dimensionality of the feature space
  /// (2 * num_coefficients for complex synopses).
  LshKeyMap(const LshOptions& options, std::size_t dims,
            common::IdSpace space);

  Key key_for(const dsp::FeatureVector& features) const override;
  std::pair<Key, Key> mbr_range(const dsp::Mbr& mbr) const override;
  std::pair<Key, Key> query_range(const dsp::FeatureVector& features,
                                  double radius) const override;
  void mbr_ranges(const dsp::Mbr& mbr,
                  std::vector<std::pair<Key, Key>>& out) const override;
  void query_ranges(const dsp::FeatureVector& features, double radius,
                    std::vector<std::pair<Key, Key>>& out) const override;

  /// The b-bit sign signature of a point (bit p = sign of plane p's
  /// projection).
  std::uint64_t signature_of(const dsp::FeatureVector& features) const;
  /// Signed distance of a point to plane `plane` (unit normals, so the
  /// margin is a true distance).
  double margin_of(const dsp::FeatureVector& features,
                   std::size_t plane) const;
  /// The ring arc owned by one bucket.
  std::pair<Key, Key> bucket_arc(std::uint64_t bucket) const;

 private:
  double project(std::span<const dsp::Complex> coeffs, std::size_t p) const;
  std::uint64_t signature(const dsp::FeatureVector& features,
                          std::vector<double>& margins) const;
  std::uint64_t box_signature(const dsp::Mbr& mbr,
                              std::vector<bool>& straddles) const;
  Key arc_midpoint(std::uint64_t bucket) const;
  /// The one-key range a box is stored on inside `bucket`'s arc.
  std::pair<Key, Key> stub(std::uint64_t bucket, const dsp::Mbr& mbr) const;

  LshOptions options_;
  std::size_t dims_;
  common::IdSpace space_;
  std::vector<double> planes_;  // planes x dims, row-major unit normals
};

}  // namespace sdsi::core
