// Reference (query, stream) pairs and the correctness check of a run.
//
// The reference is computed from the generated inputs alone: every batch a
// stream closes (the summarizer and MbrBatcher replayed over its samples)
// and every query posed, each with its lifetime. A pair (q, s) is
//  - allowed when some batch of s intersects q's ball (Mbr::intersects_ball)
//    and the batch and the query were alive at the same time, give or take
//    `margin_s` of scheduling slack;
//  - required when such a batch overlapped the query by at least one NPER
//    period plus the margin, before the run's input horizon.
// A pair in neither set was never possible; a delivered one is an error. A
// required pair that was not delivered is a miss. The detection start of a
// pair is the later of the query's time and the birth of the first
// intersecting batch still alive when the query was posed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/query.hpp"
#include "dsp/mbr.hpp"

namespace sdsi::bench {

struct RefBatch {
  StreamId stream = 0;
  double born_s = 0.0;
  double expires_s = 0.0;
  dsp::Mbr mbr;
};

struct RefQuery {
  core::QueryId id = 0;
  double posed_s = 0.0;
  double expires_s = 0.0;
  dsp::FeatureVector features;
  double radius = 0.0;
};

struct ReferenceOptions {
  double margin_s = 0.0;
  double nper_s = 0.0;
  /// Batches and queries count as alive no later than this.
  double horizon_s = 0.0;
  /// Upper bound of any batch lifetime (bounds the batch scan).
  double max_batch_life_s = 0.0;
};

struct ReferencePair {
  double start_s = 0.0;
  bool required = false;
};

using PairKey = std::pair<core::QueryId, StreamId>;
using ReferenceSet = std::map<PairKey, ReferencePair>;

/// A pair packed into one integer key (query ids and stream ids both fit
/// in 32 bits here).
inline std::uint64_t pair_code(core::QueryId query, StreamId stream) {
  return query << 32 | stream;
}

/// The reference entry of (query, stream), or nullopt when the pair is not
/// allowed. `batches` holds one stream's batches in birth order.
std::optional<ReferencePair> reference_pair(const RefQuery& query,
                                            std::span<const RefBatch> batches,
                                            const ReferenceOptions& options);

/// Every allowed pair of the workload.
ReferenceSet reference_pairs(
    std::span<const RefQuery> queries,
    const std::map<StreamId, std::vector<RefBatch>>& batches,
    const ReferenceOptions& options);

struct CheckResult {
  std::vector<PairKey> missing;  // required, not delivered
  std::vector<PairKey> extra;    // delivered, not allowed
  std::uint64_t required = 0;
  std::uint64_t delivered_required = 0;

  double recall() const {
    return required == 0 ? 0.0
                         : static_cast<double>(delivered_required) /
                               static_cast<double>(required);
  }
  bool ok() const { return missing.empty() && extra.empty(); }
};

CheckResult check_pairs(const ReferenceSet& reference,
                        const std::set<PairKey>& delivered);

}  // namespace sdsi::bench
