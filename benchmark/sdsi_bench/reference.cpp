#include "reference.hpp"

#include <algorithm>
#include <limits>

namespace sdsi::bench {

std::optional<ReferencePair> reference_pair(const RefQuery& query,
                                            std::span<const RefBatch> batches,
                                            const ReferenceOptions& options) {
  const double query_end = std::min(query.expires_s, options.horizon_s);
  // Batches born before this cannot be alive when the query is posed, and
  // batches born after query_end + margin never meet it.
  const double earliest =
      query.posed_s - options.margin_s - options.max_batch_life_s;
  auto it = std::lower_bound(
      batches.begin(), batches.end(), earliest,
      [](const RefBatch& batch, double t) { return batch.born_s < t; });
  bool allowed = false;
  double best_overlap = -std::numeric_limits<double>::infinity();
  std::optional<double> start;
  for (; it != batches.end() && it->born_s <= query_end + options.margin_s;
       ++it) {
    if (!it->mbr.intersects_ball(query.features, query.radius)) {
      continue;
    }
    const double overlap = std::min(it->expires_s, query_end) -
                           std::max(it->born_s, query.posed_s);
    if (overlap <= -options.margin_s) {
      continue;
    }
    allowed = true;
    best_overlap = std::max(best_overlap, overlap);
    if (!start.has_value() && it->expires_s > query.posed_s) {
      start = std::max(query.posed_s, it->born_s);
    }
  }
  if (!allowed) {
    return std::nullopt;
  }
  return ReferencePair{start.value_or(query.posed_s),
                       best_overlap >= options.nper_s + options.margin_s};
}

ReferenceSet reference_pairs(
    std::span<const RefQuery> queries,
    const std::map<StreamId, std::vector<RefBatch>>& batches,
    const ReferenceOptions& options) {
  ReferenceSet reference;
  for (const RefQuery& query : queries) {
    for (const auto& [stream, stream_batches] : batches) {
      if (const auto pair = reference_pair(query, stream_batches, options)) {
        reference.emplace(PairKey{query.id, stream}, *pair);
      }
    }
  }
  return reference;
}

CheckResult check_pairs(const ReferenceSet& reference,
                        const std::set<PairKey>& delivered) {
  CheckResult result;
  for (const auto& [key, pair] : reference) {
    if (!pair.required) {
      continue;
    }
    ++result.required;
    if (delivered.contains(key)) {
      ++result.delivered_required;
    } else {
      result.missing.push_back(key);
    }
  }
  for (const PairKey& key : delivered) {
    if (!reference.contains(key)) {
      result.extra.push_back(key);
    }
  }
  return result;
}

}  // namespace sdsi::bench
