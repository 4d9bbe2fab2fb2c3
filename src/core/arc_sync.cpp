#include "core/arc_sync.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace sdsi::core {

bool range_meets_arc(const common::IdSpace& space, Key lo, Key hi, Key a,
                     Key b) {
  return space.in_half_open(lo, a, b) || space.in_half_open(hi, a, b) ||
         space.in_closed(b, lo, hi);
}

ReplicaPutPayload arc_entries(IndexStore& store, const ContentKeyMap& keys,
                              const common::IdSpace& space, Key lo, Key hi,
                              sim::SimTime now,
                              const AntiEntropyDigestPayload* listed) {
  store.expire(now);
  // The digest's ids as sorted sets, binary-searched.
  std::vector<std::pair<StreamId, std::uint64_t>> listed_mbrs;
  std::vector<QueryId> listed_queries;
  if (listed != nullptr) {
    listed_mbrs.reserve(listed->mbr_keys.size());
    for (const MbrBatchId& id : listed->mbr_keys) {
      listed_mbrs.emplace_back(id.stream, id.batch_seq);
    }
    std::sort(listed_mbrs.begin(), listed_mbrs.end());
    listed_queries = listed->query_ids;
    std::sort(listed_queries.begin(), listed_queries.end());
  }

  ReplicaPutPayload put;
  for (IndexStore::StoredMbr& entry : store.mbrs()) {
    const auto [mlo, mhi] = keys.mbr_range(entry.mbr);
    if (range_meets_arc(space, mlo, mhi, lo, hi) &&
        !std::binary_search(listed_mbrs.begin(), listed_mbrs.end(),
                            std::make_pair(entry.stream, entry.batch_seq))) {
      put.mbrs.push_back(ReplicaMbrEntry{entry.stream, entry.source,
                                         std::move(entry.mbr),
                                         entry.batch_seq, entry.expires});
    }
  }
  // expire(now) left only live subscriptions in the store.
  for (const auto& [id, sub] : store.subscriptions()) {
    const auto [qlo, qhi] =
        keys.query_range(sub.query->features, sub.query->radius);
    if (range_meets_arc(space, qlo, qhi, lo, hi) &&
        !std::binary_search(listed_queries.begin(), listed_queries.end(),
                            id)) {
      put.subscriptions.push_back(
          ReplicaSubscriptionEntry{sub.query, sub.middle_key, sub.expires});
    }
  }
  std::sort(put.subscriptions.begin(), put.subscriptions.end(),
            [](const ReplicaSubscriptionEntry& a,
               const ReplicaSubscriptionEntry& b) {
              return a.query->id < b.query->id;
            });
  return put;
}

AntiEntropyDigestPayload arc_digest(IndexStore& store,
                                    const ContentKeyMap& keys,
                                    const common::IdSpace& space, Key lo,
                                    Key hi, sim::SimTime now) {
  const ReplicaPutPayload entries =
      arc_entries(store, keys, space, lo, hi, now);
  AntiEntropyDigestPayload digest;
  digest.lo = lo;
  digest.hi = hi;
  digest.mbr_keys.reserve(entries.mbrs.size());
  for (const ReplicaMbrEntry& entry : entries.mbrs) {
    digest.mbr_keys.push_back(MbrBatchId{entry.stream, entry.batch_seq});
  }
  digest.query_ids.reserve(entries.subscriptions.size());
  for (const ReplicaSubscriptionEntry& entry : entries.subscriptions) {
    digest.query_ids.push_back(entry.query->id);
  }
  return digest;
}

AntiEntropyRequestPayload digest_gaps(IndexStore& store,
                                      const AntiEntropyDigestPayload& digest,
                                      sim::SimTime now) {
  store.expire(now);
  AntiEntropyRequestPayload request;
  for (const MbrBatchId& id : digest.mbr_keys) {
    if (!store.contains_mbr(id.stream, id.batch_seq)) {
      request.mbr_keys.push_back(id);
    }
  }
  for (const QueryId id : digest.query_ids) {
    if (store.find_subscription(id) == nullptr) {
      request.query_ids.push_back(id);
    }
  }
  return request;
}

ReplicaPutPayload backfill(const IndexStore& store,
                           const AntiEntropyRequestPayload& request,
                           sim::SimTime now) {
  ReplicaPutPayload put;
  for (const MbrBatchId& id : request.mbr_keys) {
    if (const IndexStore::StoredMbr* entry =
            store.find_mbr(id.stream, id.batch_seq)) {
      put.mbrs.push_back(ReplicaMbrEntry{entry->stream, entry->source,
                                         entry->mbr, entry->batch_seq,
                                         entry->expires});
    }
  }
  for (const QueryId id : request.query_ids) {
    const IndexStore::Subscription* sub = store.find_subscription(id);
    if (sub != nullptr && sub->expires > now) {
      put.subscriptions.push_back(
          ReplicaSubscriptionEntry{sub->query, sub->middle_key, sub->expires});
    }
  }
  return put;
}

AppliedPut apply_replica_put(IndexStore& store, const ReplicaPutPayload& put,
                             sim::SimTime now) {
  AppliedPut applied;
  for (const ReplicaMbrEntry& entry : put.mbrs) {
    if (store.add_mbr(IndexStore::StoredMbr{entry.stream, entry.source,
                                            entry.mbr, entry.batch_seq, now,
                                            entry.expires})) {
      if (applied.added == 0) {
        applied.first_stream = entry.stream;
        applied.first_seq = entry.batch_seq;
      }
      ++applied.added;
    }
  }
  for (const ReplicaSubscriptionEntry& entry : put.subscriptions) {
    if (entry.query == nullptr || entry.expires <= now) {
      continue;
    }
    if (store.find_subscription(entry.query->id) == nullptr) {
      ++applied.added;
    }
    store.add_subscription(entry.query, entry.middle_key, entry.expires);
  }
  return applied;
}

std::size_t entry_bytes(const ReplicaPutPayload& put) {
  std::size_t bytes = 0;
  for (const ReplicaMbrEntry& entry : put.mbrs) {
    // Identity + expiry header, plus two doubles per MBR dimension.
    bytes += 40 + entry.mbr.dimensions() * 16;
  }
  for (const ReplicaSubscriptionEntry& entry : put.subscriptions) {
    // Query header, plus one complex coefficient per feature dimension.
    bytes += 48 + entry.query->features.size() * 16;
  }
  return bytes;
}

}  // namespace sdsi::core
