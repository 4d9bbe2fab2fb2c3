#include "core/index_store.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace sdsi::core {

bool IndexStore::add_mbr(StoredMbr entry) {
  SDSI_CHECK(!entry.mbr.empty());
  if (dead(entry)) {
    return false;  // arrived past its own lifespan: never observable
  }
  SDSI_CHECK(mbrs_.size() < std::numeric_limits<std::uint32_t>::max());
  const auto pos = static_cast<std::uint32_t>(mbrs_.size());
  const MbrKey key{entry.stream, entry.batch_seq};
  const auto [it, inserted] = by_key_.try_emplace(key, pos);
  if (!inserted) {
    if (!dead(mbrs_[it->second])) {
      return false;  // duplicate delivery of a live batch: idempotent
    }
    it->second = pos;  // prior copy lapsed; this one supersedes it
  }
  mbr_expiry_.push(MbrExpiry{entry.expires, pos});
  mbrs_.push_back(std::move(entry));
  ++alive_mbrs_;
  return true;
}

void IndexStore::add_subscription(
    std::shared_ptr<const SimilarityQuery> query, Key middle_key,
    sim::SimTime expires) {
  SDSI_CHECK(query != nullptr);
  const QueryId id = query->id;
  auto [it, inserted] = subscriptions_.try_emplace(id);
  if (inserted) {
    it->second.query = std::move(query);
    it->second.middle_key = middle_key;
  }
  it->second.expires = expires;
  // A refresh leaves the earlier heap entry behind; expire() recognizes it
  // as stale because the live expires moved past it.
  sub_expiry_.push(SubExpiry{expires, id});
}

void IndexStore::rescan_subscription(QueryId id) {
  const auto it = subscriptions_.find(id);
  if (it != subscriptions_.end()) {
    it->second.reported.clear();
    it->second.scanned = false;
  }
}

void IndexStore::expire(sim::SimTime now) {
  if (now > horizon_) {
    horizon_ = now;
  }
  while (!mbr_expiry_.empty() && mbr_expiry_.top().expires <= now) {
    mbr_expiry_.pop();
    --alive_mbrs_;
  }
  // Compact once tombstones dominate the slab: amortized O(1) per entry.
  const std::size_t tombstones = mbrs_.size() - alive_mbrs_;
  if (tombstones > 64 && tombstones * 2 > mbrs_.size()) {
    compact();
  }
  while (!sub_expiry_.empty() && sub_expiry_.top().expires <= now) {
    const SubExpiry lane = sub_expiry_.top();
    sub_expiry_.pop();
    const auto it = subscriptions_.find(lane.id);
    if (it != subscriptions_.end() && it->second.expires <= now) {
      subscriptions_.erase(it);
    }
  }
}

void IndexStore::merge_pending() {
  const auto old_size = static_cast<std::ptrdiff_t>(sorted_.size());
  sorted_.reserve(mbrs_.size());
  for (std::size_t pos = indexed_limit_; pos < mbrs_.size(); ++pos) {
    const StoredMbr& entry = mbrs_[pos];
    if (dead(entry)) {
      continue;
    }
    const double low = entry.mbr.routing_low();
    const double high = entry.mbr.routing_high();
    sorted_.push_back(IntervalRef{low, high, static_cast<std::uint32_t>(pos),
                                  entry.stream, entry.expires});
    max_extent_ = std::max(max_extent_, high - low);
  }
  indexed_limit_ = mbrs_.size();
  const auto by_low = [](const IntervalRef& a, const IntervalRef& b) {
    return a.low < b.low;
  };
  std::sort(sorted_.begin() + old_size, sorted_.end(), by_low);
  std::inplace_merge(sorted_.begin(), sorted_.begin() + old_size,
                     sorted_.end(), by_low);
}

void IndexStore::compact() {
  // Surviving entries shift down; the match watermark must keep separating
  // the same entries.
  matched_limit_ = static_cast<std::size_t>(std::count_if(
      mbrs_.begin(),
      mbrs_.begin() + static_cast<std::ptrdiff_t>(matched_limit_),
      [this](const StoredMbr& entry) { return !dead(entry); }));
  std::erase_if(mbrs_, [this](const StoredMbr& entry) { return dead(entry); });
  alive_mbrs_ = mbrs_.size();

  by_key_.clear();
  by_key_.reserve(mbrs_.size());
  for (std::size_t pos = 0; pos < mbrs_.size(); ++pos) {
    by_key_.try_emplace(MbrKey{mbrs_[pos].stream, mbrs_[pos].batch_seq},
                        static_cast<std::uint32_t>(pos));
  }

  std::vector<MbrExpiry> lanes;
  lanes.reserve(mbrs_.size());
  std::vector<IntervalRef> refs;
  refs.reserve(mbrs_.size());
  max_extent_ = 0.0;
  for (std::size_t pos = 0; pos < mbrs_.size(); ++pos) {
    const StoredMbr& entry = mbrs_[pos];
    lanes.push_back(MbrExpiry{entry.expires, static_cast<std::uint32_t>(pos)});
    const double low = entry.mbr.routing_low();
    const double high = entry.mbr.routing_high();
    refs.push_back(IntervalRef{low, high, static_cast<std::uint32_t>(pos),
                               entry.stream, entry.expires});
    max_extent_ = std::max(max_extent_, high - low);
  }
  mbr_expiry_ = MinHeap<MbrExpiry>(std::greater<MbrExpiry>{},
                                   std::move(lanes));
  std::sort(refs.begin(), refs.end(),
            [](const IntervalRef& a, const IntervalRef& b) {
              return a.low < b.low;
            });
  sorted_ = std::move(refs);
  indexed_limit_ = mbrs_.size();
}

void IndexStore::match_subscription(QueryId id, Subscription& sub,
                                    std::span<const IntervalRef> fresh,
                                    sim::SimTime now,
                                    const ReportFilter& filter,
                                    std::vector<SimilarityMatch>& out,
                                    std::uint64_t& work,
                                    std::uint64_t& declined) const {
  // expire(now) already dropped lapsed subscriptions, so the per-pair
  // expiry re-checks of the brute-force scan are gone; assert the lane
  // invariant instead.
  SDSI_DCHECK(sub.expires > now);
  const SimilarityQuery& query = *sub.query;
  const double center = query.features.routing_coordinate();
  const double query_low = center - query.radius;
  const double query_high = center + query.radius;
  // Candidates must satisfy low <= query_high and high >= query_low; with
  // high <= low + max_extent_ the second condition bounds the search to
  // low >= query_low - max_extent_, so both ends binary-search.
  const double scan_from = query_low - max_extent_;
  const auto window = [&](std::span<const IntervalRef> refs) {
    const auto first = std::lower_bound(
        refs.begin(), refs.end(), scan_from,
        [](const IntervalRef& ref, double value) { return ref.low < value; });
    const auto last = std::upper_bound(
        first, refs.end(), query_high,
        [](double value, const IntervalRef& ref) { return value < ref.low; });
    return std::span<const IntervalRef>(first, last);
  };
  const std::span<const IntervalRef> candidates = window(sorted_);
  work += candidates.size();
  // A scanned subscription has met every entry older than `fresh` on an
  // earlier pass, and none of those answers can have changed since.
  for (const IntervalRef& ref : sub.scanned ? window(fresh) : candidates) {
    if (ref.high < query_low) {
      continue;  // first-dim gap alone already exceeds the radius
    }
    if (ref.expires <= horizon_) {
      continue;  // lazily-deleted slot awaiting compaction
    }
    if (sub.reported.contains(ref.stream)) {
      continue;
    }
    // Only a surviving candidate touches the cold slab, for the full
    // multi-dimensional lower bound.
    const StoredMbr& entry = mbrs_[ref.pos];
    const double bound = entry.mbr.min_distance(query.features);
    if (bound > query.radius) {
      continue;
    }
    if (filter && !filter(entry, sub)) {
      ++declined;
      continue;
    }
    sub.reported.insert(entry.stream);
    out.push_back(SimilarityMatch{id, entry.stream, bound, now});
  }
  sub.scanned = true;
}

std::vector<SimilarityMatch> IndexStore::match(sim::SimTime now,
                                               const ReportFilter& filter) {
  expire(now);
  if (indexed_limit_ < mbrs_.size()) {
    merge_pending();
  }
  // The MBRs stored since the last pass, kept in index order so that a
  // subscription meets them in the order a full scan would.
  std::vector<IntervalRef> fresh_mbrs;
  if (matched_limit_ < mbrs_.size()) {
    fresh_mbrs.reserve(mbrs_.size() - matched_limit_);
    for (const IntervalRef& ref : sorted_) {
      if (ref.pos >= matched_limit_) {
        fresh_mbrs.push_back(ref);
      }
    }
    matched_limit_ = mbrs_.size();
  }
  std::vector<SimilarityMatch> fresh;
  // Visit subscriptions in canonical ascending-id order: the pass's output
  // order (and thus the downstream report/ack message sequence) must be a
  // function of the stored state, not of the container's insert/erase
  // history.
  std::vector<std::pair<QueryId, Subscription>*> subs;
  subs.reserve(subscriptions_.size());
  for (auto& entry : subscriptions_) {
    subs.push_back(&entry);
  }
  std::sort(subs.begin(), subs.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  last_match_work_ = 0;
  last_match_declined_ = 0;
  for (auto* entry : subs) {
    match_subscription(entry->first, entry->second, fresh_mbrs, now, filter,
                       fresh, last_match_work_, last_match_declined_);
  }
  return fresh;
}

std::vector<SimilarityMatch> IndexStore::match_brute_force(
    sim::SimTime now, const ReportFilter& filter) {
  std::vector<SimilarityMatch> fresh;
  std::vector<std::pair<QueryId, Subscription>*> order;
  order.reserve(subscriptions_.size());
  for (auto& entry : subscriptions_) {
    order.push_back(&entry);
  }
  std::sort(order.begin(), order.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (auto* item : order) {
    const QueryId id = item->first;
    Subscription& sub = item->second;
    if (sub.expires <= now) {
      continue;
    }
    const SimilarityQuery& query = *sub.query;
    for (const StoredMbr& entry : mbrs_) {
      if (entry.expires <= now || sub.reported.contains(entry.stream)) {
        continue;
      }
      const double bound = entry.mbr.min_distance(query.features);
      if (bound <= query.radius && (!filter || filter(entry, sub))) {
        sub.reported.insert(entry.stream);
        fresh.push_back(SimilarityMatch{id, entry.stream, bound, now});
      }
    }
  }
  return fresh;
}

std::vector<IndexStore::StoredMbr> IndexStore::mbrs() const {
  std::vector<StoredMbr> out;
  out.reserve(alive_mbrs_);
  for (const StoredMbr& entry : mbrs_) {
    if (!dead(entry)) {
      out.push_back(entry);
    }
  }
  return out;
}

const IndexStore::Subscription* IndexStore::find_subscription(
    QueryId id) const {
  const auto it = subscriptions_.find(id);
  return it == subscriptions_.end() ? nullptr : &it->second;
}

bool IndexStore::contains_mbr(StreamId stream,
                              std::uint64_t batch_seq) const {
  return find_mbr(stream, batch_seq) != nullptr;
}

const IndexStore::StoredMbr* IndexStore::find_mbr(
    StreamId stream, std::uint64_t batch_seq) const {
  const auto it = by_key_.find(MbrKey{stream, batch_seq});
  if (it == by_key_.end()) {
    return nullptr;
  }
  const StoredMbr& entry = mbrs_[it->second];
  return dead(entry) ? nullptr : &entry;
}

}  // namespace sdsi::core
