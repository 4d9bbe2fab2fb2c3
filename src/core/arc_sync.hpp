// Replica repair over one key arc: the store side of the replication
// protocol of core::MiddlewareNode, the node both hosts run.
//
// A node owns the keys of its arc (pred, self], but its store also holds
// entries whose key range reaches into other arcs (range multicast copies,
// mirrors, local summaries). Repair reconciles one arc (lo, hi] between two
// stores: a handoff ships every entry on the arc; an anti-entropy digest
// lists the arc's entry ids, its receiver requests the entries it lacks and
// pushes back the arc entries the digest lacks; a backfill answers the
// request. The node keeps the rest: whom it sends to, its liveness checks,
// and what it counts.
//
// Rules every payload follows:
//  - only live entries are offered (subscriptions past expiry never are);
//  - MBRs come out in store order and subscriptions in ascending query id,
//    so payloads never depend on the store's hash-map history;
//  - selecting an arc or diffing a digest first expires the store to `now`;
//    answering a backfill request does not.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/ring_math.hpp"
#include "core/index_store.hpp"
#include "core/query.hpp"
#include "core/strategy.hpp"

namespace sdsi::core {

/// Whether the closed key range [lo, hi] meets the ring arc (a, b]: an end
/// of the range falls inside the arc, or the range swallows the arc whole.
bool range_meets_arc(const common::IdSpace& space, Key lo, Key hi, Key a,
                     Key b);

/// The live entries of `store` whose key range meets the arc (lo, hi],
/// leaving out any entry `listed` names. Sets only the entry lists.
ReplicaPutPayload arc_entries(IndexStore& store, const ContentKeyMap& keys,
                              const common::IdSpace& space, Key lo, Key hi,
                              sim::SimTime now,
                              const AntiEntropyDigestPayload* listed = nullptr);

/// The digest of the arc (lo, hi]: the ids of arc_entries(). Sets lo, hi
/// and the id lists; `from` is the caller's.
AntiEntropyDigestPayload arc_digest(IndexStore& store,
                                    const ContentKeyMap& keys,
                                    const common::IdSpace& space, Key lo,
                                    Key hi, sim::SimTime now);

/// The entries `digest` lists that `store` lacks, in digest order. Sets only
/// the id lists.
AntiEntropyRequestPayload digest_gaps(IndexStore& store,
                                      const AntiEntropyDigestPayload& digest,
                                      sim::SimTime now);

/// The requested entries `store` still holds, in request order. Sets only
/// the entry lists.
ReplicaPutPayload backfill(const IndexStore& store,
                           const AntiEntropyRequestPayload& request,
                           sim::SimTime now);

/// What one apply_replica_put() stored.
struct AppliedPut {
  std::size_t added = 0;  // entries the store did not hold before
  StreamId first_stream = 0;  // identity of the first newly stored MBR
  std::uint64_t first_seq = 0;
};

/// Stores the entries of a replica put. Redelivery adds nothing; an entry
/// already past its expiry is skipped.
AppliedPut apply_replica_put(IndexStore& store, const ReplicaPutPayload& put,
                             sim::SimTime now);

/// Number of entries a put carries.
inline std::size_t entry_count(const ReplicaPutPayload& put) noexcept {
  return put.mbrs.size() + put.subscriptions.size();
}

/// Approximate wire size of a put's entries (handoff byte accounting).
std::size_t entry_bytes(const ReplicaPutPayload& put);

}  // namespace sdsi::core
