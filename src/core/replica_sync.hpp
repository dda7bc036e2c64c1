// Replica sync: the store side of the replication layer (mirror puts,
// ownership handoff, anti-entropy), written once for both runtimes. The
// simulator middleware (core/system.cpp) and the socket node
// (net/node.cpp) call these free functions over an IndexStore plus the
// strategy's content key map and the ring's id space; each runtime keeps
// its own policy around them: whom to send to, liveness guards, metrics and
// traces.
//
// Filters, identical everywhere:
//   * MBRs are filtered only by the store's own liveness check (entries past
//     the store's expiry horizon are absent); no function advances the
//     horizon, so the store's match-work figures are untouched.
//   * Subscriptions are skipped once `expires <= now`, and so are entries
//     with no query attached (a corrupted frame can decode into one).
//   * Subscription lists in collected payloads and digests are in ascending
//     query-id order: payload contents never depend on the store's
//     history-dependent iteration order. MBR lists keep store order.
//
// Arcs are clockwise and half-open, (lo, hi]; an entry belongs to an arc
// when its primary key range meets it (IdSpace::range_intersects_arc).
// lo == hi is the whole circle, so it selects the whole store.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/ring_math.hpp"
#include "core/index_store.hpp"
#include "core/query.hpp"
#include "core/strategy.hpp"

namespace sdsi::core::replica_sync {

/// The live entries whose key range meets the arc (lo, hi], as a
/// ReplicaPutPayload with `from` set and both flags clear.
ReplicaPutPayload collect(const IndexStore& store, const ContentKeyMap& keys,
                          const common::IdSpace& space, NodeIndex from, Key lo,
                          Key hi, sim::SimTime now);

/// Anti-entropy digest of the arc (lo, hi]: the identities of what
/// collect() would return.
AntiEntropyDigestPayload digest(const IndexStore& store,
                                const ContentKeyMap& keys,
                                const common::IdSpace& space, NodeIndex from,
                                Key lo, Key hi, sim::SimTime now);

/// One digest diffed against the local store, both directions.
struct DigestDiff {
  /// Digest entries the local store misses (pull), in digest order.
  AntiEntropyRequestPayload request;
  /// Local entries on the digest's arc that the digest does not list
  /// (push-back), flagged `repair`.
  ReplicaPutPayload push;
};
DigestDiff diff(const AntiEntropyDigestPayload& digest,
                const IndexStore& store, const ContentKeyMap& keys,
                const common::IdSpace& space, NodeIndex self,
                sim::SimTime now);

/// The requested entries the local store holds, in request order, flagged
/// `repair`; absent entries are skipped.
ReplicaPutPayload lookup(const AntiEntropyRequestPayload& request,
                         const IndexStore& store, NodeIndex self,
                         sim::SimTime now);

/// What apply() stored.
struct Applied {
  /// Entries that were new to the store: accepted MBRs plus subscriptions
  /// not already installed (an installed one is refreshed, not counted).
  std::size_t added = 0;
  /// Identity of the first newly stored MBR (zero when none was).
  StreamId first_stream = 0;
  std::uint64_t first_seq = 0;
};

/// Stores a ReplicaPutPayload: MBRs through add_mbr (expiry and identity
/// dedup), live subscriptions through add_subscription.
Applied apply(const ReplicaPutPayload& put, IndexStore& store,
              sim::SimTime now);

/// MBR plus subscription entries in a payload.
inline std::size_t entries(const ReplicaPutPayload& put) noexcept {
  return put.mbrs.size() + put.subscriptions.size();
}
inline std::size_t entries(const AntiEntropyRequestPayload& request) noexcept {
  return request.mbr_keys.size() + request.query_ids.size();
}

}  // namespace sdsi::core::replica_sync
