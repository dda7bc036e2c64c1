#include "core/replica_sync.hpp"

#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

namespace sdsi::core::replica_sync {

namespace {

/// Calls on_mbr for every live MBR (store order) and on_sub for every live
/// subscription (ascending id order) whose key range meets the arc (lo, hi].
/// `skip_mbr` / `skip_sub` run before the key-range test.
template <typename SkipMbr, typename OnMbr, typename SkipSub, typename OnSub>
void visit_arc(const IndexStore& store, const ContentKeyMap& keys,
               const common::IdSpace& space, Key lo, Key hi, sim::SimTime now,
               SkipMbr skip_mbr, OnMbr on_mbr, SkipSub skip_sub,
               OnSub on_sub) {
  for (const IndexStore::StoredMbr& entry : store.mbrs()) {
    if (skip_mbr(entry)) {
      continue;
    }
    const auto [rlo, rhi] = keys.mbr_range(entry.mbr);
    if (space.range_intersects_arc(rlo, rhi, lo, hi)) {
      on_mbr(entry);
    }
  }
  for (const auto& [id, sub] : store.subscriptions()) {
    if (sub.query == nullptr || sub.expires <= now || skip_sub(id)) {
      continue;
    }
    const auto [rlo, rhi] =
        keys.query_range(sub.query->features, sub.query->radius);
    if (space.range_intersects_arc(rlo, rhi, lo, hi)) {
      on_sub(id, sub);
    }
  }
}

constexpr auto kSkipNoMbr = [](const IndexStore::StoredMbr&) { return false; };
constexpr auto kSkipNoSub = [](QueryId) { return false; };

/// Arc entries as a payload, subscriptions in ascending id order.
template <typename SkipMbr, typename SkipSub>
ReplicaPutPayload collect_where(const IndexStore& store,
                                const ContentKeyMap& keys,
                                const common::IdSpace& space, NodeIndex from,
                                Key lo, Key hi, sim::SimTime now,
                                SkipMbr skip_mbr, SkipSub skip_sub) {
  ReplicaPutPayload put;
  put.from = from;
  visit_arc(
      store, keys, space, lo, hi, now, skip_mbr,
      [&](const IndexStore::StoredMbr& entry) {
        put.mbrs.push_back(ReplicaMbrEntry{entry.stream, entry.source,
                                           entry.mbr, entry.batch_seq,
                                           entry.expires});
      },
      skip_sub,
      [&](QueryId, const IndexStore::Subscription& sub) {
        put.subscriptions.push_back(
            ReplicaSubscriptionEntry{sub.query, sub.middle_key, sub.expires});
      });
  return put;
}

}  // namespace

ReplicaPutPayload collect(const IndexStore& store, const ContentKeyMap& keys,
                          const common::IdSpace& space, NodeIndex from, Key lo,
                          Key hi, sim::SimTime now) {
  return collect_where(store, keys, space, from, lo, hi, now, kSkipNoMbr,
                       kSkipNoSub);
}

AntiEntropyDigestPayload digest(const IndexStore& store,
                                const ContentKeyMap& keys,
                                const common::IdSpace& space, NodeIndex from,
                                Key lo, Key hi, sim::SimTime now) {
  AntiEntropyDigestPayload out{from, lo, hi, {}, {}};
  visit_arc(
      store, keys, space, lo, hi, now, kSkipNoMbr,
      [&](const IndexStore::StoredMbr& entry) {
        out.mbr_keys.push_back(MbrBatchId{entry.stream, entry.batch_seq});
      },
      kSkipNoSub,
      [&](QueryId id, const IndexStore::Subscription&) {
        out.query_ids.push_back(id);
      });
  return out;
}

DigestDiff diff(const AntiEntropyDigestPayload& digest,
                const IndexStore& store, const ContentKeyMap& keys,
                const common::IdSpace& space, NodeIndex self,
                sim::SimTime now) {
  DigestDiff out;
  out.request.requester = self;
  for (const MbrBatchId& id : digest.mbr_keys) {
    if (!store.contains_mbr(id.stream, id.batch_seq)) {
      out.request.mbr_keys.push_back(id);
    }
  }
  for (const QueryId id : digest.query_ids) {
    if (store.find_subscription(id) == nullptr) {
      out.request.query_ids.push_back(id);
    }
  }

  std::set<std::pair<StreamId, std::uint64_t>> listed_mbrs;
  for (const MbrBatchId& id : digest.mbr_keys) {
    listed_mbrs.emplace(id.stream, id.batch_seq);
  }
  const std::unordered_set<QueryId> listed_queries(digest.query_ids.begin(),
                                                   digest.query_ids.end());
  out.push = collect_where(
      store, keys, space, self, digest.lo, digest.hi, now,
      [&](const IndexStore::StoredMbr& entry) {
        return listed_mbrs.contains({entry.stream, entry.batch_seq});
      },
      [&](QueryId id) { return listed_queries.contains(id); });
  out.push.repair = true;
  return out;
}

ReplicaPutPayload lookup(const AntiEntropyRequestPayload& request,
                         const IndexStore& store, NodeIndex self,
                         sim::SimTime now) {
  ReplicaPutPayload put;
  put.from = self;
  put.repair = true;
  for (const MbrBatchId& id : request.mbr_keys) {
    if (std::optional<IndexStore::StoredMbr> entry =
            store.find_mbr(id.stream, id.batch_seq)) {
      put.mbrs.push_back(ReplicaMbrEntry{entry->stream, entry->source,
                                         std::move(entry->mbr),
                                         entry->batch_seq, entry->expires});
    }
  }
  for (const QueryId id : request.query_ids) {
    const IndexStore::Subscription* sub = store.find_subscription(id);
    if (sub != nullptr && sub->query != nullptr && sub->expires > now) {
      put.subscriptions.push_back(
          ReplicaSubscriptionEntry{sub->query, sub->middle_key, sub->expires});
    }
  }
  return put;
}

Applied apply(const ReplicaPutPayload& put, IndexStore& store,
              sim::SimTime now) {
  Applied out;
  for (const ReplicaMbrEntry& entry : put.mbrs) {
    if (store.add_mbr(entry.stream, entry.source, entry.mbr, entry.batch_seq,
                      now, entry.expires)) {
      if (out.added == 0) {
        out.first_stream = entry.stream;
        out.first_seq = entry.batch_seq;
      }
      ++out.added;
    }
  }
  for (const ReplicaSubscriptionEntry& entry : put.subscriptions) {
    if (entry.query == nullptr || entry.expires <= now) {
      continue;
    }
    if (store.find_subscription(entry.query->id) == nullptr) {
      ++out.added;
    }
    store.add_subscription(entry.query, entry.middle_key, entry.expires);
  }
  return out;
}

}  // namespace sdsi::core::replica_sync
