// The shared store side of replica sync (core/replica_sync): arc selection,
// canonical order, expiry filters, digest diffing, request lookup and apply.
// A transparent key map (key = first coordinate) makes every key range
// explicit, so each arc-membership case is spelled out by hand.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/replica_sync.hpp"

namespace sdsi::core {
namespace {

const common::IdSpace kSpace(8);  // keys 0..255

/// MBR key range = [low_0, high_0]; query key range = [re_0 - r, re_0 + r];
/// both read directly as ring keys mod 256, so a range can wrap past 0.
class LiteralKeyMap final : public ContentKeyMap {
 public:
  Key key_for(const dsp::FeatureVector& features) const override {
    return kSpace.wrap(static_cast<Key>(features.routing_coordinate()));
  }
  std::pair<Key, Key> mbr_range(const dsp::Mbr& mbr) const override {
    return {kSpace.wrap(static_cast<Key>(mbr.low()[0])),
            kSpace.wrap(static_cast<Key>(mbr.high()[0]))};
  }
  std::pair<Key, Key> query_range(const dsp::FeatureVector& features,
                                  double radius) const override {
    const double center = features.routing_coordinate();
    return {kSpace.wrap(static_cast<Key>(center - radius + 256.0)),
            kSpace.wrap(static_cast<Key>(center + radius))};
  }
};

const LiteralKeyMap kKeys;

sim::SimTime at_ms(std::int64_t ms) {
  return sim::SimTime::zero() + sim::Duration::millis(ms);
}

/// Stores MBR (stream, seq 0) whose key range is [lo, hi] mod 256.
void add_range(IndexStore& store, StreamId stream, double lo, double hi,
               std::int64_t expires_ms = 100000) {
  ASSERT_TRUE(store.add_mbr(stream, /*source=*/0,
                            dsp::Mbr({lo, 0.0}, {hi, 0.0}), /*batch_seq=*/0,
                            at_ms(0), at_ms(expires_ms)));
}

std::shared_ptr<const SimilarityQuery> query(QueryId id, double center,
                                             double radius = 2.0) {
  SimilarityQuery q;
  q.id = id;
  q.client = 0;
  q.features = dsp::FeatureVector({dsp::Complex{center, 0.0}});
  q.radius = radius;
  return std::make_shared<const SimilarityQuery>(std::move(q));
}

/// Subscribes query `id` with key range [center - 2, center + 2].
void add_query(IndexStore& store, QueryId id, double center,
               std::int64_t expires_ms = 100000) {
  store.add_subscription(query(id, center), /*middle_key=*/0,
                         at_ms(expires_ms));
}

std::vector<StreamId> streams_of(const ReplicaPutPayload& put) {
  std::vector<StreamId> out;
  for (const ReplicaMbrEntry& entry : put.mbrs) {
    out.push_back(entry.stream);
  }
  return out;
}

std::vector<QueryId> queries_of(const ReplicaPutPayload& put) {
  std::vector<QueryId> out;
  for (const ReplicaSubscriptionEntry& entry : put.subscriptions) {
    out.push_back(entry.query->id);
  }
  return out;
}

std::vector<StreamId> streams_of(const std::vector<MbrBatchId>& ids) {
  std::vector<StreamId> out;
  for (const MbrBatchId& id : ids) {
    out.push_back(id.stream);
  }
  return out;
}

using Streams = std::vector<StreamId>;
using Queries = std::vector<QueryId>;

/// Four MBRs and four queries; stream s and query s share a neighborhood:
/// 1 ~ [10, 20], 2 ~ [100, 110], 3 wraps [250, 5], 4 ~ [30, 40].
IndexStore sample_store() {
  IndexStore store;
  add_range(store, 1, 10, 20);
  add_range(store, 2, 100, 110);
  add_range(store, 3, 250, 261);
  add_range(store, 4, 30, 40);
  add_query(store, 1, 15);   // [13, 17]
  add_query(store, 2, 105);  // [103, 107]
  add_query(store, 3, 0);    // [254, 2], wraps
  add_query(store, 4, 35);   // [33, 37]
  return store;
}

TEST(ReplicaSync, CollectSelectsEntriesMeetingTheArc) {
  const IndexStore store = sample_store();
  // (15, 105]: 1 ends inside, 2 starts inside, 4 lies inside; 3 is off-arc.
  const ReplicaPutPayload put =
      replica_sync::collect(store, kKeys, kSpace, 7, 15, 105, at_ms(1));
  EXPECT_EQ(put.from, 7u);
  EXPECT_FALSE(put.handoff);
  EXPECT_FALSE(put.repair);
  EXPECT_EQ(streams_of(put), (Streams{1, 2, 4}));
  EXPECT_EQ(queries_of(put), (Queries{1, 2, 4}));
  EXPECT_EQ(replica_sync::entries(put), 6u);
}

TEST(ReplicaSync, CollectOverAWrappedArc) {
  const IndexStore store = sample_store();
  // (240, 12] wraps past 0: it meets 3 and the low end of 1 only.
  const ReplicaPutPayload put =
      replica_sync::collect(store, kKeys, kSpace, 0, 240, 12, at_ms(1));
  EXPECT_EQ(streams_of(put), (Streams{1, 3}));
  EXPECT_EQ(queries_of(put), (Queries{3}));
}

TEST(ReplicaSync, CollectSwallowedArcAndWholeStore) {
  const IndexStore store = sample_store();
  // (101, 104] lies strictly inside MBR 2's range: selected via its high end.
  EXPECT_EQ(streams_of(replica_sync::collect(store, kKeys, kSpace, 0, 101, 104,
                                             at_ms(1))),
            (Streams{2}));
  // lo == hi is the whole circle: every live entry, MBRs in store order.
  const ReplicaPutPayload all =
      replica_sync::collect(store, kKeys, kSpace, 0, 77, 77, at_ms(1));
  EXPECT_EQ(streams_of(all), (Streams{1, 2, 3, 4}));
  EXPECT_EQ(queries_of(all), (Queries{1, 2, 3, 4}));
}

TEST(ReplicaSync, SubscriptionsComeInAscendingIdOrder) {
  IndexStore store;
  for (const QueryId id : {9u, 3u, 12u, 1u, 7u}) {
    add_query(store, id, 50);
  }
  const Queries ascending{1, 3, 7, 9, 12};
  EXPECT_EQ(queries_of(replica_sync::collect(store, kKeys, kSpace, 0, 0, 0,
                                             at_ms(1))),
            ascending);
  EXPECT_EQ(replica_sync::digest(store, kKeys, kSpace, 0, 0, 0, at_ms(1))
                .query_ids,
            ascending);
  // The push-back half of a diff keeps the same order.
  AntiEntropyDigestPayload empty_digest{4, 0, 0, {}, {}};
  EXPECT_EQ(queries_of(replica_sync::diff(empty_digest, store, kKeys, kSpace,
                                          0, at_ms(1))
                           .push),
            ascending);
}

TEST(ReplicaSync, ExpiredSubscriptionsAreSkippedMbrsFollowTheStoreHorizon) {
  IndexStore store;
  add_range(store, 1, 10, 20, /*expires_ms=*/50);
  add_range(store, 2, 10, 20, /*expires_ms=*/500);
  add_query(store, 1, 15, /*expires_ms=*/50);
  add_query(store, 2, 15, /*expires_ms=*/500);
  const sim::SimTime now = at_ms(100);

  // Subscriptions lapse at `now` on their own; MBR 1 is still live to the
  // store until its horizon moves (the functions never advance it).
  const ReplicaPutPayload before =
      replica_sync::collect(store, kKeys, kSpace, 0, 0, 0, now);
  EXPECT_EQ(streams_of(before), (Streams{1, 2}));
  EXPECT_EQ(queries_of(before), (Queries{2}));
  EXPECT_EQ(store.mbr_count(), 2u);

  AntiEntropyRequestPayload request{5, {{1, 0}, {2, 0}}, {1, 2}};
  EXPECT_EQ(queries_of(replica_sync::lookup(request, store, 0, now)),
            (Queries{2}));

  store.expire(now);
  const AntiEntropyDigestPayload digest =
      replica_sync::digest(store, kKeys, kSpace, 0, 0, 0, now);
  EXPECT_EQ(streams_of(digest.mbr_keys), (Streams{2}));
  EXPECT_EQ(digest.query_ids, (Queries{2}));
  EXPECT_EQ(streams_of(replica_sync::lookup(request, store, 0, now)),
            (Streams{2}));
}

TEST(ReplicaSync, DiffExcludesWhatEachSideAlreadyHolds) {
  // The local store holds MBRs 1, 2 and queries 1, 2 on the arc (5, 25],
  // plus MBR/query 4 off the arc.
  IndexStore store;
  add_range(store, 1, 10, 12);
  add_range(store, 2, 14, 16);
  add_range(store, 4, 200, 210);
  add_query(store, 1, 11);
  add_query(store, 2, 15);
  add_query(store, 4, 205);

  // The digest's sender holds 2 and 3 of each.
  const AntiEntropyDigestPayload digest{9, 5, 25, {{2, 0}, {3, 0}}, {2, 3}};
  const replica_sync::DigestDiff diff =
      replica_sync::diff(digest, store, kKeys, kSpace, 1, at_ms(1));

  // Pull: only what the local store misses, in digest order.
  EXPECT_EQ(diff.request.requester, 1u);
  EXPECT_EQ(streams_of(diff.request.mbr_keys), (Streams{3}));
  EXPECT_EQ(diff.request.query_ids, (Queries{3}));
  EXPECT_EQ(replica_sync::entries(diff.request), 2u);

  // Push-back: only arc entries the digest does not list.
  EXPECT_EQ(diff.push.from, 1u);
  EXPECT_TRUE(diff.push.repair);
  EXPECT_FALSE(diff.push.handoff);
  EXPECT_EQ(streams_of(diff.push), (Streams{1}));
  EXPECT_EQ(queries_of(diff.push), (Queries{1}));

  // A digest listing everything leaves nothing to do either way.
  const AntiEntropyDigestPayload full{9, 5, 25, {{1, 0}, {2, 0}}, {1, 2}};
  const replica_sync::DigestDiff none =
      replica_sync::diff(full, store, kKeys, kSpace, 1, at_ms(1));
  EXPECT_EQ(replica_sync::entries(none.request), 0u);
  EXPECT_EQ(replica_sync::entries(none.push), 0u);
}

TEST(ReplicaSync, LookupReturnsPresentEntriesInRequestOrder) {
  const IndexStore store = sample_store();
  const AntiEntropyRequestPayload request{
      3, {{4, 0}, {8, 0}, {1, 0}, {2, 5}}, {3, 11, 1}};
  const ReplicaPutPayload put = replica_sync::lookup(request, store, 6,
                                                     at_ms(1));
  EXPECT_EQ(put.from, 6u);
  EXPECT_TRUE(put.repair);
  EXPECT_EQ(streams_of(put), (Streams{4, 1}));  // (8,0) and (2,5) are absent
  EXPECT_EQ(queries_of(put), (Queries{3, 1}));
  ASSERT_EQ(put.mbrs.size(), 2u);
  EXPECT_EQ(put.mbrs[0].expires, at_ms(100000));
  EXPECT_EQ(put.mbrs[0].mbr.low()[0], 30.0);
}

TEST(ReplicaSync, ApplyCountsOnlyNewEntries) {
  IndexStore store;
  add_range(store, 1, 10, 20);
  add_query(store, 1, 15, /*expires_ms=*/1000);
  const sim::SimTime now = at_ms(100);
  store.expire(now);

  ReplicaPutPayload put;
  put.mbrs.push_back({1, 0, dsp::Mbr({10, 0}, {20, 0}), 0, at_ms(5000)});
  put.mbrs.push_back({6, 2, dsp::Mbr({40, 0}, {41, 0}), 3, at_ms(5000)});
  put.mbrs.push_back({7, 2, dsp::Mbr({42, 0}, {43, 0}), 1, at_ms(5000)});
  put.mbrs.push_back({8, 2, dsp::Mbr({44, 0}, {45, 0}), 1, at_ms(50)});  // lapsed
  put.subscriptions.push_back({query(1, 15), 0, at_ms(5000)});  // refresh
  put.subscriptions.push_back({query(2, 40), 0, at_ms(5000)});
  put.subscriptions.push_back({query(3, 40), 0, at_ms(100)});  // expired
  put.subscriptions.push_back({nullptr, 0, at_ms(5000)});

  const replica_sync::Applied applied = replica_sync::apply(put, store, now);
  EXPECT_EQ(applied.added, 3u);  // MBRs 6 and 7, query 2
  EXPECT_EQ(applied.first_stream, 6u);
  EXPECT_EQ(applied.first_seq, 3u);
  EXPECT_EQ(store.mbr_count(), 3u);
  EXPECT_EQ(store.subscription_count(), 2u);
  EXPECT_EQ(store.find_subscription(3), nullptr);
  // An installed subscription is refreshed, not counted.
  ASSERT_NE(store.find_subscription(1), nullptr);
  EXPECT_EQ(store.find_subscription(1)->expires, at_ms(5000));

  const replica_sync::Applied again = replica_sync::apply(put, store, now);
  EXPECT_EQ(again.added, 0u);
  EXPECT_EQ(again.first_stream, 0u);
  EXPECT_EQ(again.first_seq, 0u);
}

}  // namespace
}  // namespace sdsi::core
