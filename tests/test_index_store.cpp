// Per-node index storage: lifespans, matching, and per-node deduplication.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/index_store.hpp"

namespace sdsi::core {
namespace {

dsp::FeatureVector fv(double re, double im = 0.0) {
  return dsp::FeatureVector({dsp::Complex{re, im}});
}

sim::SimTime at_ms(std::int64_t ms) {
  return sim::SimTime::zero() + sim::Duration::millis(ms);
}

bool add_box(IndexStore& store, StreamId stream, double lo, double hi,
             std::int64_t expires_ms) {
  return store.add_mbr(stream, /*source=*/0, dsp::Mbr({lo, 0.0}, {hi, 0.0}),
                       /*batch_seq=*/0, at_ms(0), at_ms(expires_ms));
}

std::shared_ptr<const SimilarityQuery> query(QueryId id, double center,
                                             double radius) {
  SimilarityQuery q;
  q.id = id;
  q.client = 1;
  q.features = fv(center);
  q.radius = radius;
  return std::make_shared<const SimilarityQuery>(std::move(q));
}

TEST(IndexStore, EmptyStoreMatchesNothing) {
  IndexStore store;
  EXPECT_TRUE(store.match(at_ms(0)).empty());
  EXPECT_EQ(store.mbr_count(), 0u);
  EXPECT_EQ(store.subscription_count(), 0u);
}

TEST(IndexStore, MatchWithinRadius) {
  IndexStore store;
  add_box(store, 7, 0.30, 0.35, 10000);
  store.add_subscription(query(1, 0.32, 0.1), 0, at_ms(10000));
  const auto matches = store.match(at_ms(100));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].query, 1u);
  EXPECT_EQ(matches[0].stream, 7u);
  EXPECT_DOUBLE_EQ(matches[0].bound_distance, 0.0);  // center inside the box
}

TEST(IndexStore, NoMatchOutsideRadius) {
  IndexStore store;
  add_box(store, 7, 0.80, 0.85, 10000);
  store.add_subscription(query(1, 0.32, 0.1), 0, at_ms(10000));
  EXPECT_TRUE(store.match(at_ms(100)).empty());
}

TEST(IndexStore, MatchReportsEachStreamOnce) {
  IndexStore store;
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(10000));
  add_box(store, 7, 0.29, 0.31, 10000);
  EXPECT_EQ(store.match(at_ms(100)).size(), 1u);
  // A later MBR of the same stream must not re-report.
  add_box(store, 7, 0.30, 0.32, 10000);
  EXPECT_TRUE(store.match(at_ms(200)).empty());
  // But a different stream in range does.
  add_box(store, 8, 0.30, 0.32, 10000);
  EXPECT_EQ(store.match(at_ms(300)).size(), 1u);
}

TEST(IndexStore, SeparateQueriesTrackSeparateReportedSets) {
  IndexStore store;
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(10000));
  store.add_subscription(query(2, 0.3, 0.2), 0, at_ms(10000));
  add_box(store, 7, 0.29, 0.31, 10000);
  EXPECT_EQ(store.match(at_ms(100)).size(), 2u);
}

TEST(IndexStore, ExpiredMbrsDropAndStopMatching) {
  IndexStore store;
  add_box(store, 7, 0.3, 0.3, 5000);
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(100000));
  store.expire(at_ms(5000));  // expiry is inclusive
  EXPECT_EQ(store.mbr_count(), 0u);
  EXPECT_TRUE(store.match(at_ms(6000)).empty());
}

TEST(IndexStore, ExpiredSubscriptionsDrop) {
  IndexStore store;
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(2000));
  store.expire(at_ms(1999));
  EXPECT_EQ(store.subscription_count(), 1u);
  store.expire(at_ms(2000));
  EXPECT_EQ(store.subscription_count(), 0u);
}

TEST(IndexStore, MatchSkipsExpiredEvenBeforeSweep) {
  IndexStore store;
  add_box(store, 7, 0.3, 0.3, 1000);
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(10000));
  // No expire() call; match at t=2000 must still ignore the stale MBR.
  EXPECT_TRUE(store.match(at_ms(2000)).empty());
}

TEST(IndexStore, ResubscribeRefreshesLifespanKeepsReported) {
  IndexStore store;
  auto q = query(1, 0.3, 0.1);
  store.add_subscription(q, 5, at_ms(1000));
  add_box(store, 7, 0.3, 0.3, 100000);
  EXPECT_EQ(store.match(at_ms(10)).size(), 1u);
  // Range re-replication of the same query: lifespan refreshes, the
  // reported set survives (stream 7 is not re-announced).
  store.add_subscription(q, 5, at_ms(50000));
  EXPECT_EQ(store.subscription_count(), 1u);
  EXPECT_TRUE(store.match(at_ms(2000)).empty());
  const auto* sub = store.find_subscription(1);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->expires, at_ms(50000));
}

TEST(IndexStore, FindSubscriptionMissingReturnsNull) {
  IndexStore store;
  EXPECT_EQ(store.find_subscription(99), nullptr);
}

TEST(IndexStore, BoundDistanceIsBoxDistance) {
  IndexStore store;
  add_box(store, 7, 0.50, 0.60, 10000);
  store.add_subscription(query(1, 0.45, 0.1), 0, at_ms(10000));
  const auto matches = store.match(at_ms(100));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_NEAR(matches[0].bound_distance, 0.05, 1e-12);
}

TEST(IndexStore, ManyMbrsManyQueries) {
  IndexStore store;
  for (int s = 0; s < 50; ++s) {
    const double x = s * 0.02 - 0.5;  // spread across [-0.5, 0.48]
    add_box(store, static_cast<StreamId>(s), x, x + 0.01, 10000);
  }
  store.add_subscription(query(1, 0.0, 0.05), 0, at_ms(10000));
  const auto matches = store.match(at_ms(100));
  // Streams whose boxes intersect [-0.05, 0.05]: x in [-0.06, 0.05].
  EXPECT_GE(matches.size(), 4u);
  EXPECT_LE(matches.size(), 7u);
  for (const auto& m : matches) {
    EXPECT_LE(m.bound_distance, 0.05);
  }
}

/// Reference model of the MBR side: a std::map keyed by (stream, batch_seq)
/// holding the live entries, with the add order standing in for slab order.
struct MbrModel {
  struct Entry {
    IndexStore::StoredMbr stored;
    std::uint64_t order = 0;
  };
  std::map<std::pair<StreamId, std::uint64_t>, Entry> live;
  sim::SimTime horizon;
  std::uint64_t adds = 0;

  bool add(const IndexStore::StoredMbr& e) {
    if (e.expires <= horizon) {
      return false;
    }
    const auto key = std::make_pair(e.stream, e.batch_seq);
    if (live.contains(key)) {
      return false;
    }
    live[key] = Entry{e, adds++};
    return true;
  }
  void expire(sim::SimTime now) {
    horizon = std::max(horizon, now);
    std::erase_if(live, [&](const auto& kv) {
      return kv.second.stored.expires <= horizon;
    });
  }
  std::vector<IndexStore::StoredMbr> snapshot() const {
    std::vector<const Entry*> order;
    for (const auto& [key, entry] : live) {
      order.push_back(&entry);
    }
    std::sort(order.begin(), order.end(),
              [](const Entry* a, const Entry* b) { return a->order < b->order; });
    std::vector<IndexStore::StoredMbr> out;
    for (const Entry* entry : order) {
      out.push_back(entry->stored);
    }
    return out;
  }
};

void expect_same_entry(const IndexStore::StoredMbr& got,
                       const IndexStore::StoredMbr& want) {
  EXPECT_EQ(got.stream, want.stream);
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.batch_seq, want.batch_seq);
  EXPECT_EQ(got.stored_at, want.stored_at);
  EXPECT_EQ(got.expires, want.expires);
  EXPECT_TRUE(got.mbr == want.mbr);  // bounds compared exactly
}

TEST(IndexStore, DedupIndexMatchesReferenceModel) {
  // A small key space forces duplicate live adds and supersede-after-lapse;
  // a growing stream range keeps the dedup index growing, and lifespans
  // short against the run compact the slab many times over.
  common::Pcg32 rng(2024, 5);
  IndexStore store;
  MbrModel model;
  std::int64_t clock_ms = 0;
  for (int step = 0; step < 20'000; ++step) {
    clock_ms += rng.uniform_int(0, 3);
    const StreamId stream_range = 8 + static_cast<StreamId>(step / 40);
    const auto stream =
        static_cast<StreamId>(rng.uniform_int(0, static_cast<std::int64_t>(
                                                     stream_range)));
    const auto seq = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
    if (rng.uniform01() < 0.05) {
      const sim::SimTime now = at_ms(clock_ms);
      store.expire(now);
      model.expire(now);
    }
    std::vector<double> low(4);
    std::vector<double> high(4);
    for (std::size_t d = 0; d < low.size(); ++d) {
      low[d] = rng.uniform(-1.0, 1.0);
      high[d] = low[d] + rng.uniform(0.0, 0.1);
    }
    // Some entries arrive already past the horizon.
    const std::int64_t life_ms = rng.uniform_int(-20, 400);
    const IndexStore::StoredMbr entry{
        stream,
        static_cast<NodeIndex>(rng.uniform_int(0, 9)),
        dsp::Mbr(std::move(low), std::move(high)),
        seq,
        at_ms(clock_ms),
        at_ms(clock_ms + life_ms)};
    ASSERT_EQ(store.add_mbr(entry.stream, entry.source, entry.mbr,
                            entry.batch_seq, entry.stored_at, entry.expires),
              model.add(entry))
        << "step " << step;

    const auto probe_stream = static_cast<StreamId>(
        rng.uniform_int(0, static_cast<std::int64_t>(stream_range) + 2));
    const auto probe_seq = static_cast<std::uint64_t>(rng.uniform_int(0, 4));
    const auto it = model.live.find({probe_stream, probe_seq});
    const bool present = it != model.live.end();
    ASSERT_EQ(store.contains_mbr(probe_stream, probe_seq), present)
        << "step " << step;
    const auto found = store.find_mbr(probe_stream, probe_seq);
    ASSERT_EQ(found.has_value(), present) << "step " << step;
    if (present) {
      expect_same_entry(*found, it->second.stored);
    }

    if (step % 500 == 0) {
      const auto got = store.mbrs();
      const auto want = model.snapshot();
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      ASSERT_EQ(store.mbr_count(), want.size()) << "step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_entry(got[i], want[i]);
      }
    }
  }
}

TEST(IndexStoreDeathTest, MbrOfAnotherDimensionIsRejected) {
  IndexStore store;
  ASSERT_TRUE(store.add_mbr(1, 0, dsp::Mbr({0.0, 0.0, 0.0, 0.0},
                                           {0.1, 0.1, 0.1, 0.1}),
                            0, at_ms(0), at_ms(1000)));
  EXPECT_DEATH(store.add_mbr(2, 0, dsp::Mbr({0.0, 0.0}, {0.1, 0.1}), 0,
                             at_ms(0), at_ms(1000)),
               "dims_");
}

}  // namespace
}  // namespace sdsi::core
