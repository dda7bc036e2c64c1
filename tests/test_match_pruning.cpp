// The key-interval pruned, incremental matching engine must return exactly
// the brute-force match set — the Sec IV-E no-false-dismissal property has
// to survive the optimization, and neither interval pruning nor scoring
// settled subscriptions against new MBRs only may add false misses or false
// hits on top of the MBR lower bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/index_store.hpp"
#include "core/worker_pool.hpp"

namespace sdsi::core {
namespace {

sim::SimTime at_ms(std::int64_t ms) {
  return sim::SimTime::zero() + sim::Duration::millis(ms);
}

using MatchSet = std::vector<std::pair<QueryId, StreamId>>;

MatchSet to_set(const std::vector<SimilarityMatch>& matches) {
  MatchSet out;
  out.reserve(matches.size());
  for (const SimilarityMatch& m : matches) {
    out.emplace_back(m.query, m.stream);
  }
  std::sort(out.begin(), out.end());
  return out;
}

dsp::Mbr random_box(common::Pcg32& rng, std::size_t dims) {
  std::vector<double> low(dims);
  std::vector<double> high(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    low[d] = rng.uniform(-1.0, 0.95);
    high[d] = low[d] + rng.uniform(0.0, 0.2);
  }
  return dsp::Mbr(std::move(low), std::move(high));
}

/// Stores a one-batch stream's box (batch_seq 0) in every store of `stores`.
void add_box(std::initializer_list<IndexStore*> stores, StreamId stream,
             const dsp::Mbr& box, sim::SimTime expires) {
  for (IndexStore* store : stores) {
    store->add_mbr(stream, /*source=*/0, box, /*batch_seq=*/0,
                   sim::SimTime::zero(), expires);
  }
}

std::shared_ptr<const SimilarityQuery> random_query(common::Pcg32& rng,
                                                    QueryId id,
                                                    std::size_t dims) {
  std::vector<dsp::Complex> coeffs(dims / 2);
  for (dsp::Complex& c : coeffs) {
    c = dsp::Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }
  SimilarityQuery query;
  query.id = id;
  query.features = dsp::FeatureVector(std::move(coeffs));
  query.radius = rng.uniform(0.01, 0.3);
  return std::make_shared<const SimilarityQuery>(std::move(query));
}

TEST(MatchPruning, EquivalentToBruteForceRandomized) {
  // >1k random MBR/subscription mixes across trials and rounds, with
  // incremental adds, lifespan churn, and repeated matching passes (the
  // per-node dedup state evolves identically in both engines).
  common::Pcg32 rng(2024, 7);
  std::size_t total_mbrs = 0;
  std::size_t total_subs = 0;
  std::size_t total_matches = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dims = (trial % 2 == 0) ? 2 : 4;
    IndexStore pruned;
    IndexStore brute;
    std::int64_t now_ms = 0;
    StreamId next_stream = 1;
    QueryId next_query = 1;
    for (int round = 0; round < 5; ++round) {
      const int mbr_batch = static_cast<int>(rng.bounded(40)) + 5;
      for (int i = 0; i < mbr_batch; ++i) {
        const auto expires =
            at_ms(now_ms + 1 + static_cast<std::int64_t>(rng.bounded(4000)));
        const dsp::Mbr box = random_box(rng, dims);
        add_box({&pruned, &brute}, next_stream++, box, expires);
        ++total_mbrs;
      }
      const int sub_batch = static_cast<int>(rng.bounded(8)) + 2;
      for (int i = 0; i < sub_batch; ++i) {
        const auto query = random_query(rng, next_query++, dims);
        const auto expires =
            at_ms(now_ms + 1 + static_cast<std::int64_t>(rng.bounded(6000)));
        pruned.add_subscription(query, 0, expires);
        brute.add_subscription(query, 0, expires);
        ++total_subs;
      }
      now_ms += static_cast<std::int64_t>(rng.bounded(1500));
      const auto now = at_ms(now_ms);
      const MatchSet from_pruned = to_set(pruned.match(now));
      const MatchSet from_brute = to_set(brute.match_brute_force(now));
      ASSERT_EQ(from_pruned, from_brute)
          << "trial " << trial << " round " << round << " at " << now_ms
          << "ms";
      total_matches += from_pruned.size();
    }
  }
  EXPECT_GE(total_mbrs + total_subs, 1000u);
  EXPECT_GT(total_matches, 0u);  // the workload must actually exercise hits
}

TEST(MatchPruning, BoundaryOverlapStillMatches) {
  // bound == radius is a match (<=, not <); the interval prune must keep
  // the exact-boundary candidate.
  IndexStore store;
  add_box({&store}, 7, dsp::Mbr({0.60, 0.0}, {0.70, 0.0}), at_ms(10000));
  SimilarityQuery query;
  query.id = 1;
  query.features = dsp::FeatureVector({dsp::Complex{0.50, 0.0}});
  query.radius = 0.1;
  store.add_subscription(
      std::make_shared<const SimilarityQuery>(std::move(query)), 0,
      at_ms(10000));
  const auto matches = store.match(at_ms(1));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_NEAR(matches[0].bound_distance, 0.1, 1e-12);
}

TEST(MatchPruning, WideBoxAmongNarrowOnesIsFound) {
  // The scan window is widened by the largest indexed extent; one wide box
  // among many narrow ones must still be reachable from a far-away query.
  common::Pcg32 rng(5, 5);
  IndexStore store;
  for (StreamId s = 1; s <= 200; ++s) {
    const double lo = rng.uniform(-1.0, -0.2);
    add_box({&store}, s, dsp::Mbr({lo, 0.0}, {lo + 0.02, 0.0}), at_ms(10000));
  }
  add_box({&store}, 999, dsp::Mbr({-0.9, 0.0}, {0.9, 0.0}), at_ms(10000));

  SimilarityQuery query;
  query.id = 1;
  query.features = dsp::FeatureVector({dsp::Complex{0.905, 0.0}});
  query.radius = 0.01;
  store.add_subscription(
      std::make_shared<const SimilarityQuery>(std::move(query)), 0,
      at_ms(10000));
  const auto matches = store.match(at_ms(1));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].stream, 999u);
}

TEST(MatchPruning, EquivalenceAcrossCompaction) {
  // Compaction (triggered by heavy expiry churn) must not change results.
  common::Pcg32 rng(11, 3);
  IndexStore pruned;
  IndexStore brute;
  for (int wave = 0; wave < 4; ++wave) {
    const std::int64_t base = wave * 1000;
    for (int i = 0; i < 150; ++i) {
      const auto expires =
          at_ms(base + 500 + static_cast<std::int64_t>(rng.bounded(400)));
      const dsp::Mbr box = random_box(rng, 2);
      add_box({&pruned, &brute}, static_cast<StreamId>(wave * 1000 + i), box,
              expires);
    }
    const auto query = random_query(rng, static_cast<QueryId>(wave) + 1, 2);
    pruned.add_subscription(query, 0, at_ms(base + 2000));
    brute.add_subscription(query, 0, at_ms(base + 2000));
    const auto now = at_ms(base + 600);
    ASSERT_EQ(to_set(pruned.match(now)), to_set(brute.match_brute_force(now)))
        << "wave " << wave;
    // Everything from this wave dies before the next one arrives.
  }
  pruned.expire(at_ms(10000));
  EXPECT_EQ(pruned.mbr_count(), 0u);
}

/// Feeds four stores the identical delivery sequence and compares every
/// match pass: the serial incremental pass against the brute-force rescan
/// (same (query, stream) set), and the 2- and 8-lane sharded passes against
/// the serial one (same vector, same work figure).
class MultiPassHarness {
 public:
  explicit MultiPassHarness(sim::SimTime first) : now_(first) {}

  sim::SimTime now() const noexcept { return now_; }
  void advance(sim::Duration by) { now_ = now_ + by; }
  IndexStore& serial() noexcept { return serial_; }

  /// Returns whether the serial store accepted the delivery.
  bool deliver(StreamId stream, std::uint64_t seq, const dsp::Mbr& box,
               sim::SimTime expires) {
    const bool added = serial_.add_mbr(stream, 0, box, seq, now_, expires);
    for (IndexStore* store : {&lanes2_, &lanes8_, &brute_}) {
      EXPECT_EQ(store->add_mbr(stream, 0, box, seq, now_, expires), added);
    }
    return added;
  }

  void subscribe(const std::shared_ptr<const SimilarityQuery>& query,
                 sim::SimTime expires) {
    for (IndexStore* store : {&serial_, &lanes2_, &lanes8_, &brute_}) {
      store->add_subscription(query, 0, expires);
    }
  }

  /// Explicit expiry sweep on every store (may compact the slabs).
  void expire() {
    for (IndexStore* store : {&serial_, &lanes2_, &lanes8_, &brute_}) {
      store->expire(now_);
    }
  }

  /// One pass on every store; returns the serial pass's matches.
  std::vector<SimilarityMatch> pass() {
    const auto serial = serial_.match(now_);
    const auto lanes2 = lanes2_.match(now_, &pool2_);
    const auto lanes8 = lanes8_.match(now_, &pool8_);
    brute_.expire(now_);  // the oracle drops lapsed state like match() does
    EXPECT_EQ(to_set(serial), to_set(brute_.match_brute_force(now_)));
    expect_identical(serial, lanes2);
    expect_identical(serial, lanes8);
    EXPECT_EQ(serial_.last_match_work(), lanes2_.last_match_work());
    EXPECT_EQ(serial_.last_match_work(), lanes8_.last_match_work());
    return serial;
  }

 private:
  static void expect_identical(const std::vector<SimilarityMatch>& a,
                               const std::vector<SimilarityMatch>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].query, b[i].query) << "#" << i;
      EXPECT_EQ(a[i].stream, b[i].stream) << "#" << i;
      EXPECT_EQ(a[i].bound_distance, b[i].bound_distance) << "#" << i;
    }
  }

  sim::SimTime now_;
  WorkerPool pool2_{2};
  WorkerPool pool8_{8};
  IndexStore serial_;
  IndexStore lanes2_;
  IndexStore lanes8_;
  IndexStore brute_;
};

TEST(MatchPruning, IncrementalPassesEqualBruteForceRescan) {
  // Settled subscriptions are scored only against MBRs stored since their
  // previous pass. Exercise what that shortcut must survive: few streams
  // with many batches each (per-stream dedup across passes), duplicate and
  // superseding deliveries, subscription refresh and re-add after expiry,
  // and a compaction that runs while entries stored after a pass are still
  // unindexed.
  constexpr std::size_t kStreams = 5;
  std::size_t total_matches = 0;
  std::size_t duplicates = 0;
  std::size_t refreshes = 0;
  std::size_t readds = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    common::Pcg32 rng(seed, 41);
    const std::size_t dims = seed % 2 == 0 ? 2 : 4;
    MultiPassHarness harness(at_ms(0));
    struct Batch {
      StreamId stream;
      std::uint64_t seq;
      dsp::Mbr box;
      sim::SimTime expires;
    };
    std::vector<Batch> published;
    std::vector<std::uint64_t> next_seq(kStreams, 0);
    std::vector<std::shared_ptr<const SimilarityQuery>> queries;
    const auto later = [&](std::uint32_t min_ms, std::uint32_t spread_ms) {
      return harness.now() +
             sim::Duration::millis(min_ms + rng.bounded(spread_ms));
    };
    for (int round = 0; round < 40; ++round) {
      const std::uint32_t fresh = 2 + rng.bounded(6);
      for (std::uint32_t i = 0; i < fresh; ++i) {
        const auto stream = static_cast<StreamId>(rng.bounded(kStreams));
        const auto expires = later(200, 3000);
        published.push_back(
            Batch{stream, next_seq[stream]++, random_box(rng, dims), expires});
        harness.deliver(stream, published.back().seq, published.back().box,
                        expires);
      }
      // Redeliveries: the original payload (idempotent) or, now and then, a
      // copy with a later lifespan (supersedes the batch once it lapsed).
      const std::uint32_t redeliveries = rng.bounded(4);
      for (std::uint32_t i = 0; i < redeliveries; ++i) {
        const Batch& batch = published[rng.bounded(
            static_cast<std::uint32_t>(published.size()))];
        const auto expires =
            rng.bounded(3) == 0 ? later(300, 2000) : batch.expires;
        if (!harness.deliver(batch.stream, batch.seq, batch.box, expires)) {
          ++duplicates;
        }
      }
      if (round % 4 == 0 || queries.size() < 4) {
        auto query = random_query(
            rng, static_cast<QueryId>(queries.size()) + 1, dims);
        harness.subscribe(query, later(300, 3000));
        queries.push_back(std::move(query));
      }
      // Re-subscriptions: a refresh while the subscription lives, a fresh
      // subscription (empty reported set) once it expired.
      const std::uint32_t resubs = rng.bounded(3);
      for (std::uint32_t i = 0; i < resubs; ++i) {
        const auto& query = queries[rng.bounded(
            static_cast<std::uint32_t>(queries.size()))];
        if (harness.serial().find_subscription(query->id) != nullptr) {
          ++refreshes;
        } else {
          ++readds;
        }
        harness.subscribe(query, later(300, 3000));
      }
      harness.advance(sim::Duration::millis(50 + rng.bounded(400)));
      total_matches += harness.pass().size();
    }

    // Compaction with unindexed entries: a settled catch-all subscription,
    // a pass over 100 batches (70 short-lived), 10 batches of new streams
    // stored after it, then an expiry sweep that leaves 70 of 110 slots
    // dead — past the compaction threshold (> 64 and > half) — while 30
    // survivors sit below the settled boundary.
    SimilarityQuery catch_all;
    catch_all.id = 1000;
    catch_all.features = dsp::FeatureVector(
        std::vector<dsp::Complex>(dims / 2, dsp::Complex{0.0, 0.0}));
    catch_all.radius = 4.0;
    harness.subscribe(std::make_shared<const SimilarityQuery>(catch_all),
                      harness.now() + sim::Duration::seconds(60));
    const sim::SimTime short_life = harness.now() + sim::Duration::seconds(5);
    harness.advance(sim::Duration::seconds(4));  // everything older lapses
    for (StreamId s = 0; s < 100; ++s) {
      harness.deliver(100 + s, 0, random_box(rng, dims),
                      s % 10 < 7 ? short_life
                                 : harness.now() + sim::Duration::seconds(30));
    }
    total_matches += harness.pass().size();
    for (StreamId s = 0; s < 10; ++s) {
      harness.deliver(200 + s, 0, random_box(rng, dims),
                      harness.now() + sim::Duration::seconds(30));
    }
    harness.advance(sim::Duration::seconds(2));
    harness.expire();
    EXPECT_EQ(harness.serial().mbr_count(), 40u);
    std::size_t caught = 0;
    for (const SimilarityMatch& match : harness.pass()) {
      caught += match.query == catch_all.id ? 1 : 0;
    }
    EXPECT_EQ(caught, 10u);  // every batch stored after the settled pass
    // A batch arriving after the compaction is still seen exactly once.
    harness.deliver(300, 0, random_box(rng, dims),
                    harness.now() + sim::Duration::seconds(30));
    harness.advance(sim::Duration::millis(100));
    const auto late = harness.pass();
    ASSERT_EQ(late.size(), 1u);
    EXPECT_EQ(late[0].stream, 300u);
  }
  EXPECT_GT(total_matches, 100u);
  EXPECT_GT(duplicates, 10u);
  EXPECT_GT(refreshes, 10u);
  EXPECT_GT(readds, 10u);
}

}  // namespace
}  // namespace sdsi::core
