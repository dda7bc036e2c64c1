// The system-level completeness property the whole design hangs on
// (Sec IV-E): "a super-set of the actual node set — with false positives,
// but WITHOUT false dismissals".
//
// Under arbitrary random-walk dynamics we cannot predict which streams
// *should* match a query at any instant, but a sufficient condition is
// checkable: if every feature vector a stream ever emitted stayed inside
// the query ball (with slack), then a continuous query with enough runtime
// MUST report that stream. We shadow the feature pipeline outside the
// system (same inputs -> same features, verified by the summarizer tests)
// and assert the implication over many random seeds. Besides the random
// queries, every seed plants one query whose ball is drawn around a batch
// the stream emits later, so each seed carries at least one obligation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "routing/static_ring.hpp"
#include "streams/generators.hpp"
#include "streams/summarizer.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;
constexpr std::size_t kNodes = 8;
constexpr std::size_t kStreams = 6;

MiddlewareConfig config() {
  MiddlewareConfig cfg;
  cfg.features.window_size = kWindow;
  cfg.features.num_coefficients = 2;
  cfg.batching.batch_size = 3;
  cfg.mbr_lifespan = sim::Duration::seconds(8);
  cfg.notify_period = sim::Duration::millis(500);
  return cfg;
}

class NoFalseDismissal : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NoFalseDismissal, EveryAlwaysInsideStreamIsReported) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim;
  routing::StaticRing ring(
      sim, common::IdSpace(24),
      routing::hash_node_ids(kNodes, common::IdSpace(24), seed));
  MiddlewareSystem system(ring, config());
  system.start();

  constexpr std::size_t kSteps = 200;
  const std::size_t beta = config().batching.batch_size;
  common::RngFactory rng_factory(seed);
  // Our ground-truth mirror, computed up front: every value each walk
  // posts, every feature vector its stream emits, and how many it has
  // emitted once each step's value is in.
  std::vector<std::vector<Sample>> values(kStreams);
  std::vector<std::vector<dsp::FeatureVector>> emitted(kStreams);
  std::vector<std::vector<std::size_t>> emitted_by(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    system.register_stream(static_cast<NodeIndex>(s % kNodes), 100 + s);
    streams::RandomWalkGenerator walk(rng_factory.make("walk", s));
    streams::StreamSummarizer shadow(config().features);
    for (std::size_t step = 0; step < kSteps; ++step) {
      values[s].push_back(walk.next());
      shadow.push(values[s].back());
      if (const auto fv = shadow.features()) {
        emitted[s].push_back(*fv);
      }
      emitted_by[s].push_back(emitted[s].size());
    }
  }

  struct PostedQuery {
    QueryId id;
    dsp::FeatureVector center;
    double radius;
    std::size_t posted_at_step;
  };
  std::vector<PostedQuery> queries;
  common::Pcg32 query_rng = rng_factory.make("queries");

  for (std::size_t step = 0; step < kSteps; ++step) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      system.post_stream_value(static_cast<NodeIndex>(s % kNodes), 100 + s,
                               values[s][step]);
    }
    // Pose a few queries early, centered on live stream states so the
    // always-inside condition is sometimes satisfiable.
    if (step == 40 || step == 50) {
      const std::size_t target = query_rng.bounded(kStreams);
      if (const std::size_t count = emitted_by[target][step]; count > 0) {
        const dsp::FeatureVector& center = emitted[target][count - 1];
        const double radius = query_rng.uniform(0.3, 0.6);
        const QueryId id = system.subscribe_similarity(
            static_cast<NodeIndex>(query_rng.bounded(kNodes)), center, radius,
            sim::Duration::seconds(600));
        queries.push_back(PostedQuery{id, center, radius, count});
      }
    }
    // The planted query: a ball drawn just around the first batch the
    // target stream closes after the query is posted (center at the box
    // midpoint, radius past the half-diagonal), so that batch is an
    // in-ball obligation by construction.
    if (step == 60) {
      const std::size_t target = seed % kStreams;
      const std::size_t posted = emitted_by[target][step];
      const std::size_t first = (posted + beta - 1) / beta * beta;
      ASSERT_LE(first + beta, emitted[target].size());
      const dsp::Mbr box = dsp::bounding_box(
          std::span<const dsp::FeatureVector>(emitted[target])
              .subspan(first, beta));
      std::vector<dsp::Complex> middle(box.dimensions() / 2);
      double half_diagonal = 0.0;
      for (std::size_t d = 0; d < box.dimensions(); ++d) {
        const double half_side = (box.high()[d] - box.low()[d]) / 2.0;
        half_diagonal += half_side * half_side;
      }
      for (std::size_t i = 0; i < middle.size(); ++i) {
        middle[i] = dsp::Complex{(box.low()[2 * i] + box.high()[2 * i]) / 2.0,
                                 (box.low()[2 * i + 1] + box.high()[2 * i + 1]) /
                                     2.0};
      }
      const dsp::FeatureVector center(std::move(middle));
      const double radius = std::sqrt(half_diagonal) / 0.99 + 0.01;
      const QueryId id = system.subscribe_similarity(
          static_cast<NodeIndex>(seed % kNodes), center, radius,
          sim::Duration::seconds(600));
      queries.push_back(PostedQuery{id, center, radius, posted});
    }
    sim.run_until(sim.now() + sim::Duration::millis(100));
  }
  // Generous run-out: every periodic stage (match, relay across the range,
  // aggregate, push) gets many cycles.
  sim.run_until(sim.now() + sim::Duration::seconds(15));

  ASSERT_FALSE(queries.empty());
  // The routed storage unit is one MBR = the bounding box of batch_size
  // consecutive feature vectors (aligned to the stream's emission order).
  // Obligation: if any fully-post-query batch's box sits strictly inside
  // the query ball, that MBR was stored only on nodes whose arcs lie inside
  // the query's key range — nodes that all hold the subscription — so the
  // stream MUST eventually be reported.
  auto box_inside_ball = [](const dsp::Mbr& box,
                            const dsp::FeatureVector& center, double radius) {
    const auto reals = center.as_reals();
    double worst = 0.0;
    for (std::size_t d = 0; d < reals.size(); ++d) {
      const double lo_gap = std::abs(reals[d] - box.low()[d]);
      const double hi_gap = std::abs(reals[d] - box.high()[d]);
      const double gap = std::max(lo_gap, hi_gap);
      worst += gap * gap;
    }
    return std::sqrt(worst) <= radius * 0.999;
  };

  int obligations = 0;
  for (const PostedQuery& query : queries) {
    const ClientQueryRecord* record = system.client_record(query.id);
    ASSERT_NE(record, nullptr);
    for (std::size_t s = 0; s < kStreams; ++s) {
      bool must_match = false;
      for (std::size_t batch = 0;
           (batch + 1) * beta <= emitted[s].size() && !must_match; ++batch) {
        if (batch * beta < query.posted_at_step) {
          continue;  // batch overlaps the pre-query era: no obligation
        }
        const dsp::Mbr box = dsp::bounding_box(
            std::span<const dsp::FeatureVector>(emitted[s])
                .subspan(batch * beta, beta));
        must_match = box_inside_ball(box, query.center, query.radius);
      }
      if (must_match) {
        ++obligations;
        EXPECT_TRUE(record->matched_streams.contains(100 + s))
            << "FALSE DISMISSAL: seed=" << seed << " query=" << query.id
            << " stream=" << 100 + s;
      }
    }
  }
  // The planted query alone guarantees one; a seed without any would pass
  // vacuously.
  EXPECT_GT(obligations, 0) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoFalseDismissal,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace sdsi::core
