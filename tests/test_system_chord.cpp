// Middleware-over-Chord integration: the same end-to-end guarantees as the
// StaticRing suite, but across real multi-hop overlay routing — plus churn
// scenarios where data centers crash and join mid-stream.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "chord/network.hpp"
#include "core/system.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;

MiddlewareConfig small_config() {
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 3;
  config.mbr_lifespan = sim::Duration::seconds(30);
  config.notify_period = sim::Duration::millis(500);
  return config;
}

struct Harness {
  sim::Simulator sim;
  chord::ChordNetwork net;
  MiddlewareSystem system;

  explicit Harness(std::size_t nodes, std::uint64_t id_salt = 99)
      : net(sim,
            [] {
              chord::ChordConfig config;
              config.id_bits = 32;
              config.successor_list_length = 4;
              return config;
            }()),
        system((net.bootstrap(
                    routing::hash_node_ids(nodes, common::IdSpace(32),
                                           id_salt)),
                net),
               small_config()) {
    system.start();
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + sim::Duration::seconds(seconds));
  }

  void feed_exponential(NodeIndex node, StreamId stream, double gamma,
                        int samples) {
    double value = 1.0;
    for (int i = 0; i < samples; ++i) {
      value *= gamma;
      system.post_stream_value(node, stream, value);
    }
  }

  dsp::FeatureVector exponential_features(double gamma) const {
    std::vector<Sample> window(kWindow);
    double value = 1.0;
    for (Sample& x : window) {
      value *= gamma;
      x = value;
    }
    return dsp::extract_features(window, small_config().features);
  }
};

TEST(ChordMiddleware, SimilarityGroundTruthOverMultiHopRouting) {
  Harness h(12);
  const double gammas[6] = {1.02, 1.06, 1.10, 1.14, 1.22, 1.30};
  for (NodeIndex i = 0; i < 6; ++i) {
    h.system.register_stream(i, 600 + i);
    h.feed_exponential(i, 600 + i, gammas[i], 50);
  }
  h.run_for(3.0);

  const dsp::FeatureVector probe = h.exponential_features(1.12);
  const double radius = 0.12;
  std::unordered_set<StreamId> expected;
  for (NodeIndex i = 0; i < 6; ++i) {
    if (h.exponential_features(gammas[i]).distance(probe) <= radius) {
      expected.insert(600 + i);
    }
  }
  ASSERT_FALSE(expected.empty());

  const QueryId id = h.system.subscribe_similarity(
      9, probe, radius, sim::Duration::seconds(60));
  h.run_for(8.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_EQ(record->matched_streams, expected);
  EXPECT_GT(record->responses_received, 0u);
}

TEST(ChordMiddleware, InnerProductAcrossTheOverlay) {
  Harness h(10);
  h.system.register_stream(3, 700);
  h.feed_exponential(3, 700, 1.05, 40);
  const QueryId id = h.system.subscribe_latest_value(
      8, 700, sim::Duration::seconds(20));
  h.run_for(5.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_GT(record->inner_updates, 0u);
  // Last value: 1.05^40 ~ 7.04; the synopsis reconstruction is approximate.
  EXPECT_NEAR(record->last_inner_value, std::pow(1.05, 40), 1.5);
}

TEST(ChordMiddleware, ResponsesTraverseMultipleHops) {
  Harness h(16);
  h.system.register_stream(0, 800);
  h.feed_exponential(0, 800, 1.1, 50);
  (void)h.system.subscribe_similarity(
      11, h.exponential_features(1.1), 0.1, sim::Duration::seconds(30));
  h.run_for(6.0);
  const auto& metrics = h.system.metrics();
  EXPECT_GT(metrics.response().delivered, 0u);
  // With 16 nodes the overlay forces real multi-hop routes somewhere.
  EXPECT_GT(metrics.mbr().hops_routed.mean(), 1.0);
}

TEST(ChordMiddleware, SurvivesCrashOfUninvolvedNode) {
  Harness h(12);
  h.system.register_stream(0, 900);
  h.feed_exponential(0, 900, 1.1, 40);
  const QueryId id = h.system.subscribe_similarity(
      1, h.exponential_features(1.1), 0.08, sim::Duration::seconds(60));
  h.run_for(3.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  const std::uint64_t responses_before = record->responses_received;
  EXPECT_GT(responses_before, 0u);

  // Crash a node that is neither source, client, nor (usually) the home of
  // the summaries, then repair and continue streaming.
  h.net.crash(7);
  h.net.run_maintenance_rounds(4);
  h.feed_exponential(0, 900, 1.1, 20);
  h.run_for(4.0);
  EXPECT_GT(record->responses_received, responses_before);
}

TEST(ChordMiddleware, JoinedNodeServesNewStreams) {
  Harness h(8);
  h.system.register_stream(0, 910);
  h.feed_exponential(0, 910, 1.1, 40);
  h.run_for(2.0);

  const NodeIndex newcomer = h.net.join(
      h.net.id_space().wrap(0xDEADBEEFCAFEull), /*via=*/0);
  h.net.run_maintenance_rounds(4);
  h.system.attach_node(newcomer);

  h.system.register_stream(newcomer, 911);
  h.feed_exponential(newcomer, 911, 1.1, 40);
  const QueryId id = h.system.subscribe_similarity(
      2, h.exponential_features(1.1), 0.08, sim::Duration::seconds(30));
  h.run_for(5.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_TRUE(record->matched_streams.contains(910));
  EXPECT_TRUE(record->matched_streams.contains(911));
}

TEST(ChordMiddleware, DeterministicAcrossRuns) {
  auto run = [] {
    Harness h(10);
    for (NodeIndex i = 0; i < 5; ++i) {
      h.system.register_stream(i, 920 + i);
      h.feed_exponential(i, 920 + i, 1.03 + 0.04 * i, 40);
    }
    (void)h.system.subscribe_similarity(7, h.exponential_features(1.08), 0.1,
                                        sim::Duration::seconds(30));
    h.run_for(6.0);
    return h.sim.executed_events();
  };
  EXPECT_EQ(run(), run());
}

/// What the transmit filter saw on the wire.
struct RelayLog {
  std::uint64_t up_reports = 0;
  std::uint64_t down_reports = 0;
  std::uint64_t wrong_way = 0;
  std::uint64_t stale = 0;
  std::uint64_t off_ring = 0;  // digests to neither ring neighbor
};

// Neighbor-digest relay (Sec IV-F): every digest on the wire is decoded.
// Each report must travel the shorter way round to its middle key, no
// digest may carry a report of a lapsed query, and every pair a range node
// reports must reach the aggregator.
TEST(ChordMiddleware, DigestRelayGoesTheShorterWayAndReachesTheAggregator) {
  // This placement puts reports on both sides of several middle nodes.
  Harness h(16, /*id_salt=*/31);
  routing::RoutingSystem& routing = h.system.routing();
  const common::IdSpace& space = routing.id_space();

  RelayLog log;
  routing.set_transmit_filter([&](routing::Message& msg) {
    if (msg.kind != routing::MsgKind::kNeighborExchange) {
      return;
    }
    const auto& digest = routing::payload_of<NeighborDigestPayload>(msg);
    const NodeIndex self = msg.origin;
    const Key self_id = routing.node_id(self);
    const bool up =
        msg.target_key == routing.node_id(routing.successor_index(self));
    if (!up &&
        msg.target_key != routing.node_id(routing.predecessor_index(self))) {
      ++log.off_ring;
    }
    const sim::SimTime now = h.sim.now();
    for (const MatchReport& report : digest->reports) {
      if (report.query_expires <= now) {
        ++log.stale;
      }
      const bool shorter_up = space.distance(self_id, report.middle_key) <=
                              space.distance(report.middle_key, self_id);
      if (shorter_up != up) {
        ++log.wrong_way;
      }
      ++(up ? log.up_reports : log.down_reports);
    }
  });

  const double gammas[8] = {1.02, 1.05, 1.08, 1.11, 1.15, 1.20, 1.26, 1.33};
  for (NodeIndex i = 0; i < 8; ++i) {
    h.system.register_stream(i, 500 + i);
    h.feed_exponential(i, 500 + i, gammas[i], 60);
  }
  // Long-lived queries, whose every report must reach its aggregator, and
  // short-lived ones that lapse while their reports may still be buffered.
  std::set<QueryId> lasting;
  const double probes[5] = {1.03, 1.09, 1.14, 1.22, 1.30};
  for (int i = 0; i < 5; ++i) {
    lasting.insert(h.system.subscribe_similarity(
        static_cast<NodeIndex>(8 + i), h.exponential_features(probes[i]),
        /*radius=*/0.3, sim::Duration::seconds(60)));
    (void)h.system.subscribe_similarity(
        static_cast<NodeIndex>(15 - i), h.exponential_features(probes[i]),
        /*radius=*/0.3, sim::Duration::millis(1200 + 300 * i));
  }
  h.run_for(6.0);

  // Every (query, stream) pair a range node has reported so far, by the
  // node covering the query's middle key.
  std::map<NodeIndex, std::set<std::pair<QueryId, StreamId>>> reported;
  std::size_t remote = 0;
  for (NodeIndex n = 0; n < 16; ++n) {
    for (const auto& [id, sub] : h.system.node(n).store.subscriptions()) {
      if (!lasting.contains(id)) {
        continue;
      }
      const NodeIndex aggregator =
          routing.find_successor_oracle(sub.middle_key);
      for (const StreamId stream : sub.reported) {
        reported[aggregator].emplace(id, stream);
        remote += aggregator != n ? 1 : 0;
      }
    }
  }
  // Enough ticks for the longest relay (half the ring, one hop a tick).
  h.run_for(6.0);

  ASSERT_GT(remote, 0u) << "no report had to travel";
  EXPECT_GT(log.up_reports, 0u);
  EXPECT_GT(log.down_reports, 0u);
  EXPECT_EQ(log.wrong_way, 0u);
  EXPECT_EQ(log.stale, 0u);
  EXPECT_EQ(log.off_ring, 0u);
  for (const auto& [aggregator, pairs] : reported) {
    const auto& aggregations = h.system.node(aggregator).aggregations;
    for (const auto& [query, stream] : pairs) {
      const auto it = aggregations.find(query);
      ASSERT_NE(it, aggregations.end())
          << "query " << query << " at node " << aggregator;
      EXPECT_TRUE(it->second.seen.contains(stream))
          << "query " << query << " stream " << stream;
    }
  }
}

}  // namespace
}  // namespace sdsi::core
