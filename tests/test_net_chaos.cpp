// In-process chaos gate for the NetNode reliability stack: the full N-node
// NetNode pipeline (the one sdsi_node runs over TCP) driven over
// FaultyTransport-wrapped SimTransports — seeded bursty loss, jitter,
// reorder and corruption — with heartbeats, acked publications, refresh,
// replication and anti-entropy switched on. Deterministic end to end (sim
// scheduler + fake wall clock + seeded fault streams), so the recall and
// accounting assertions are exact reruns of the same execution.
//
// The socket-world counterpart (real processes, SIGKILL drill) is
// tools/net_equiv --chaos, gated by the net-chaos-smoke ctest entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/strategy.hpp"
#include "fault/model.hpp"
#include "net/equivalence.hpp"
#include "net/faulty_transport.hpp"
#include "net/node.hpp"
#include "net/sim_transport.hpp"
#include "net/workload.hpp"
#include "routing/static_ring.hpp"
#include "sim/simulator.hpp"

namespace sdsi::net {
namespace {

constexpr sim::Duration kLifespan = sim::Duration::seconds(3600);

/// N NetNodes on one sim fabric, each behind its own seeded fault layer
/// sharing one fake wall clock (the failure detector's time base).
struct ChaosRig {
  ChaosRig(const WorkloadConfig& workload, const fault::FaultPlan& plan,
           NetReliabilityConfig reliability)
      : config(workload),
        space(workload.id_bits),
        ring(space,
             routing::hash_node_ids(workload.nodes, space,
                                    workload.ring_salt)),
        fabric(simulator, sim::Duration::millis(1)) {
    node_config.features = config.features;
    node_config.mbr_lifespan = kLifespan;
    node_config.reliability = reliability;
    node_config.reliability.enabled = true;
    for (NodeIndex i = 0; i < config.nodes; ++i) {
      sims.push_back(std::make_unique<SimTransport>(fabric, i));
      faults.push_back(std::make_unique<FaultyTransport>(
          *sims.back(), plan, space,
          config.seed ^ (0x9e3779b97f4a7c15ull * (i + 1))));
      faults.back()->set_clock([this] { return wall_ms; });
    }
    for (NodeIndex i = 0; i < config.nodes; ++i) {
      nodes.emplace_back();
      restart(i, /*epoch=*/0);
    }
  }

  /// (Re)starts node `i` as a fresh process: empty store, given epoch.
  void restart(NodeIndex i, std::uint64_t epoch) {
    NetNodeConfig restarted = node_config;
    restarted.epoch = epoch;
    auto node = std::make_unique<NetNode>(ring, i, *faults[i], restarted);
    NetNode* raw = node.get();
    sim::Simulator* sim_ptr = &simulator;
    sims[i]->set_deliver([raw, sim_ptr](routing::Message&& msg) {
      raw->deliver(std::move(msg), sim_ptr->now());
    });
    nodes[i] = std::move(node);
  }

  /// Advances wall + sim time together in 10 ms steps, driving every
  /// node's heartbeat/reliability clocks and the fault layers' delay
  /// queues — the in-process analogue of sdsi_node's pump loop.
  void pump(std::int64_t ms) {
    for (std::int64_t t = 0; t < ms; t += 10) {
      wall_ms += 10;
      for (NodeIndex i = 0; i < config.nodes; ++i) {
        faults[i]->poll(0);
        nodes[i]->heartbeat_tick(wall_ms, simulator.now());
        nodes[i]->reliability_tick(wall_ms, simulator.now());
      }
      simulator.run_until(simulator.now() + sim::Duration::millis(10));
    }
  }

  void run_workload() {
    for (const WorkloadQuery& query : workload_queries(config)) {
      nodes[query.client]->subscribe_similarity(
          query.id, dsp::extract_features(query.window, config.features),
          query.radius, kLifespan, simulator.now());
    }
    pump(200);
    for (NodeIndex node = 0; node < config.nodes; ++node) {
      for (std::uint32_t slot = 0; slot < config.streams_per_node; ++slot) {
        const StreamId stream = workload_stream_id(config, node, slot);
        for (const Sample value : workload_samples(config, stream)) {
          nodes[node]->publish_value(stream, value, simulator.now());
        }
      }
      pump(50);  // let each node's burst drain before the next publisher
    }
    // Convergence: refresh (800 ms) and anti-entropy (600 ms) get several
    // rounds; periodic NPER ticks push whatever matched since.
    for (int round = 0; round < 8; ++round) {
      pump(500);
      for (auto& node : nodes) {
        node->tick(simulator.now());
      }
    }
    pump(500);
  }

  MatchDigest digest() const {
    MatchDigest digest;
    for (const auto& node : nodes) {
      for (const auto& [id, streams] : node->results()) {
        digest[id] = streams;
      }
    }
    return digest;
  }

  WorkloadConfig config;
  NetNodeConfig node_config;
  sim::Simulator simulator;
  common::IdSpace space;
  NetRing ring;
  SimFabric fabric;
  std::vector<std::unique_ptr<SimTransport>> sims;
  std::vector<std::unique_ptr<FaultyTransport>> faults;
  std::vector<std::unique_ptr<NetNode>> nodes;
  std::int64_t wall_ms = 0;
};

double recall_against(const MatchDigest& reference, const MatchDigest& got) {
  std::uint64_t expected = 0;
  std::uint64_t recovered = 0;
  for (const auto& [query, streams] : reference) {
    const auto it = got.find(query);
    for (const StreamId stream : streams) {
      ++expected;
      if (it != got.end() && it->second.count(stream) > 0) {
        ++recovered;
      }
    }
  }
  return expected == 0 ? 1.0
                       : static_cast<double>(recovered) /
                             static_cast<double>(expected);
}

TEST(NetChaos, ReliabilityStackConvergesUnderBurstyLossAndCorruption) {
  WorkloadConfig config;
  config.nodes = 8;

  fault::FaultPlan plan;
  fault::GilbertElliottParams ge;
  ge.p_bad_to_good = 0.25;
  ge.p_good_to_bad = 0.1 * ge.p_bad_to_good / 0.9;  // ~10% stationary loss
  plan.burst_loss = ge;
  plan.jitter = fault::LatencyJitter{sim::Duration::millis(5)};
  plan.reorder = 0.02;
  plan.corrupt = 0.003;

  ChaosRig rig(config, plan, NetReliabilityConfig{});
  rig.run_workload();

  const MatchDigest reference = run_sim_reference(config);
  const double recall = recall_against(reference, rig.digest());
  EXPECT_GE(recall, 0.95) << "chaos recall floor (see ISSUE acceptance)";

  // Zero unaccounted drops: everything offered either crossed the fabric,
  // was charged to an injected DropCause, or (transiently) sat delayed —
  // and nothing is still delayed after the final pump.
  std::uint64_t offered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retransmits = 0;
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    EXPECT_EQ(rig.faults[i]->pending_delayed(), 0u);
    const FaultyTransportStats& s = rig.faults[i]->stats();
    offered += s.offered;
    forwarded += s.forwarded;
    dropped += s.dropped();
    retransmits += rig.nodes[i]->counters().mbr_retransmits;
  }
  EXPECT_EQ(offered, forwarded + dropped);
  EXPECT_GT(dropped, 0u) << "the plan should actually have injected loss";
  EXPECT_GT(retransmits, 0u) << "recovery should have done real work";
}

TEST(NetChaos, DelayOnlyChaosCausesFalseSuspicionsButNoDeaths) {
  WorkloadConfig config;
  config.nodes = 4;
  config.samples_per_stream = 200;

  fault::FaultPlan plan;
  plan.jitter = fault::LatencyJitter{sim::Duration::millis(80)};

  // Aggressive suspicion (60 ms < heartbeat period + max jitter) so late
  // heartbeats do trip it; the dead deadline stays far beyond any possible
  // delay-induced silence.
  NetReliabilityConfig reliability;
  reliability.detector.suspect_after_ms = 60;
  reliability.detector.dead_after_ms = 600;

  ChaosRig rig(config, plan, reliability);
  rig.run_workload();

  // Nothing was lost, so the reliable ring must reproduce the reference
  // matched sets exactly.
  EXPECT_EQ(rig.digest(), run_sim_reference(config));

  std::uint64_t suspects = 0;
  std::uint64_t false_suspicions = 0;
  std::uint64_t deaths = 0;
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    const FailureDetector::Counters& c =
        rig.nodes[i]->detector().counters();
    suspects += c.suspects;
    false_suspicions += c.false_suspicions;
    deaths += c.deaths;
    for (NodeIndex peer = 0; peer < config.nodes; ++peer) {
      EXPECT_EQ(rig.nodes[i]->detector().health(peer), PeerHealth::kAlive)
          << "node " << i << " still doubts peer " << peer;
    }
  }
  EXPECT_GT(suspects, 0u) << "jitter should have tripped the suspect timer";
  EXPECT_EQ(deaths, 0u) << "delay alone must never excise a peer";
  EXPECT_EQ(false_suspicions, suspects)
      << "every delay-induced suspicion must have healed";
}


TEST(NetChaos, ReplicaPutCountsEachNewEntryOnce) {
  WorkloadConfig config;
  config.nodes = 4;
  ChaosRig rig(config, fault::FaultPlan{}, NetReliabilityConfig{});
  rig.pump(100);
  const sim::SimTime now = rig.simulator.now();
  const auto query = [&](core::QueryId id) {
    return std::make_shared<const core::SimilarityQuery>(core::SimilarityQuery{
        id, 1, dsp::FeatureVector({dsp::Complex{0.5, 0.0}}), 0.1, kLifespan,
        now});
  };
  core::ReplicaPutPayload put;
  put.from = 1;
  put.mbrs.push_back({101, 1, dsp::Mbr({0.1, 0.2}, {0.3, 0.4}), 0,
                      now + kLifespan});
  put.mbrs.push_back({102, 1, dsp::Mbr({0.5, 0.2}, {0.6, 0.4}), 4,
                      now + kLifespan});
  put.subscriptions.push_back({query(7), 11, now + kLifespan});
  put.subscriptions.push_back({query(8), 12, now + kLifespan});
  put.subscriptions.push_back(
      {query(9), 13, now - sim::Duration::millis(1)});  // already expired

  routing::Message msg;
  msg.kind = routing::MsgKind::kReplicaPut;
  msg.origin = 1;
  msg.payload = std::make_shared<const core::ReplicaPutPayload>(put);
  NetNode& node = *rig.nodes[0];
  node.deliver(routing::Message(msg), now);
  node.deliver(routing::Message(msg), now);  // redelivery: nothing new

  EXPECT_EQ(node.counters().replica_entries_stored, 4u);
  EXPECT_EQ(node.store().mbr_count(), 2u);
  EXPECT_EQ(node.store().subscription_count(), 2u);
  EXPECT_EQ(node.store().find_subscription(9), nullptr);
}

TEST(NetChaos, RejoinedNodeRepairsItsOwnedArc) {
  WorkloadConfig config;
  config.nodes = 5;
  // Soft-state refresh off: only the handoff and anti-entropy can refill
  // the restarted store.
  NetReliabilityConfig reliability;
  reliability.refresh_period_ms = 1'000'000'000;
  ChaosRig rig(config, fault::FaultPlan{}, reliability);
  rig.run_workload();

  // What the peers of node `k` hold on k's owned arc, by identity.
  const auto strategy = core::IndexingStrategy::make(
      rig.node_config.strategy, rig.node_config.features, rig.space);
  const core::ContentKeyMap& keys = strategy->key_map();
  using MbrIds = std::set<std::pair<StreamId, std::uint64_t>>;
  const auto held_on_arc = [&](NodeIndex k, MbrIds& mbrs,
                               std::set<core::QueryId>& queries) {
    const Key lo = rig.ring.id(rig.ring.predecessor_index(k));
    const Key hi = rig.ring.id(k);
    const sim::SimTime now = rig.simulator.now();
    for (NodeIndex peer = 0; peer < config.nodes; ++peer) {
      if (peer == k) {
        continue;
      }
      const core::IndexStore& store = rig.nodes[peer]->store();
      for (const core::IndexStore::StoredMbr& entry : store.mbrs()) {
        const auto [rlo, rhi] = keys.mbr_range(entry.mbr);
        if (rig.space.range_intersects_arc(rlo, rhi, lo, hi)) {
          mbrs.emplace(entry.stream, entry.batch_seq);
        }
      }
      for (const auto& [id, sub] : store.subscriptions()) {
        const auto [rlo, rhi] =
            keys.query_range(sub.query->features, sub.query->radius);
        if (sub.expires > now &&
            rig.space.range_intersects_arc(rlo, rhi, lo, hi)) {
          queries.insert(id);
        }
      }
    }
  };

  // Restart the node whose arc the peers hold the most batches on, as a
  // fresh process: empty store, next epoch.
  NodeIndex fresh = 0;
  std::size_t most = 0;
  for (NodeIndex k = 0; k < config.nodes; ++k) {
    MbrIds mbrs;
    std::set<core::QueryId> queries;
    held_on_arc(k, mbrs, queries);
    if (mbrs.size() > most) {
      most = mbrs.size();
      fresh = k;
    }
  }
  rig.restart(fresh, /*epoch=*/1);
  ASSERT_EQ(rig.nodes[fresh]->store().mbr_count(), 0u);
  rig.nodes[fresh]->request_handoff(rig.simulator.now());
  rig.pump(3000);  // five anti-entropy periods

  MbrIds want_mbrs;
  std::set<core::QueryId> want_queries;
  held_on_arc(fresh, want_mbrs, want_queries);
  ASSERT_FALSE(want_mbrs.empty()) << "the arc should hold published batches";
  ASSERT_FALSE(want_queries.empty()) << "the arc should hold subscriptions";

  const core::IndexStore& repaired = rig.nodes[fresh]->store();
  for (const auto& [stream, seq] : want_mbrs) {
    EXPECT_TRUE(repaired.contains_mbr(stream, seq))
        << "stream " << stream << " batch " << seq;
  }
  for (const core::QueryId id : want_queries) {
    EXPECT_NE(repaired.find_subscription(id), nullptr) << "query " << id;
  }
  const NetNode::Counters& counters = rig.nodes[fresh]->counters();
  EXPECT_EQ(counters.handoff_requests_sent, 2u);
  EXPECT_EQ(counters.replica_entries_stored,
            repaired.mbr_count() + repaired.subscription_count())
      << "every entry the fresh node holds arrived as a replica put";
}

}  // namespace
}  // namespace sdsi::net
