// The `ring` workload: four NetNode endpoints over SocketTransport on
// 127.0.0.1, all driven from this one thread.
//
// Inputs are the net::WorkloadConfig streams and queries (8 streams per
// node, one query per node). The generator is an open loop: sample i of the
// interleaved streams is due at i / kOfferedRate seconds whatever the ring
// is doing, and the node clock `now` is the wall clock. The loop wakes at
// most once per kWakeNs, publishes what is due (polling every endpoint until
// the ring is quiet whenever a publish closes an MBR batch), runs due NPER
// ticks, and sleeps, so process CPU time measures work. The
// offered rate is kept far below what one core sustains; a round whose
// generator lag or outbox backlog grows across the run fails, because its
// numbers would describe a queue, not the system.
//
// One invocation runs rounds on identical inputs until the budget is spent;
// before every round, kSetupsPerRound set-ups are built and timed alone
// (setup_s is their median over the whole run). A round builds
// a fresh ring, publishes the schedule (its first kWarmShare unmeasured),
// drains, runs a final NPER pass on every node and compares the merged
// client results with net::run_sim_reference. With --trace 1 every other
// round is traced.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/strategy.hpp"
#include "net/equivalence.hpp"
#include "net/node.hpp"
#include "net/ring.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "net/workload.hpp"
#include "routing/static_ring.hpp"

namespace perfbench {
namespace {

using namespace sdsi;

constexpr NodeIndex kNodes = 4;
constexpr std::uint32_t kStreamsPerNode = 8;
constexpr std::uint32_t kStreams = kNodes * kStreamsPerNode;
/// Offered samples per wall second, across all streams.
constexpr double kOfferedRate = 32000.0;
/// Wall length of one round's schedule and its unmeasured head.
constexpr double kRoundSeconds = 2.5;
constexpr double kWarmShare = 0.2;
/// The generator loop wakes at most this often.
constexpr std::int64_t kWakeNs = 4'000'000;
/// Each node's NPER tick period on the ring (staggered across nodes).
constexpr std::int64_t kTickPeriodNs = 100'000'000;
constexpr std::int64_t kDrainLimitNs = 5'000'000'000;
constexpr std::size_t kMinRounds = 3;
constexpr int kSetupsPerRound = 8;
constexpr auto kLifespan = sim::Duration::seconds(3600);

struct Inputs {
  net::WorkloadConfig config;
  std::vector<std::vector<Sample>> samples;  // by stream slot
  std::vector<StreamId> stream_ids;          // by stream slot
  std::vector<net::WorkloadQuery> queries;
  net::MatchDigest reference;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.config.nodes = kNodes;
  in.config.seed = seed;
  in.config.streams_per_node = kStreamsPerNode;
  in.config.samples_per_stream =
      static_cast<std::uint32_t>(kOfferedRate * kRoundSeconds / kStreams);
  for (NodeIndex node = 0; node < kNodes; ++node) {
    for (std::uint32_t slot = 0; slot < kStreamsPerNode; ++slot) {
      const StreamId id = net::workload_stream_id(in.config, node, slot);
      in.stream_ids.push_back(id);
      in.samples.push_back(net::workload_samples(in.config, id));
    }
  }
  in.queries = net::workload_queries(in.config);
  in.reference = net::run_sim_reference(in.config);
  return in;
}

struct CallStat {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(std::int64_t dt) {
    ++calls;
    ns += dt;
  }
  double ns_per_call() const {
    return ratio(static_cast<double>(ns), static_cast<double>(calls));
  }
};

/// The ring endpoints with the queries posed and installed: the set-up
/// that setup_s times. Deliveries run through upcalls that time them and
/// match each stored MBR batch to the publish call that closed it.
class RingWorld {
 public:
  explicit RingWorld(const Inputs& in)
      : space_(in.config.id_bits),
        ring_(space_, routing::hash_node_ids(kNodes, space_,
                                             in.config.ring_salt)),
        strategy_(core::IndexingStrategy::make(in.config.strategy,
                                               in.config.features, space_)) {
    net::NetNodeConfig node_config;
    node_config.features = in.config.features;
    node_config.strategy = in.config.strategy;
    node_config.mbr_lifespan = kLifespan;
    for (NodeIndex i = 0; i < kNodes; ++i) {
      transports_.push_back(std::make_unique<net::SocketTransport>(0));
    }
    for (NodeIndex i = 0; i < kNodes; ++i) {
      for (NodeIndex j = 0; j < kNodes; ++j) {
        if (j != i) {
          transports_[i]->set_peer(j, "127.0.0.1",
                                   transports_[j]->listen_port());
        }
      }
      nodes_.push_back(std::make_unique<net::NetNode>(ring_, i, *transports_[i],
                                                      node_config));
      transports_[i]->set_deliver(
          [this, node = nodes_.back().get()](routing::Message&& msg) {
            on_deliver(*node, std::move(msg));
          });
    }
    for (const net::WorkloadQuery& query : in.queries) {
      nodes_[query.client]->subscribe_similarity(
          query.id, strategy_->features_from_window(query.window),
          query.radius, kLifespan, node_now(now_ns()));
    }
    drain();
  }

  RingWorld(const RingWorld&) = delete;
  RingWorld& operator=(const RingWorld&) = delete;

  sim::SimTime node_now(std::int64_t t) const {
    return sim::SimTime::from_micros((t - epoch_ns_) / 1000);
  }

  /// Polls every endpoint until a full pass delivers nothing and every
  /// outbox is empty; returns the largest backlog seen. Marks the world
  /// stuck when the ring does not go quiet within kDrainLimitNs.
  std::size_t drain() {
    std::size_t backlog = 0;
    const std::int64_t limit = now_ns() + kDrainLimitNs;
    for (;;) {
      const std::uint64_t before = delivered_;
      std::size_t pending = 0;
      for (auto& transport : transports_) {
        if (traced_) {
          nested_deliver_ns_ = 0;
          const std::int64_t t0 = now_ns();
          transport->poll(0);
          poll_.add(now_ns() - t0 - nested_deliver_ns_);
        } else {
          transport->poll(0);
        }
        pending += transport->pending_out_bytes();
      }
      backlog = std::max(backlog, pending);
      if (delivered_ == before && pending == 0) {
        break;
      }
      if (now_ns() > limit) {
        stuck_ = true;
        break;
      }
    }
    outbox_peak_ = std::max(outbox_peak_, backlog);
    return backlog;
  }

  std::vector<std::unique_ptr<net::SocketTransport>>& transports() {
    return transports_;
  }
  std::vector<std::unique_ptr<net::NetNode>>& nodes() { return nodes_; }

  /// Stored batches that do not sit on exactly their source plus the nodes
  /// covering their key ranges (the range multicast contract: successor of
  /// lo, then successors until the node covering hi), and closed batches
  /// stored nowhere.
  std::uint64_t misplaced_batches(std::uint64_t closed_batches) const {
    struct Placement {
      const core::IndexStore::StoredMbr* entry = nullptr;
      std::set<NodeIndex> holders;
    };
    std::map<std::pair<StreamId, std::uint64_t>, Placement> batches;
    std::vector<std::vector<core::IndexStore::StoredMbr>> stored;
    for (const auto& node : nodes_) {
      stored.push_back(node->store().mbrs());
    }
    for (NodeIndex i = 0; i < kNodes; ++i) {
      for (const core::IndexStore::StoredMbr& entry : stored[i]) {
        Placement& p = batches[{entry.stream, entry.batch_seq}];
        p.entry = &entry;
        p.holders.insert(i);
      }
    }
    std::uint64_t misplaced = closed_batches - std::min<std::uint64_t>(
                                                   closed_batches,
                                                   batches.size());
    std::vector<std::pair<Key, Key>> ranges;
    for (const auto& [id, p] : batches) {
      std::set<NodeIndex> expected{p.entry->source};
      strategy_->key_map().mbr_ranges(p.entry->mbr, ranges);
      for (const auto& [lo, hi] : ranges) {
        const NodeIndex last = ring_.successor_of_key(hi);
        NodeIndex n = ring_.successor_of_key(lo);
        for (NodeIndex hops = 0; hops < kNodes; ++hops) {
          expected.insert(n);
          if (n == last) {
            break;
          }
          n = ring_.successor_index(n);
        }
      }
      if (expected != p.holders) {
        ++misplaced;
      }
    }
    return misplaced;
  }

  // Measurement state, driven by the round.
  const std::int64_t epoch_ns_ = now_ns();  // node clock origin
  bool measuring_ = false;  // index lag is recorded
  bool traced_ = false;     // per-layer spans are recorded
  std::map<std::pair<StreamId, std::uint64_t>, std::int64_t> closed_at_;
  std::vector<double> index_lag_us_;
  CallStat deliver_[routing::kNumMsgKinds + 1];
  CallStat poll_;
  std::vector<routing::Message> captured_;
  std::size_t outbox_peak_ = 0;
  bool stuck_ = false;

 private:
  void on_deliver(net::NetNode& node, routing::Message&& msg) {
    const std::int64_t t = now_ns();
    ++delivered_;
    if (measuring_ && msg.kind == routing::MsgKind::kMbrUpdate) {
      if (const auto* p =
              std::any_cast<std::shared_ptr<const core::MbrPayload>>(
                  &msg.payload)) {
        const auto it = closed_at_.find({(*p)->stream, (*p)->batch_seq});
        if (it != closed_at_.end()) {
          index_lag_us_.push_back(static_cast<double>(t - it->second) * 1e-3);
        }
      }
    }
    if (!traced_) {
      node.deliver(std::move(msg), node_now(t));
      return;
    }
    const auto kind = static_cast<std::size_t>(msg.kind);
    captured_.push_back(msg);
    const std::int64_t t0 = now_ns();
    node.deliver(std::move(msg), node_now(t0));
    const std::int64_t dt = now_ns() - t0;
    deliver_[kind].add(dt);
    nested_deliver_ns_ += dt;
  }

  common::IdSpace space_;
  net::NetRing ring_;
  std::unique_ptr<core::IndexingStrategy> strategy_;
  std::vector<std::unique_ptr<net::SocketTransport>> transports_;
  std::vector<std::unique_ptr<net::NetNode>> nodes_;
  std::uint64_t delivered_ = 0;
  std::int64_t nested_deliver_ns_ = 0;
};

struct RoundOut {
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t samples = 0;
  std::vector<double> index_lag_us;
  std::vector<double> gen_lag_us;
  std::uint64_t mismatched_queries = 0;
  std::uint64_t compared_queries = 0;
  std::uint64_t batches = 0;
  std::uint64_t misplaced_batches = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t decode_rejects = 0;
  std::uint64_t overflow_drops = 0;
  std::uint64_t frames_sent = 0;
  bool stuck = false;
  bool backlog_grew = false;
  bool lag_grew = false;
  std::vector<Metric> layers;  // traced rounds only
};

std::uint64_t sum_stats(RingWorld& w,
                        std::uint64_t net::SocketTransportStats::*field) {
  std::uint64_t total = 0;
  for (const auto& transport : w.transports()) {
    total += transport->stats().*field;
  }
  return total;
}

RoundOut run_round(const Inputs& in, bool traced) {
  RoundOut out;
  RingWorld w(in);
  auto& nodes = w.nodes();

  const std::size_t total = in.samples.front().size() * kStreams;
  const auto warm =
      static_cast<std::size_t>(kWarmShare * static_cast<double>(total));
  const double gap_ns = 1e9 / kOfferedRate;
  const std::int64_t origin = now_ns();
  const auto due_ns = [&](std::size_t i) {
    return origin + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
  };
  std::vector<std::uint64_t> closed(kStreams, 0);
  std::size_t quarter_backlog[4] = {0, 0, 0, 0};
  std::size_t next = 0;
  const auto note_backlog = [&](std::size_t backlog) {
    if (w.measuring_) {
      std::size_t& q = quarter_backlog[std::min<std::size_t>(
          3, (next - warm) * 4 / (total - warm))];
      q = std::max(q, backlog);
    }
  };
  CallStat publish, tick;
  std::int64_t sleep_ns = 0;
  std::int64_t t_measure = 0;
  std::int64_t cpu_measure = 0;
  std::uint64_t frames_at_measure = 0;
  std::uint64_t bytes_at_measure = 0;

  std::int64_t next_tick_ns = origin + kTickPeriodNs / kNodes;
  NodeIndex next_tick_node = 0;
  while (next < total) {
    while (next < total && now_ns() >= due_ns(next)) {
      if (next == warm) {
        w.measuring_ = true;
        w.traced_ = traced;
        t_measure = now_ns();
        cpu_measure = cpu_ns();
        frames_at_measure =
            sum_stats(w, &net::SocketTransportStats::frames_sent);
        bytes_at_measure =
            sum_stats(w, &net::SocketTransportStats::bytes_sent);
      }
      const std::size_t slot = next % kStreams;
      net::NetNode& node = *nodes[slot / kStreamsPerNode];
      const StreamId stream = in.stream_ids[slot];
      const std::uint64_t published = node.counters().mbrs_published;
      const std::int64_t t0 = now_ns();
      node.publish_value(stream, in.samples[slot][next / kStreams],
                         w.node_now(t0));
      if (w.traced_) {
        publish.add(now_ns() - t0);
      }
      if (node.counters().mbrs_published != published) {
        // A closed batch went on the wire: deliver it now, so the index lag
        // measures the ring and not the rest of this wake-up's batch.
        w.closed_at_[{stream, closed[slot]}] = t0;
        ++closed[slot];
        note_backlog(w.drain());
      }
      if (w.measuring_) {
        out.gen_lag_us.push_back(static_cast<double>(t0 - due_ns(next)) *
                                 1e-3);
      }
      ++next;
    }
    if (now_ns() >= next_tick_ns) {
      const std::int64_t t0 = now_ns();
      nodes[next_tick_node]->tick(w.node_now(t0));
      if (w.traced_) {
        tick.add(now_ns() - t0);
      }
      next_tick_node = (next_tick_node + 1) % kNodes;
      next_tick_ns += kTickPeriodNs / kNodes;
    }
    note_backlog(w.drain());
    if (next < total) {
      const std::int64_t now = now_ns();
      const std::int64_t wake =
          std::max(std::min(due_ns(next), next_tick_ns), now + kWakeNs);
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
      if (w.measuring_) {
        sleep_ns += now_ns() - now;
      }
    }
  }
  const std::int64_t t_end = now_ns();
  const std::int64_t cpu_end = cpu_ns();
  const std::uint64_t frames =
      sum_stats(w, &net::SocketTransportStats::frames_sent) - frames_at_measure;
  const std::uint64_t bytes =
      sum_stats(w, &net::SocketTransportStats::bytes_sent) - bytes_at_measure;
  w.measuring_ = false;
  w.traced_ = false;
  out.run_s = static_cast<double>(t_end - t_measure) * 1e-9;
  out.cpu_s = static_cast<double>(cpu_end - cpu_measure) * 1e-9;
  out.samples = total - warm;
  out.index_lag_us = std::move(w.index_lag_us_);

  // Validity: the generator kept its schedule and the outboxes stayed flat.
  const auto quarter = static_cast<std::ptrdiff_t>(out.gen_lag_us.size() / 4);
  const double head = median(std::vector<double>(
      out.gen_lag_us.begin(), out.gen_lag_us.begin() + quarter));
  const double tail = median(std::vector<double>(
      out.gen_lag_us.end() - quarter, out.gen_lag_us.end()));
  out.lag_grew = tail > std::max(4.0 * head, head + 2000.0);
  out.backlog_grew = quarter_backlog[3] > quarter_backlog[0] + (256u << 10);

  // Settle: every frame delivered, one final NPER pass per node, responses
  // delivered; then compare with the simulated reference.
  w.drain();
  for (auto& node : nodes) {
    node->tick(w.node_now(now_ns()));
  }
  w.drain();
  out.stuck = w.stuck_;

  std::map<std::uint64_t, std::set<StreamId>> merged = in.reference;
  for (auto& [id, streams] : merged) {
    streams.clear();  // every reference query is compared, even unanswered
  }
  for (const auto& node : nodes) {
    for (const auto& [id, streams] : node->results()) {
      merged[id].insert(streams.begin(), streams.end());
    }
    out.send_failures += node->counters().send_failures;
  }
  for (const auto& [id, streams] : merged) {
    const auto want = in.reference.find(id);
    ++out.compared_queries;
    if (want == in.reference.end() || want->second != streams) {
      ++out.mismatched_queries;
    }
  }
  std::uint64_t closed_batches = 0;
  for (const std::uint64_t c : closed) {
    closed_batches += c;
  }
  out.batches = closed_batches;
  out.misplaced_batches = w.misplaced_batches(closed_batches);
  out.decode_rejects = sum_stats(w, &net::SocketTransportStats::decode_rejects);
  out.overflow_drops =
      sum_stats(w, &net::SocketTransportStats::dropped_overflow);
  out.frames_sent = sum_stats(w, &net::SocketTransportStats::frames_sent);

  if (traced) {
    std::vector<Metric>& m = out.layers;
    m.push_back({"net.publish.calls", double(publish.calls), "count"});
    m.push_back({"net.publish.ns_per_call", publish.ns_per_call(), "ns"});
    m.push_back({"net.tick.calls", double(tick.calls), "count"});
    m.push_back({"net.tick.ns_per_call", tick.ns_per_call(), "ns"});
    std::int64_t deliver_ns = 0;
    for (const CallStat& s : w.deliver_) {
      deliver_ns += s.ns;
    }
    for (const routing::MsgKind kind :
         {routing::MsgKind::kMbrUpdate, routing::MsgKind::kSimilarityQuery,
          routing::MsgKind::kResponse}) {
      const CallStat& s = w.deliver_[static_cast<std::size_t>(kind)];
      const std::string prefix =
          std::string("net.deliver.") + routing::msg_kind_name(kind);
      m.push_back({prefix + ".calls", double(s.calls), "count"});
      m.push_back({prefix + ".ns_per_call", s.ns_per_call(), "ns"});
    }
    m.push_back({"net.socket.polls", double(w.poll_.calls), "count"});
    m.push_back({"net.socket.ns_per_poll", w.poll_.ns_per_call(), "ns"});
    m.push_back({"net.socket.frames_per_sample",
                 ratio(double(frames), double(out.samples)), "ratio"});
    m.push_back({"net.socket.bytes_per_frame",
                 ratio(double(bytes), double(frames)), "bytes"});
    m.push_back({"net.socket.outbox_peak_bytes", double(w.outbox_peak_),
                 "bytes"});

    // Wire codec cost: the captured frames replayed through the codec.
    std::vector<std::vector<std::uint8_t>> encoded;
    encoded.reserve(w.captured_.size());
    const std::int64_t e0 = now_ns();
    for (const routing::Message& msg : w.captured_) {
      encoded.push_back(net::encode_frame(msg));
    }
    const std::int64_t e1 = now_ns();
    for (const auto& frame : encoded) {
      routing::Message decoded;
      if (net::decode_frame(frame, &decoded) != net::DecodeResult::kOk) {
        ++out.decode_rejects;
      }
    }
    const std::int64_t e2 = now_ns();
    const auto replayed = static_cast<double>(encoded.size());
    m.push_back({"net.wire.encode_ns_per_frame",
                 ratio(double(e1 - e0), replayed), "ns"});
    m.push_back({"net.wire.decode_ns_per_frame",
                 ratio(double(e2 - e1), replayed), "ns"});
    m.push_back({"ring.gen_lag_p99_us", quantile(out.gen_lag_us, 0.99), "us"});
    m.push_back({"trace.coverage",
                 ratio(double(publish.ns + tick.ns + w.poll_.ns + deliver_ns +
                              sleep_ns),
                       double(t_end - t_measure)),
                 "ratio"});
  }
  return out;
}

}  // namespace

Result run_ring_workload(const RunOptions& opts) {
  const std::int64_t start = now_ns();
  const auto elapsed_s = [start] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  const Inputs inputs = make_inputs(opts.seed);

  std::vector<double> setup;

  std::vector<RoundOut> plain;
  std::vector<RoundOut> traced;
  double longest_s = 0.0;
  while (plain.size() < kMinRounds ||
         elapsed_s() + longest_s < opts.seconds) {
    const double before = elapsed_s();
    for (int i = 0; i < kSetupsPerRound; ++i) {
      const std::int64_t t0 = now_ns();
      const RingWorld fresh(inputs);
      setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    plain.push_back(run_round(inputs, false));
    if (opts.trace) {
      traced.push_back(run_round(inputs, true));
    }
    longest_s = std::max(longest_s, elapsed_s() - before);
  }

  Result result;
  std::uint64_t mismatched = 0, misplaced = 0, rejects = 0, overflow = 0,
                send_failures = 0;
  bool lag_grew = false, backlog_grew = false, stuck = false;
  for (const std::vector<RoundOut>* rounds : {&plain, &traced}) {
    for (const RoundOut& r : *rounds) {
      mismatched += r.mismatched_queries;
      misplaced += r.misplaced_batches;
      rejects += r.decode_rejects;
      overflow += r.overflow_drops;
      send_failures += r.send_failures;
      lag_grew = lag_grew || r.lag_grew;
      backlog_grew = backlog_grew || r.backlog_grew;
      stuck = stuck || r.stuck;
      result.attempted += r.frames_sent + r.compared_queries + r.batches;
    }
  }
  result.failed = mismatched + misplaced + rejects + overflow + send_failures;
  if (mismatched > 0) {
    result.fail(std::to_string(mismatched) +
                " query results differ from net::run_sim_reference");
  }
  if (misplaced > 0) {
    result.fail(std::to_string(misplaced) +
                " MBR batches are not stored on exactly the nodes covering "
                "their key ranges");
  }
  if (rejects + overflow + send_failures > 0) {
    result.fail("transport losses: " + std::to_string(send_failures) +
                " send failures, " + std::to_string(rejects) +
                " decode rejects, " + std::to_string(overflow) +
                " outbox overflows");
  }
  if (stuck) {
    result.fail("the ring did not go quiet within the drain limit");
  }
  if (lag_grew) {
    result.fail("generator lag grew across the run: the offered rate is "
                "not sustainable here");
  }
  if (backlog_grew) {
    result.fail("outbox backlog grew across the run: the offered rate is "
                "not sustainable here");
  }

  std::vector<double> rate, cpu, index_lag;
  for (const RoundOut& r : plain) {
    rate.push_back(double(r.samples) / r.run_s);
    cpu.push_back(r.cpu_s * 1e6 / double(r.samples));
    index_lag.insert(index_lag.end(), r.index_lag_us.begin(),
                     r.index_lag_us.end());
  }
  if (index_lag.empty()) {
    result.fail("no MBR store was observed on the ring");
  }
  result.end_to_end = {
      {"samples_per_s", median(rate), "1/s"},
      {"cpu_us_per_sample", median(cpu), "us"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  result.report = {
      {"ring_index_lag_p50_us", quantile(index_lag, 0.50), "us"},
      {"ring_index_lag_p99_us", quantile(index_lag, 0.99), "us"},
      {"ring_index_lag_samples", double(index_lag.size()), "count"},
      {"ring_cpu_us_per_sample", median(cpu), "us"},
      {"offered_samples_per_s", kOfferedRate, "1/s"},
      {"failed_share",
       ratio(double(result.failed), double(result.attempted)), "ratio"},
      {"rounds", double(plain.size()), "count"},
  };

  if (opts.trace) {
    std::vector<const std::vector<Metric>*> layers;
    std::vector<double> traced_cpu;
    for (const RoundOut& r : traced) {
      layers.push_back(&r.layers);
      traced_cpu.push_back(r.cpu_s * 1e6 / double(r.samples));
    }
    result.per_layer = median_metrics(layers);
    result.per_layer.push_back(
        {"trace.overhead_share", median(traced_cpu) / median(cpu) - 1.0,
         "ratio"});
  }
  return result;
}

}  // namespace perfbench
