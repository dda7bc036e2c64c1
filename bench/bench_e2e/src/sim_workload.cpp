// The simulated workloads: `ingest` (write path) and `query` (read path).
//
// Both run the Table I workload on a Chord ring under the dft strategy. The
// benchmark generates every input from the seed, schedules it on the
// simulator itself and feeds it through MiddlewareSystem's public entry
// points (post_stream_value, subscribe_similarity_window), so each layer is
// measured from outside.
//
// One invocation, all on identical inputs:
//  - a checked round, in a child process so its bookkeeping stays out of
//    peak_rss_mb: publish/query hooks and the recall oracle attached; every
//    delivered (query, stream) pair is justified against a published MBR,
//    and the client-visible match digest is recorded;
//  - the measured round: one untimed warm-up, then timed windows of
//    simulated time until the budget is spent. End-to-end numbers come from
//    the untraced windows; with --trace 1 every other window is traced and
//    gives the per-layer split. Before every window, kSetupsPerWindow
//    set-ups are built and timed alone, so setup_s (their median) samples
//    the host over the whole run rather than one instant. The measured round must
//    reproduce the checked round's digest, which shows that the hooks, the
//    oracle and the tracer are out of band.
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "chord/network.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/robustness.hpp"
#include "core/system.hpp"
#include "routing/static_ring.hpp"
#include "streams/generators.hpp"

namespace perfbench {
namespace {

using namespace sdsi;
using sim::Duration;
using sim::SimTime;

// Table I of the paper.
constexpr Duration kPeriodMin = Duration::millis(150);
constexpr Duration kPeriodMax = Duration::millis(250);
constexpr Duration kMbrLifespan = Duration::millis(5000);
constexpr Duration kNotifyPeriod = Duration::millis(2000);
constexpr Duration kQueryLifeMin = Duration::seconds(20);
constexpr Duration kQueryLifeMax = Duration::seconds(100);
constexpr std::size_t kBeta = 5;

/// Oracle sampling period and the settling time the checked round runs
/// after the timed phase before it reads recall.
constexpr Duration kOracleSample = Duration::seconds(1);
constexpr Duration kDrain = Duration::seconds(10);

constexpr std::size_t kMinWindows = 3;
/// Inputs are generated for this many windows after the warm-up.
constexpr int kMaxWindows = 400;
constexpr int kSetupsPerWindow = 2;

struct SimSpec {
  std::size_t nodes = 0;
  double query_rate = 0.0;  // Poisson arrivals per simulated second
  double radius = 0.0;
  Duration warmup;       // untimed
  Duration window;       // one timed window
  Duration checked_run;  // the checked round's run after warm-up
};

// Every stream must fill its W = 256 window (at most 64 s at PMAX) before
// it emits its first MBR, so both warm-ups run past that point.
SimSpec spec_for(const std::string& workload) {
  if (workload == "ingest") {
    return {1000, 0.1, 0.1, Duration::seconds(70), Duration::seconds(5),
            Duration::seconds(30)};
  }
  // query: every lifespan is at most QMAX = 100 s, so from then on the
  // active subscription population is stationary (about rate x 60).
  return {250, 10.0, 0.2, Duration::seconds(100), Duration::seconds(5),
          Duration::seconds(30)};
}

struct StreamInput {
  StreamId id = 0;
  Duration period;
  Duration offset;
};

/// One query arrival. Its pattern window is generated when it arrives, from
/// the child rng ("query-window", index).
struct QueryInput {
  SimTime at;
  NodeIndex client = kInvalidNode;
  Duration lifespan;
};

/// Everything the seed determines. Stream values come from per-stream
/// random walks seeded ("stream-walk", node), drawn as the stream emits.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<Key> node_ids;
  std::vector<StreamInput> streams;
  std::vector<QueryInput> queries;
};

Inputs make_inputs(const SimSpec& spec, std::uint64_t seed) {
  const common::RngFactory factory(seed);
  Inputs in;
  in.seed = seed;
  in.node_ids = routing::hash_node_ids(spec.nodes, common::IdSpace(32), seed);

  // One random-walk stream per node, period uniform in [PMIN, PMAX].
  common::Pcg32 period_rng = factory.make("stream-periods");
  in.streams.resize(spec.nodes);
  for (NodeIndex node = 0; node < spec.nodes; ++node) {
    StreamInput& stream = in.streams[node];
    stream.id = 1000 + node;
    stream.period = Duration::micros(period_rng.uniform_int(
        kPeriodMin.count_micros(), kPeriodMax.count_micros()));
    stream.offset = Duration::micros(
        period_rng.uniform_int(0, stream.period.count_micros()));
  }

  // Poisson query arrivals from uniform clients.
  common::Pcg32 arrivals = factory.make("query-arrivals");
  double t = arrivals.exponential(spec.query_rate);
  const double end = (spec.warmup + spec.window * kMaxWindows).as_seconds();
  while (t < end) {
    QueryInput query;
    query.at = SimTime::zero() + Duration::seconds(t);
    query.client = static_cast<NodeIndex>(
        arrivals.bounded(static_cast<std::uint32_t>(spec.nodes)));
    query.lifespan = Duration::micros(arrivals.uniform_int(
        kQueryLifeMin.count_micros(), kQueryLifeMax.count_micros()));
    in.queries.push_back(query);
    t += arrivals.exponential(spec.query_rate);
  }
  return in;
}

/// The pattern of query `index`: a random-walk window of the same family
/// as the data, so query keys follow the data key distribution.
std::vector<Sample> query_window(const common::RngFactory& factory,
                                 std::size_t index) {
  common::Pcg32 rng = factory.make("query-window", index);
  streams::RandomWalkGenerator walk(rng, rng.uniform(-10.0, 10.0));
  std::vector<Sample> window(core::experiment_feature_config().window_size);
  for (Sample& x : window) {
    x = walk.next();
  }
  return window;
}

// --- Tracing ---------------------------------------------------------------

enum Layer : std::size_t {
  kIngest,     // post_stream_value (benchmark-owned call)
  kSubscribe,  // subscribe_similarity_window (benchmark-owned call)
  kTransit,    // overlay forwarding: relays and the origin's lookup step
  kStore,      // delivered MBR copies
  kInstall,    // delivered similarity subscriptions
  kReport,     // delivered neighbor digests and client responses
  kTick,       // the periodic per-node match/notify pass
  kOther,      // any other event (location service, ...)
  kNumLayers,
};

constexpr const char* kLayerName[kNumLayers] = {
    "core.ingest", "core.subscribe", "routing.transit", "core.store",
    "core.install", "core.report",   "core.tick",       "core.other"};

struct LayerStat {
  std::uint64_t events = 0;
  std::int64_t raw_ns = 0;   // probe-interval sum (engine events)
  std::int64_t self_ns = 0;  // after the kernel dispatch share is removed
};

/// Times every simulator event and attributes it to one layer.
///
/// Each event runs from its execution-probe call to the next one. Events
/// the benchmark owns (ingest, subscribe) also time their body, so the rest of
/// their interval is the kernel's dispatch cost; its mean is removed from
/// every engine event's interval as that event's kernel share. An engine
/// event is classified by the first callback it makes on this forwarding
/// hook (on_transit, or on_deliver by message kind). A node's NPER tick is
/// recognized by time: MiddlewareSystem::start staggers node i's tick to
/// i * NPER / N, and the tick is the first engine event of its instant
/// (it was re-armed one period earlier, before anything else due then was
/// scheduled). Engine events with no callback that are not ticks are the
/// origin's first routing step (ChordNetwork::route_to_key).
class Tracer final : public routing::MetricsHook {
 public:
  Tracer(core::MiddlewareSystem& system, Duration notify_period)
      : system_(system),
        collector_(system.metrics()),
        period_us_(notify_period.count_micros()) {
    const auto n = static_cast<std::int64_t>(system.num_nodes());
    for (std::int64_t i = 0; i < n; ++i) {
      tick_phase_.emplace(period_us_ * i / n, static_cast<NodeIndex>(i));
      count_fresh_matches(static_cast<NodeIndex>(i));  // baseline
    }
    tick_matches_ = 0;
  }

  // Forwarding hook: everything reaches the middleware's collector.
  void on_send(NodeIndex from, const routing::Message& msg) override {
    collector_.on_send(from, msg);
    classify(kOther);
  }
  void on_transit(NodeIndex via, const routing::Message& msg) override {
    collector_.on_transit(via, msg);
    classify(kTransit);
  }
  void on_deliver(NodeIndex at, const routing::Message& msg) override {
    collector_.on_deliver(at, msg);
    if (cur_.classified || cur_.owned) {
      return;
    }
    switch (msg.kind) {
      case routing::MsgKind::kMbrUpdate: {
        const auto* payload =
            std::any_cast<std::shared_ptr<const core::MbrPayload>>(
                &msg.payload);
        if (payload == nullptr) {
          classify(kOther);
          break;
        }
        cur_.store_at = at;
        cur_.store_stream = (*payload)->stream;
        cur_.store_seq = (*payload)->batch_seq;
        cur_.store_present_before = system_.node(at).store.contains_mbr(
            cur_.store_stream, cur_.store_seq);
        classify(kStore);
        break;
      }
      case routing::MsgKind::kSimilarityQuery:
        classify(kInstall);
        break;
      case routing::MsgKind::kNeighborExchange:
      case routing::MsgKind::kResponse:
        classify(kReport);
        break;
      default:
        classify(kOther);
    }
  }
  void on_drop(fault::DropCause cause, const routing::Message& msg) override {
    collector_.on_drop(cause, msg);
    classify(kOther);
  }
  void on_detour(NodeIndex around, const routing::Message& msg) override {
    collector_.on_detour(around, msg);
    classify(kOther);
  }
  void on_oracle_fallback(NodeIndex node) override {
    collector_.on_oracle_fallback(node);
  }

  /// Simulator execution probe: closes the running event, opens the next.
  void probe(SimTime when) {
    const std::int64_t t = now_ns();
    close(t);
    sample_residency(when);
    if (when.count_micros() != tick_instant_) {
      tick_instant_ = when.count_micros();
      const auto it = tick_phase_.find(tick_instant_ % period_us_);
      tick_node_ = it == tick_phase_.end() ? kInvalidNode : it->second;
    }
    cur_ = Event{};
    cur_.open = true;
    cur_.when_us = when.count_micros();
    cur_.start = now_ns();
    bookkeeping_ns_ += cur_.start - t;
  }

  /// Brackets a benchmark-owned call inside the running event.
  void begin_call(Layer layer) {
    cur_.owned = true;
    cur_.layer = layer;
    call_t0_ = now_ns();
  }
  void end_call() {
    const std::int64_t body = now_ns() - call_t0_;
    cur_.body_ns += body;
    layers_[cur_.layer].events += 1;
    layers_[cur_.layer].self_ns += body;
  }

  void start(std::int64_t t) { phase_start_ = t; }

  /// Ends the traced phase at wall time `t`, computes self times and the
  /// kernel remainder.
  void finish(std::int64_t t) {
    close(t);
    wall_ns_ = t - phase_start_;
    const double kernel_per_event =
        ratio(static_cast<double>(owned_tail_ns_),
              static_cast<double>(owned_events_));
    std::int64_t accounted = 0;
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      LayerStat& stat = layers_[l];
      if (l != kIngest && l != kSubscribe) {
        const auto share = static_cast<std::int64_t>(
            kernel_per_event * static_cast<double>(stat.events));
        stat.self_ns = std::max<std::int64_t>(0, stat.raw_ns - share);
      }
      accounted += stat.self_ns;
    }
    kernel_ns_ = wall_ns_ - bookkeeping_ns_ - accounted;
  }

  const LayerStat& layer(Layer l) const { return layers_[l]; }
  std::int64_t wall_ns() const { return wall_ns_; }
  std::int64_t kernel_ns() const { return kernel_ns_; }
  std::int64_t covered_ns() const { return covered_ns_ + bookkeeping_ns_; }
  std::int64_t bookkeeping_ns() const { return bookkeeping_ns_; }
  std::uint64_t store_accepted() const { return store_accepted_; }
  std::uint64_t tick_matches() const { return tick_matches_; }
  std::size_t mbrs_resident_peak() const { return mbrs_peak_; }
  std::size_t subs_resident_peak() const { return subs_peak_; }

 private:
  struct Event {
    bool open = false;
    bool owned = false;
    bool classified = false;
    Layer layer = kOther;
    std::int64_t when_us = 0;
    std::int64_t start = 0;
    std::int64_t body_ns = 0;
    NodeIndex store_at = kInvalidNode;
    StreamId store_stream = 0;
    std::uint64_t store_seq = 0;
    bool store_present_before = false;
  };

  void classify(Layer layer) {
    if (!cur_.classified && !cur_.owned) {
      cur_.classified = true;
      cur_.layer = layer;
    }
  }

  void close(std::int64_t t) {
    if (!cur_.open) {
      return;
    }
    const std::int64_t interval = t - cur_.start;
    covered_ns_ += interval;
    if (cur_.owned) {
      owned_tail_ns_ += interval - cur_.body_ns;
      ++owned_events_;
    } else {
      Layer layer = cur_.classified ? cur_.layer : kTransit;
      if (tick_node_ != kInvalidNode && cur_.when_us == tick_instant_) {
        layer = kTick;
        count_fresh_matches(tick_node_);
        tick_node_ = kInvalidNode;  // consumed: one tick per instant
      } else if (layer == kStore &&
                 !cur_.store_present_before &&
                 system_.node(cur_.store_at)
                     .store.contains_mbr(cur_.store_stream, cur_.store_seq)) {
        ++store_accepted_;
      }
      layers_[layer].events += 1;
      layers_[layer].raw_ns += interval;
    }
    cur_.open = false;
  }

  /// Fresh matches of a node's tick: growth of each live subscription's
  /// reported-stream set since this node's previous tick.
  void count_fresh_matches(NodeIndex node) {
    for (const auto& [query, sub] : system_.node(node).store.subscriptions()) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(node) << 40) ^ query;
      std::size_t& seen = reported_[key];
      tick_matches_ += sub.reported.size() - seen;
      seen = sub.reported.size();
    }
  }

  void sample_residency(SimTime when) {
    if (when.count_micros() < next_residency_us_) {
      return;
    }
    next_residency_us_ = when.count_micros() + 1'000'000;
    std::size_t mbrs = 0;
    std::size_t subs = 0;
    for (NodeIndex n = 0; n < system_.num_nodes(); ++n) {
      mbrs += system_.node(n).store.mbr_count();
      subs += system_.node(n).store.subscription_count();
    }
    mbrs_peak_ = std::max(mbrs_peak_, mbrs);
    subs_peak_ = std::max(subs_peak_, subs);
  }

  core::MiddlewareSystem& system_;
  core::MetricsCollector& collector_;
  std::int64_t period_us_;
  std::unordered_map<std::int64_t, NodeIndex> tick_phase_;
  std::int64_t tick_instant_ = -1;
  NodeIndex tick_node_ = kInvalidNode;
  Event cur_;
  std::int64_t call_t0_ = 0;
  LayerStat layers_[kNumLayers];
  std::int64_t owned_tail_ns_ = 0;
  std::uint64_t owned_events_ = 0;
  std::int64_t covered_ns_ = 0;
  std::int64_t bookkeeping_ns_ = 0;
  std::int64_t phase_start_ = 0;
  std::int64_t wall_ns_ = 0;
  std::int64_t kernel_ns_ = 0;
  std::uint64_t store_accepted_ = 0;
  std::uint64_t tick_matches_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> reported_;
  std::int64_t next_residency_us_ = 0;
  std::size_t mbrs_peak_ = 0;
  std::size_t subs_peak_ = 0;
};

// --- Rounds ----------------------------------------------------------------

/// One ring with the middleware on top and every input scheduled: the
/// set-up that setup_s times.
struct World {
  const SimSpec& spec;
  const Inputs& in;
  const common::RngFactory factory;
  sim::Simulator simulator;
  chord::ChordNetwork ring;
  core::MiddlewareSystem system;
  std::vector<streams::RandomWalkGenerator> walks;
  std::size_t next_query = 0;
  std::uint64_t posted = 0;
  Tracer* tracer = nullptr;  // set while a traced window runs

  World(const SimSpec& spec_, const Inputs& in_)
      : spec(spec_),
        in(in_),
        factory(in_.seed),
        ring(simulator, chord_config()),
        system(bootstrapped(ring, in_.node_ids), middleware_config()) {
    system.metrics().set_enabled(false);
    walks.reserve(in.streams.size());
    for (NodeIndex node = 0; node < in.streams.size(); ++node) {
      const StreamInput& stream = in.streams[node];
      walks.emplace_back(factory.make("stream-walk", node));
      system.register_stream(node, stream.id);
      simulator.schedule_periodic(
          SimTime::zero() + stream.offset + stream.period, stream.period,
          [this, node, id = stream.id] {
            const Sample value = walks[node].next();
            if (tracer != nullptr) {
              tracer->begin_call(kIngest);
            }
            system.post_stream_value(node, id, value);
            if (tracer != nullptr) {
              tracer->end_call();
            }
            ++posted;
          });
    }
    if (!in.queries.empty()) {
      simulator.schedule_at(in.queries.front().at, [this] { pose_query(); });
    }
    system.start();
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Poses the next query of the arrival schedule and schedules the one
  /// after it.
  void pose_query() {
    const QueryInput& query = in.queries[next_query];
    const std::vector<Sample> window = query_window(factory, next_query);
    if (tracer != nullptr) {
      tracer->begin_call(kSubscribe);
    }
    system.subscribe_similarity_window(query.client, window, spec.radius,
                                       query.lifespan);
    if (tracer != nullptr) {
      tracer->end_call();
    }
    if (++next_query < in.queries.size()) {
      simulator.schedule_at(in.queries[next_query].at,
                            [this] { pose_query(); });
    }
  }

  static chord::ChordNetwork& bootstrapped(chord::ChordNetwork& ring,
                                           const std::vector<Key>& ids) {
    ring.bootstrap(ids);
    return ring;
  }

  static chord::ChordConfig chord_config() {
    chord::ChordConfig config;
    config.id_bits = 32;
    return config;
  }

  static core::MiddlewareConfig middleware_config() {
    core::MiddlewareConfig mw;
    mw.features = core::experiment_feature_config();
    mw.batching.batch_size = kBeta;
    mw.mbr_lifespan = kMbrLifespan;
    mw.notify_period = kNotifyPeriod;
    return mw;
  }

  void run_until(Duration t) { simulator.run_until(SimTime::zero() + t); }
};

/// FNV-1a over the client-visible state: per query, its matched streams,
/// response count and first-response instant.
std::uint64_t match_digest(const core::MiddlewareSystem& system) {
  std::map<core::QueryId, const core::ClientQueryRecord*> records;
  for (const auto& [id, record] : system.client_records()) {
    records.emplace(id, &record);
  }
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ull;
    }
  };
  for (const auto& [id, record] : records) {
    mix(id);
    mix(record->responses_received);
    mix(record->first_response_at.has_value()
            ? static_cast<std::uint64_t>(
                  record->first_response_at->count_micros())
            : ~0ull);
    std::vector<StreamId> streams(record->matched_streams.begin(),
                                  record->matched_streams.end());
    std::sort(streams.begin(), streams.end());
    mix(streams.size());
    for (const StreamId s : streams) {
      mix(s);
    }
  }
  return h;
}

std::uint64_t sends_of(const core::MetricsCollector& m) {
  std::uint64_t total = 0;
  for (const core::CategoryCounters* c :
       {&m.mbr(), &m.query(), &m.response(), &m.neighbor(), &m.location(),
        &m.control(), &m.replication()}) {
    total += c->originated + c->range_internal;
  }
  return total;
}

/// What the checked round establishes.
struct Checked {
  std::uint64_t digest = 0;  // client view at warmup + checked_run
  std::uint64_t drops = 0;
  double recall = 0.0;
  std::uint64_t oracle_pairs = 0;
  std::uint64_t checked_pairs = 0;
  std::uint64_t unjustified_pairs = 0;
  std::uint64_t sends = 0;
  std::uint64_t queries_posed = 0;
  std::vector<double> first_match_ms;
};

/// The checked round: hooks and the recall oracle attached. Every
/// delivered pair must be justified by a published MBR of that stream whose
/// lower bound is within the radius and whose lifetime overlaps the query's.
Checked run_checked(const SimSpec& spec, const Inputs& in) {
  struct Published {
    dsp::Mbr mbr;
    SimTime at;
    SimTime expires;
  };
  World w(spec, in);
  core::RecallOracle oracle;
  std::unordered_map<StreamId, std::vector<Published>> published;
  std::map<core::QueryId, std::shared_ptr<const core::SimilarityQuery>> posed;
  w.system.set_publish_hook([&](const core::MbrPayload& payload) {
    oracle.on_publish(payload, w.simulator.now());
    published[payload.stream].push_back(
        Published{payload.mbr, w.simulator.now(), payload.expires});
  });
  w.system.set_query_hook(
      [&](std::shared_ptr<const core::SimilarityQuery> query) {
        posed.emplace(query->id, query);
        oracle.on_subscribe(std::move(query));
      });
  sim::TaskHandle sampler = w.simulator.schedule_periodic(
      SimTime::zero() + kOracleSample, kOracleSample,
      [&] { oracle.sample(w.simulator.now()); });

  w.run_until(spec.warmup);
  w.system.metrics().reset();
  w.system.metrics().set_enabled(true);
  w.run_until(spec.warmup + spec.checked_run);
  Checked out;
  out.digest = match_digest(w.system);
  sampler.cancel();
  w.run_until(spec.warmup + spec.checked_run + kDrain);

  out.drops = w.ring.total_drops();
  out.sends = sends_of(w.system.metrics());
  out.queries_posed = w.next_query;
  std::uint64_t delivered = 0;
  for (const auto& [query_id, stream] : oracle.pairs()) {
    const core::ClientQueryRecord* record = w.system.client_record(query_id);
    ++out.oracle_pairs;
    if (record != nullptr && record->matched_streams.contains(stream)) {
      ++delivered;
    }
  }
  out.recall = ratio(double(delivered), double(out.oracle_pairs));

  for (const auto& [id, record] : w.system.client_records()) {
    if (record.first_response_at.has_value()) {
      out.first_match_ms.push_back(
          (*record.first_response_at - record.issued_at).as_millis());
    }
    const auto q = posed.find(id);
    for (const StreamId stream : record.matched_streams) {
      ++out.checked_pairs;
      bool justified = false;
      if (q != posed.end()) {
        const core::SimilarityQuery& query = *q->second;
        const SimTime query_end = query.issued_at + query.lifespan;
        for (const Published& p : published[stream]) {
          if (p.at <= query_end && p.expires >= query.issued_at &&
              p.mbr.min_distance(query.features) <= query.radius) {
            justified = true;
            break;
          }
        }
      }
      out.unjustified_pairs += justified ? 0 : 1;
    }
  }
  return out;
}

/// Runs the checked round in a child process, so the oracle's shadow store
/// and the publication log do not count in this process's peak_rss_mb.
/// Returns nullopt when the child fails.
std::optional<Checked> run_checked_in_child(const SimSpec& spec,
                                            const Inputs& in) {
  int fds[2];
  if (pipe(fds) != 0) {
    return std::nullopt;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    const Checked c = run_checked(spec, in);
    std::vector<char> bytes;
    const auto put = [&bytes](const void* p, std::size_t n) {
      bytes.insert(bytes.end(), static_cast<const char*>(p),
                   static_cast<const char*>(p) + n);
    };
    const std::uint64_t fields[] = {
        c.digest,        c.drops,         c.oracle_pairs,
        c.checked_pairs, c.unjustified_pairs, c.sends,
        c.queries_posed, c.first_match_ms.size()};
    put(fields, sizeof fields);
    put(&c.recall, sizeof c.recall);
    put(c.first_match_ms.data(), c.first_match_ms.size() * sizeof(double));
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = write(fds[1], bytes.data() + done, bytes.size() - done);
      if (n <= 0) {
        _exit(1);
      }
      done += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::vector<char> bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n <= 0) {
      break;
    }
    bytes.insert(bytes.end(), buf, buf + n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  std::uint64_t fields[8];
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      bytes.size() < sizeof fields + sizeof(double)) {
    return std::nullopt;
  }
  std::memcpy(fields, bytes.data(), sizeof fields);
  if (bytes.size() != sizeof fields + (1 + fields[7]) * sizeof(double)) {
    return std::nullopt;
  }
  Checked c;
  c.digest = fields[0];
  c.drops = fields[1];
  c.oracle_pairs = fields[2];
  c.checked_pairs = fields[3];
  c.unjustified_pairs = fields[4];
  c.sends = fields[5];
  c.queries_posed = fields[6];
  std::memcpy(&c.recall, bytes.data() + sizeof fields, sizeof(double));
  c.first_match_ms.resize(fields[7]);
  std::memcpy(c.first_match_ms.data(),
              bytes.data() + sizeof fields + sizeof(double),
              fields[7] * sizeof(double));
  return c;
}

/// One timed window of the measured round.
struct Window {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t samples = 0;
  std::vector<Metric> layers;  // traced windows only
};

std::vector<Metric> layer_metrics(const Tracer& tr, World& w,
                                  std::uint64_t events,
                                  std::uint64_t mbrs_routed) {
  const double wall = static_cast<double>(tr.wall_ns());
  const auto per = [](const LayerStat& s) {
    return ratio(static_cast<double>(s.self_ns),
                 static_cast<double>(s.events));
  };
  const core::MetricsCollector& mc = w.system.metrics();
  const LayerStat& ingest = tr.layer(kIngest);
  const LayerStat& store = tr.layer(kStore);
  const LayerStat& tick = tr.layer(kTick);
  std::vector<Metric> m = {
      {"core.ingest.mbrs_per_call",
       ratio(double(mbrs_routed), double(ingest.events)), "ratio"},
      {"routing.copies_per_mbr",
       ratio(double(mc.mbr().delivered), double(mc.mbr().originated)), "ratio"},
      {"routing.copies_per_query",
       ratio(double(mc.query().delivered), double(mc.query().originated)),
       "ratio"},
      {"core.store.accept_ratio",
       ratio(double(tr.store_accepted()), double(store.events)), "ratio"},
      {"core.store.mbrs_resident_peak", double(tr.mbrs_resident_peak()),
       "count"},
      {"core.store.subs_resident_peak", double(tr.subs_resident_peak()),
       "count"},
      {"core.tick.matches_per_event",
       ratio(double(tr.tick_matches()), double(tick.events)), "ratio"},
      {"sim.kernel.events", double(events), "count"},
      {"sim.kernel.ns_per_event", ratio(double(tr.kernel_ns()), double(events)),
       "ns"},
      {"sim.kernel.share", ratio(double(tr.kernel_ns()), wall), "ratio"},
      {"trace.coverage", ratio(double(tr.covered_ns()), wall), "ratio"},
      {"trace.self_share", ratio(double(tr.bookkeeping_ns()), wall), "ratio"},
  };
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    const LayerStat& stat = tr.layer(Layer(l));
    const bool owned = l == kIngest || l == kSubscribe;
    const std::string name = kLayerName[l];
    m.push_back({name + (owned ? ".calls" : ".events"), double(stat.events),
                 "count"});
    m.push_back({name + (owned ? ".ns_per_call" : ".ns_per_event"), per(stat),
                 "ns"});
    m.push_back({name + ".share", ratio(double(stat.self_ns), wall), "ratio"});
  }
  return m;
}

/// Totals of wall time, CPU time and samples over `windows`.
Window sum_of(const std::vector<Window>& windows) {
  Window total;
  for (const Window& window : windows) {
    total.wall_s += window.wall_s;
    total.cpu_s += window.cpu_s;
    total.samples += window.samples;
  }
  return total;
}

/// Runs the measured round up to simulated time `until`, traced or not.
Window run_window(World& w, Duration until, bool traced) {
  Window out;
  std::optional<Tracer> tracer;
  if (traced) {
    tracer.emplace(w.system, kNotifyPeriod);
    w.tracer = &*tracer;
    w.ring.set_metrics_hook(&*tracer);
    w.simulator.set_execution_probe(
        [tr = &*tracer](SimTime when, SeqNo) { tr->probe(when); });
  }
  w.system.metrics().reset();
  const std::uint64_t posted0 = w.posted;
  const std::uint64_t events0 = w.simulator.executed_events();
  const std::uint64_t routed0 = w.system.mbrs_routed();
  const std::int64_t cpu0 = cpu_ns();
  const std::int64_t t0 = now_ns();
  if (tracer) {
    tracer->start(t0);
  }
  w.run_until(until);
  const std::int64_t t1 = now_ns();
  const std::int64_t cpu1 = cpu_ns();
  out.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  out.cpu_s = static_cast<double>(cpu1 - cpu0) * 1e-9;
  out.samples = w.posted - posted0;
  if (tracer) {
    tracer->finish(t1);
    w.simulator.set_execution_probe(nullptr);
    w.ring.set_metrics_hook(&w.system.metrics());
    w.tracer = nullptr;
    out.layers = layer_metrics(*tracer, w,
                               w.simulator.executed_events() - events0,
                               w.system.mbrs_routed() - routed0);
  }
  return out;
}

}  // namespace

Result run_sim_workload(const std::string& workload, const RunOptions& opts) {
  const std::int64_t start = now_ns();
  const auto elapsed_s = [start] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  const SimSpec spec = spec_for(workload);
  const Inputs inputs = make_inputs(spec, opts.seed);
  Result result;

  const std::optional<Checked> checked_run = run_checked_in_child(spec, inputs);
  if (!checked_run) {
    result.fail("the checked round failed");
    return result;
  }
  const Checked& checked = *checked_run;

  std::vector<double> setup;
  const auto time_setups = [&] {
    for (int i = 0; i < kSetupsPerWindow; ++i) {
      const std::int64_t t0 = now_ns();
      const World fresh(spec, inputs);
      setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  };

  // The measured round: warm up once, then timed windows until the budget
  // is spent. With --trace 1 every other window is traced.
  World w(spec, inputs);
  w.run_until(spec.warmup);
  w.system.metrics().set_enabled(true);
  std::vector<Window> plain;
  std::vector<Window> traced;
  std::optional<std::uint64_t> digest;
  double rss_mb = 0.0;
  double longest_s = 0.0;
  Duration at = spec.warmup;
  for (int i = 0; i < kMaxWindows; ++i) {
    const bool enough =
        digest.has_value() && plain.size() >= kMinWindows &&
        (!opts.trace || traced.size() >= kMinWindows);
    if (enough && elapsed_s() + longest_s > opts.seconds) {
      break;
    }
    const double before = elapsed_s();
    time_setups();
    at = at + spec.window;
    Window window = run_window(w, at, opts.trace && i % 2 == 1);
    (window.layers.empty() ? plain : traced).push_back(std::move(window));
    longest_s = std::max(longest_s, elapsed_s() - before);
    if (at == spec.warmup + spec.checked_run) {
      // Later windows only add client records, so memory is read at this
      // fixed point rather than after however many windows the budget buys.
      digest = match_digest(w.system);
      rss_mb = peak_rss_mb();
    }
  }

  // Checks. The measured round must reproduce the checked round's client
  // view (hooks, oracle and tracer are out of band), nothing may drop, and
  // every delivered pair must be justified.
  if (digest != checked.digest) {
    result.fail("match digest differs between the checked and the measured "
                "round: hooks, oracle or tracing are not out of band, or the "
                "run is not deterministic");
  }
  const std::uint64_t drops = checked.drops + w.ring.total_drops();
  if (drops > 0) {
    result.fail("routing dropped " + std::to_string(drops) + " messages");
  }
  if (checked.unjustified_pairs > 0) {
    result.fail(std::to_string(checked.unjustified_pairs) +
                " delivered pairs have no published MBR within the radius");
  }
  if (checked.checked_pairs == 0) {
    result.fail("no (query, stream) pair was delivered");
  }
  result.attempted = checked.sends + checked.checked_pairs;
  result.failed = drops + checked.unjustified_pairs;

  // Throughput over all untraced windows together: the host's speed wanders
  // over seconds, and a ratio of sums averages that drift where a median of
  // windows would settle on one of its levels.
  const Window all = sum_of(plain);
  const double rate = double(all.samples) / all.wall_s;
  result.end_to_end = {
      {"samples_per_s", rate, "1/s"},
      {"cpu_us_per_sample", all.cpu_s * 1e6 / double(all.samples), "us"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  result.report = {
      {"recall", checked.recall, "ratio"},
      {"oracle_pairs", double(checked.oracle_pairs), "count"},
      {"queries_posed", double(checked.queries_posed), "count"},
      {"first_match_p50_ms", quantile(checked.first_match_ms, 0.50), "ms"},
      {"first_match_p99_ms", quantile(checked.first_match_ms, 0.99), "ms"},
      {"first_match_samples", double(checked.first_match_ms.size()), "count"},
      {"failed_share",
       ratio(double(result.failed), double(result.attempted)), "ratio"},
      {"windows", double(plain.size()), "count"},
  };

  if (opts.trace) {
    std::vector<const std::vector<Metric>*> layers;
    for (const Window& window : traced) {
      layers.push_back(&window.layers);
    }
    result.per_layer = median_metrics(layers);
    const Window all_traced = sum_of(traced);
    result.per_layer.push_back(
        {"trace.overhead_share",
         1.0 - double(all_traced.samples) / all_traced.wall_s / rate,
         "ratio"});
  }
  return result;
}

}  // namespace perfbench
