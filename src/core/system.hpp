// The distributed stream-indexing middleware (the paper's contribution).
//
// MiddlewareSystem wires one MiddlewareNode per data center on top of any
// RoutingSystem and exposes the application-view primitives of Figure 5:
//
//   update(summary, stream)      -> post_stream_value / register_stream
//   subscribe(pattern)           -> subscribe_similarity
//   subscribe(inner_product)     -> subscribe_inner_product
//   periodic push_similarity_info / push_inner_product_info  (automatic)
//
// Internally it implements Sec IV end to end: Eq. 6 content keys, MBR
// batching and range replication, similarity matching with no false
// dismissals, middle-node aggregation, the h2 location service, and the
// periodic notification machinery of Table I.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/hot_arc.hpp"
#include "core/mapper.hpp"
#include "core/metrics.hpp"
#include "core/node.hpp"
#include "core/strategy.hpp"
#include "core/worker_pool.hpp"
#include "routing/api.hpp"

namespace sdsi::core {

/// Capped exponential backoff with seeded jitter, shared by the acked MBR
/// publication and acked response paths. Retry n (0-based) waits
/// min(timeout * 2^n, max_backoff) + uniform[0, jitter) before giving the
/// transmission up for lost.
struct RetryPolicy {
  bool enabled = false;
  sim::Duration timeout = sim::Duration::millis(1500);
  sim::Duration max_backoff = sim::Duration::millis(12'000);
  sim::Duration jitter = sim::Duration::millis(250);
  int max_attempts = 4;  // retransmission budget beyond the first send
};

/// Overload-control knobs (adversarial-skew extension). Three cooperating
/// mechanisms, each individually disableable:
///  - hot-arc splitting: the detector flags nodes running persistently hot
///    (by index work) and fans their arc out across `split_ways - 1` virtual
///    successor delegates via the replication machinery;
///  - load shedding: a bounded per-window ingest budget; overflow stores are
///    dropped as accounted fault::DropCause::kShedOverload (never silent);
///  - ingest backpressure: a per-source publish budget defers closed batches
///    into a bounded FIFO instead of flooding the ring; queue overflow drops
///    the oldest batch as accounted kBackpressure.
struct OverloadOptions {
  /// Hot-arc detector hysteresis (core/hot_arc.hpp).
  HotArcConfig detector;

  /// Detector window: per-node work counters are read + reset, transitions
  /// applied, and deferred publications drained at this period.
  sim::Duration window = sim::Duration::millis(2000);

  /// A hot node's arc is split this many ways: itself plus split_ways - 1
  /// successor-list delegates. 1 disables splitting (detect-only).
  std::size_t split_ways = 3;

  /// Max MBR stores a node accepts per detector window; past it, deliveries
  /// shed as kShedOverload. 0 = unbounded (shedding off).
  std::uint64_t ingest_capacity = 0;

  /// Deterministic forced shed fraction in [0, 1): every store attempt
  /// advances a per-node accumulator by this much and sheds on overflow.
  /// Drives the recall-vs-shed-rate degradation curve without any rng.
  double forced_shed_rate = 0.0;

  /// Max MBR publications per source per window before deferral; 0 =
  /// unbounded (backpressure off).
  std::uint64_t publish_budget = 0;

  /// Bound of the per-source deferral queue; overflow drops the oldest
  /// deferred batch as kBackpressure.
  std::size_t defer_capacity = 64;
};

struct MiddlewareConfig {
  /// Window/coefficient/normalization scheme (Sec III-C).
  dsp::FeatureConfig features;

  /// Indexing strategy: summary + content-to-key map (core/strategy.hpp).
  /// The default ("dft") is the paper's pipeline, byte-identical to the
  /// pre-strategy code; "ecm" and "lsh" are the PAPERS.md alternatives.
  StrategyOptions strategy;

  /// MBR batching (Sec IV-G / VI-A).
  MbrBatcher::Options batching;

  /// Range multicast flavor (Sec IV-C sequential vs Sec VI-B bidirectional).
  routing::MulticastStrategy multicast =
      routing::MulticastStrategy::kSequential;

  /// BSPAN: lifespan of a stored MBR.
  sim::Duration mbr_lifespan = sim::Duration::millis(5000);

  /// NPER: period of matching, neighbor digests, and response pushes.
  sim::Duration notify_period = sim::Duration::millis(2000);

  /// Also keep each summary in the source node's local store ("each stream
  /// summary is stored locally, and also routed").
  bool store_local_summaries = true;

  /// Soft-state refresh of similarity subscriptions: the client re-routes
  /// each live query over its key range at this period, so nodes that
  /// joined (or recovered) inside the range pick the subscription up and
  /// lost query copies heal. Zero disables (the paper's one-shot install).
  sim::Duration query_refresh_period = sim::Duration();

  /// When set, every stream runs the Sec VI-A closed loop: its batcher is
  /// forced to adaptive mode and a per-stream AdaptivePrecisionController
  /// retunes the extent budget against the observed emission rate.
  std::optional<AdaptivePrecisionController::Options> adaptive_precision;

  // --- Self-healing data path (fault-tolerance extension) -----------------

  /// Acked MBR publication: the landing node of each range multicast
  /// confirms storage; unacked batches are retransmitted under this policy.
  RetryPolicy mbr_ack;

  /// Acked match-bearing response pushes: unacked pushes are retransmitted
  /// verbatim on later ticks under this policy (timeout + max_attempts; the
  /// notify period is the effective backoff base).
  RetryPolicy response_ack;

  /// Soft-state refresh of published MBRs: each source re-routes its live
  /// unexpired batches (and re-registers its streams with the location
  /// service) at this period, healing state lost to drops or node crashes —
  /// the MBR-side mirror of query_refresh_period. Zero disables.
  sim::Duration mbr_refresh_period = sim::Duration();

  /// Seed of the middleware's own randomness (retry jitter); fixed default
  /// keeps runs reproducible.
  std::uint64_t rng_seed = 0x5d51c0de;

  // --- Replication & failover (churn-tolerance extension) -----------------

  /// Successor-list replication degree r: every stored MBR batch, similarity
  /// subscription, and partial aggregation is mirrored to the key owner's r
  /// next live successors, so a crash promotes a replica instead of waiting
  /// for the soft-state refresh period. Zero disables the whole layer.
  std::size_t replication_factor = 0;

  /// Anti-entropy period: each node periodically sends a compact
  /// (stream, batch_seq) / query-id digest of its owned arc to its replica
  /// set; peers backfill gaps in both directions (idempotent via store
  /// dedup). Zero disables. Only active when replication_factor > 0.
  sim::Duration anti_entropy_period = sim::Duration();

  // --- Parallel execution engine ------------------------------------------

  /// Worker lanes for the hot paths: per-subscription candidate scans
  /// inside each node's periodic match pass, the per-node match pre-pass of
  /// tick_all_nodes, and per-stream summarization in post_stream_burst.
  /// 1 (the default) never spawns a thread — the serial path of PR 1,
  /// byte-identical and overhead-free. 0 resolves to the hardware
  /// concurrency (1 when unknown). Results are identical at every setting
  /// (see docs/PERFORMANCE.md, "Determinism").
  std::size_t threads = 1;

  // --- Overload control (adversarial-skew extension) ----------------------

  /// Hot-arc splitting, load shedding, and ingest backpressure; nullopt
  /// (the default) disables the whole layer with zero overhead and leaves
  /// every existing run byte-identical.
  std::optional<OverloadOptions> overload;
};

/// One node-local ingest burst for post_stream_burst: `values` are fed to
/// (node, stream) exactly as consecutive post_stream_value calls would be.
struct StreamBurst {
  NodeIndex node = kInvalidNode;
  StreamId stream = 0;
  std::vector<Sample> values;
};

/// What a client has observed for one of its continuous queries.
struct ClientQueryRecord {
  QueryId id = 0;
  NodeIndex client = kInvalidNode;
  bool inner_product = false;
  sim::SimTime issued_at;
  sim::SimTime expires;
  std::uint64_t responses_received = 0;
  /// Distinct matched streams reported across all responses (content-level
  /// dedup: a retransmitted or doubly-aggregated match never counts twice,
  /// so self-healing cannot inflate this).
  std::uint64_t match_events = 0;
  /// Match entries suppressed because their stream was already counted.
  std::uint64_t duplicate_match_events = 0;
  std::unordered_set<StreamId> matched_streams;
  double last_inner_value = 0.0;
  std::uint64_t inner_updates = 0;
  std::optional<sim::SimTime> first_response_at;
};

class MiddlewareSystem {
 public:
  /// Creates one middleware node per routing node and registers the deliver
  /// upcall and metrics hook on `routing`.
  MiddlewareSystem(routing::RoutingSystem& routing, MiddlewareConfig config);

  const MiddlewareConfig& config() const noexcept { return config_; }
  const SummaryMapper& mapper() const noexcept { return mapper_; }
  const IndexingStrategy& strategy() const noexcept { return *strategy_; }
  MetricsCollector& metrics() noexcept { return metrics_; }
  const MetricsCollector& metrics() const noexcept { return metrics_; }
  routing::RoutingSystem& routing() noexcept { return routing_; }

  /// Starts the periodic per-node machinery (expiry, matching, digests,
  /// response pushes). Node ticks are staggered across one period so the
  /// event load spreads out as it would with unsynchronized clocks.
  void start();

  // --- Application-view primitives (Fig 5) --------------------------------

  /// Declares `stream` to originate at `node` and registers it with the h2
  /// location service.
  void register_stream(NodeIndex node, StreamId stream);

  /// Retires a stream: flushes and routes the final partial MBR, drops the
  /// local state, and tombstones the h2 directory entry so future location
  /// lookups report the stream unknown.
  void unregister_stream(NodeIndex node, StreamId stream);

  /// Feeds one new data value of `stream` into its source node. Emits and
  /// routes an MBR whenever the batcher closes one.
  void post_stream_value(NodeIndex node, StreamId stream, Sample value);

  /// Bulk ingest: equivalent to calling post_stream_value for every value
  /// of every burst, in order (burst 0's values first). The per-stream
  /// summarization — the CPU-bound part — runs sharded across the worker
  /// pool (cold windows take the batched push_span path), then the closed
  /// MBRs are routed serially in burst order, so the message sequence, rng
  /// consumption, and all downstream state are byte-identical to the
  /// per-value loop. Bursts must target pairwise-distinct (node, stream)
  /// pairs (checked): a task owns its stream's summarizer exclusively.
  void post_stream_burst(const std::vector<StreamBurst>& bursts);

  /// Poses a continuous similarity query (Sec IV-E). Returns its id.
  QueryId subscribe_similarity(NodeIndex client, dsp::FeatureVector features,
                               double radius, sim::Duration lifespan);

  /// Convenience: extracts features from a raw query sequence first.
  QueryId subscribe_similarity_window(NodeIndex client,
                                      std::span<const Sample> window,
                                      double radius, sim::Duration lifespan);

  /// Poses a continuous inner-product query (Sec IV-D). Returns its id.
  QueryId subscribe_inner_product(NodeIndex client, StreamId stream,
                                  std::vector<double> index,
                                  std::vector<double> weights,
                                  sim::Duration lifespan);

  /// Point query: the stream's most recent value ("simple point and range
  /// queries can be expressed as inner product queries").
  QueryId subscribe_latest_value(NodeIndex client, StreamId stream,
                                 sim::Duration lifespan) {
    return subscribe_inner_product(client, stream, {1.0}, {1.0}, lifespan);
  }

  /// Moving average of the last `n` values (the paper's "average closing
  /// price over the last month" / "weighted average of the last 20 body
  /// temperature measurements" examples).
  QueryId subscribe_moving_average(NodeIndex client, StreamId stream,
                                   std::size_t n, sim::Duration lifespan) {
    SDSI_CHECK(n >= 1);
    return subscribe_inner_product(
        client, stream, std::vector<double>(n, 1.0),
        std::vector<double>(n, 1.0 / static_cast<double>(n)), lifespan);
  }

  // --- Observability -------------------------------------------------------

  /// Attaches middleware state (and the periodic tick, once started) to a
  /// data center that joined the ring after construction. Idempotent; the
  /// paper's "seamless addition of new data centers".
  void attach_node(NodeIndex index);

  /// Ownership handoff for a node that just (re)joined the ring: asks its
  /// successor for every entry whose key range intersects the arc the node
  /// now owns. No-op when replication is disabled. Call after the routing
  /// substrate has integrated the node (join/recover).
  void handle_node_join(NodeIndex index);

  /// Models the state loss of a crash: wipes everything the node held as
  /// soft state (stored MBRs and subscriptions, aggregations, buffered
  /// reports, location directory/cache, pending resolutions, publication
  /// records). Local streams survive — a restarted data center still owns
  /// its data sources (warm restart) and re-registers them on the next
  /// refresh. Call when a crashed node recovers into the ring.
  void reset_node_soft_state(NodeIndex index);

  const MiddlewareNode& node(NodeIndex index) const {
    SDSI_CHECK(index < nodes_.size());
    return nodes_[index];
  }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }

  const ClientQueryRecord* client_record(QueryId id) const;
  const std::unordered_map<QueryId, ClientQueryRecord>& client_records()
      const noexcept {
    return client_records_;
  }

  /// Total MBRs routed since construction.
  std::uint64_t mbrs_routed() const noexcept { return mbrs_routed_; }

  /// Runs one synchronous tick on every node (tests drive time manually).
  /// With a worker pool, the per-node match passes run sharded with a
  /// barrier before the (serial, node-ordered) dispatch phase — message
  /// ordering and all state stay byte-identical to the serial loop, because
  /// nodes only interact through simulator-queued messages.
  void tick_all_nodes();

  /// The parallel engine's pool; nullptr when config.threads resolves to 1.
  WorkerPool* worker_pool() noexcept { return pool_.get(); }

  // --- Overload control ----------------------------------------------------

  /// Source-side backpressure level in [0, 1]: how full the node's deferral
  /// queue is. Generators consult this to stretch their emission gaps
  /// (slow down) instead of having the middleware drop their batches.
  double ingest_backpressure(NodeIndex node) const;

  // --- Observation hooks (recall-oracle feeding) --------------------------

  /// Called synchronously whenever a source closes and routes an MBR batch
  /// (first publication only — not retries or refreshes).
  using MbrPublishHook = std::function<void(const MbrPayload&)>;
  /// Called synchronously whenever a similarity query is posed.
  using QueryPoseHook =
      std::function<void(std::shared_ptr<const SimilarityQuery>)>;
  void set_publish_hook(MbrPublishHook hook) {
    publish_hook_ = std::move(hook);
  }
  void set_query_hook(QueryPoseHook hook) { query_hook_ = std::move(hook); }

 private:
  using Message = routing::Message;

  void on_deliver(NodeIndex at, const Message& msg);
  void handle_mbr(NodeIndex at, const Message& msg);
  void handle_similarity_query(NodeIndex at, const Message& msg);
  void handle_inner_query(NodeIndex at, const Message& msg);
  void handle_response(NodeIndex at, const Message& msg);
  void handle_mbr_ack(NodeIndex at, const Message& msg);
  void handle_response_ack(NodeIndex at, const Message& msg);
  void handle_neighbor_digest(NodeIndex at, const Message& msg);
  void handle_location_put(NodeIndex at, const Message& msg);
  void handle_location_get(NodeIndex at, const Message& msg);
  void handle_location_reply(NodeIndex at, const Message& msg);
  void handle_replica_put(NodeIndex at, const Message& msg);
  void handle_handoff_request(NodeIndex at, const Message& msg);
  void handle_anti_entropy_digest(NodeIndex at, const Message& msg);
  void handle_anti_entropy_request(NodeIndex at, const Message& msg);
  void handle_aggregator_replica(NodeIndex at, const Message& msg);

  /// The NPER periodic body for one node: the match pass (sharded across
  /// the pool when one is attached), then dispatch_tick.
  void periodic_tick(NodeIndex index);

  /// Everything in the periodic body except the match pass itself:
  /// aggregator-replica promotion, publication pruning, filing the fresh
  /// matches, digest relays, response pushes, inner-product answers. Takes
  /// the precomputed match set so tick_all_nodes can hoist the (pure,
  /// per-node) match passes into a parallel pre-pass.
  void dispatch_tick(NodeIndex index, sim::SimTime now,
                     std::vector<SimilarityMatch> fresh);

  /// nodes_[index], growing the table for late joiners.
  MiddlewareNode& state_of(NodeIndex index);

  void schedule_tick(NodeIndex index, sim::Duration offset);

  /// Routes the MBR just closed for (node, stream): the backpressure gate
  /// (defer when the source's publish budget is spent) in front of
  /// publish_mbr.
  void route_mbr(NodeIndex source, LocalStream& stream, dsp::Mbr mbr);

  /// The actual publication body: assigns the batch_seq, stores locally,
  /// range-multicasts, and arms acks/refresh tracking.
  void publish_mbr(NodeIndex source, LocalStream& stream, dsp::Mbr mbr);

  /// Files a detected match either into the local aggregator (if the
  /// middle key falls on `at`'s arc (pred_id, self_id]) or into the
  /// outgoing digest buffer of its shorter direction (ties go up).
  void file_match_report(NodeIndex at, Key pred_id, Key self_id,
                         MatchReport report);

  /// Whether `node` covers `key` (key in (pred, node]).
  bool covers_key(NodeIndex node, Key key) const;

  /// Sends the inner-product query to its (resolved) source node.
  void dispatch_inner_query(NodeIndex client,
                            std::shared_ptr<const InnerProductQuery> query,
                            NodeIndex source);

  /// Re-asks the location service about a stream whose first resolution
  /// came back unknown (registration racing through the overlay).
  void retry_location_get(NodeIndex client, StreamId stream);

  /// Delay before retry number `attempts` (0-based) under `policy`:
  /// min(timeout * 2^attempts, max_backoff) + uniform[0, jitter).
  sim::Duration backoff_delay(const RetryPolicy& policy, int attempts);

  /// Marks (stream, batch_seq) as confirmed stored at `source`; records the
  /// heal latency when retransmissions were needed. No-op if the record is
  /// gone or already confirmed.
  void note_mbr_ack(NodeIndex source, StreamId stream, std::uint64_t seq);

  /// (Re)arms the ack timeout of a tracked publication.
  void arm_mbr_retry(NodeIndex source, StreamId stream, std::uint64_t seq);
  void on_mbr_ack_timeout(NodeIndex source, StreamId stream,
                          std::uint64_t seq);

  /// Emits a self-healing trace event (retry/heal/refresh) under the
  /// publication's trace id when a trace sink is attached.
  void emit_heal_trace(obs::TraceEventKind event, NodeIndex node,
                       StreamId stream, std::uint64_t seq,
                       std::uint64_t trace_id);

  /// Soft-state refresh body for one node: re-route every live published
  /// batch and re-register local streams with the location service.
  void refresh_node_mbrs(NodeIndex index);
  void schedule_mbr_refresh(NodeIndex index, sim::Duration offset);

  // --- Replication & failover helpers -------------------------------------

  /// Whether the replication layer is on.
  bool replication_on() const noexcept {
    return config_.replication_factor > 0;
  }

  /// Sends `payload` as a `kind` message from `at` to each member of its
  /// replica set (detouring past a dead member); returns how many.
  std::size_t send_to_replica_set(NodeIndex at, MsgKind kind,
                                  const std::any& payload);

  /// Mirrors freshly stored entries to `at`'s replica set, with the puts
  /// accounting and one replicate trace event keyed by the trace fields.
  void mirror_put(NodeIndex at, ReplicaPutPayload put, StreamId trace_stream,
                  std::uint64_t trace_seq);

  /// Mirrors one just-stored MBR batch to `at`'s replica set. Called by the
  /// key-range owner only (the node covering the range's hi end), so each
  /// batch is mirrored once per publication.
  void mirror_mbr(NodeIndex at, const MbrPayload& entry);

  /// Mirrors one just-installed subscription to `at`'s replica set.
  void mirror_subscription(NodeIndex at, const IndexStore::Subscription& sub);

  /// Mirrors one freshly filed match of a locally aggregated query to the
  /// middle key's replica set (incremental AggregatorRecord replication).
  void mirror_aggregation(NodeIndex at, QueryId query,
                          const AggregatorRecord& record, Key middle_key,
                          const SimilarityMatch& match);

  /// Promotes expired-owner mirrors: any AggregationReplica whose middle key
  /// now falls on this node's arc becomes a live AggregatorRecord. Runs at
  /// the head of each periodic tick.
  void promote_aggregation_replicas(NodeIndex index, sim::SimTime now);

  /// Anti-entropy body for one node: digest of its owned arc to its replica
  /// set.
  void anti_entropy_tick(NodeIndex index);
  void schedule_anti_entropy(NodeIndex index, sim::Duration offset);

  /// Emits a replication-layer trace event (replicate/handoff/repair/
  /// failover) when a trace sink is attached.
  void emit_replication_trace(obs::TraceEventKind event, NodeIndex node,
                              StreamId stream, std::uint64_t seq);

  /// Approximate wire size of a handoff payload's entries (handoff_bytes
  /// accounting).
  static std::size_t handoff_bytes(const ReplicaPutPayload& put);

  /// Point-to-point message from `at` to `to` that detours past a dead
  /// destination to its successor-list replacement instead of dropping.
  void send_detouring(NodeIndex at, NodeIndex to, MsgKind kind,
                      std::any payload);

  // --- Overload-control helpers --------------------------------------------

  /// Credits `units` of index work to `node`: feeds both the per-window
  /// hot-arc counters and the exported per-node work totals. Serial-path
  /// call sites only (determinism).
  void note_node_work(NodeIndex node, std::uint64_t units);

  /// The store body shared by handle_mbr's split and non-split paths:
  /// add_mbr with duplicate accounting, work credit, and the replica-set
  /// mirror when this node owns the range's hi end. Returns whether the
  /// entry was freshly stored.
  bool store_mbr_with_work(NodeIndex at, const Message& msg,
                           const MbrPayload& payload, sim::SimTime now);

  /// The load-shedding gate for one delivered MBR store attempt at `at`.
  /// Returns true when the store must be skipped; the drop is then already
  /// accounted (kShedOverload via the routing drop path + shed_mbrs).
  bool shed_ingest(NodeIndex at, const Message& msg);

  /// Where a hot node's store lands within its split group: itself
  /// (kInvalidNode = keep local) or one of its delegates, chosen by a
  /// deterministic hash of (stream, batch_seq).
  NodeIndex divert_target(const MiddlewareNode& state, StreamId stream,
                          std::uint64_t batch_seq) const;

  /// Forwards one store entry to a split delegate via kReplicaPut
  /// (idempotent at the receiver).
  void divert_store(NodeIndex at, NodeIndex target, const MbrPayload& entry);

  /// Mirrors every live subscription of `node` to its split delegates so
  /// diverted MBRs still meet the subscriptions they must match.
  void mirror_subscriptions_to_delegates(NodeIndex node);

  /// Forwards one freshly installed subscription to `node`'s delegates
  /// (keeps the split group matching while hot).
  void forward_subscription_to_delegates(
      NodeIndex node, const IndexStore::Subscription& sub);

  /// Source-side deferral: queues the closed batch; on queue overflow the
  /// oldest deferred batch is dropped as accounted kBackpressure.
  void defer_publication(NodeIndex source, StreamId stream, dsp::Mbr mbr);

  /// The global detector window: harvests + resets per-node work counters,
  /// applies split/merge transitions, and drains deferral queues into the
  /// fresh publish budgets. Runs serially off the simulator.
  void overload_tick();

  /// Accounts one overload-layer drop (shed or backpressure) through the
  /// routing drop path so it lands in drops_by_cause, the registry series,
  /// and the trace stream like every other loss.
  void account_overload_drop(fault::DropCause cause, NodeIndex origin);

  routing::RoutingSystem& routing_;
  MiddlewareConfig config_;
  SummaryMapper mapper_;
  /// The pluggable summary/key-map pair; never null (defaults to "dft").
  std::unique_ptr<IndexingStrategy> strategy_;
  /// Scratch for multi-range strategies' probe sets (serial paths only).
  std::vector<std::pair<Key, Key>> range_scratch_;
  MetricsCollector metrics_;
  /// Parallel engine for the hot paths; null when threads resolves to 1, so
  /// the serial path carries zero pool overhead.
  std::unique_ptr<WorkerPool> pool_;
  std::vector<MiddlewareNode> nodes_;
  std::unordered_map<QueryId, ClientQueryRecord> client_records_;
  QueryId next_query_id_ = 1;
  std::uint64_t mbrs_routed_ = 0;
  bool started_ = false;
  common::Pcg32 rng_;  // retry jitter (seeded from config; reproducible)
  MbrPublishHook publish_hook_;
  QueryPoseHook query_hook_;
  HotArcDetector hot_arc_;  // overload layer; empty unless config.overload
};

}  // namespace sdsi::core
