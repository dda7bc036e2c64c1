#include "core/system.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "core/replica_sync.hpp"
#include "dsp/normalize.hpp"

namespace sdsi::core {

MiddlewareSystem::MiddlewareSystem(routing::RoutingSystem& routing,
                                   MiddlewareConfig config)
    : routing_(routing),
      config_(config),
      mapper_(routing.id_space()),
      metrics_(routing.num_nodes()),
      pool_(WorkerPool::resolve(config.threads) > 1
                ? std::make_unique<WorkerPool>(config.threads)
                : nullptr),
      nodes_(routing.num_nodes()),
      rng_(common::RngFactory(config.rng_seed).make("middleware.jitter")) {
  config_.features.validate();
  strategy_ = IndexingStrategy::make(config_.strategy, config_.features,
                                     routing_.id_space());
  if (config_.overload.has_value()) {
    SDSI_CHECK(config_.overload->split_ways >= 1);
    SDSI_CHECK(config_.overload->forced_shed_rate >= 0.0 &&
               config_.overload->forced_shed_rate < 1.0);
    SDSI_CHECK(config_.overload->window > sim::Duration());
    hot_arc_ = HotArcDetector(config_.overload->detector, nodes_.size());
  }
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    nodes_[i].index = i;
  }
  metrics_.set_clock(&routing_.simulator());
  routing_.set_metrics_hook(&metrics_);
  routing_.set_deliver(
      [this](NodeIndex at, const Message& msg) { on_deliver(at, msg); });
}

void MiddlewareSystem::schedule_tick(NodeIndex index, sim::Duration offset) {
  sim::Simulator& sim = routing_.simulator();
  sim.schedule_periodic(sim.now() + offset + config_.notify_period,
                        config_.notify_period,
                        [this, index] { periodic_tick(index); });
}

void MiddlewareSystem::start() {
  SDSI_CHECK(!started_);
  started_ = true;
  const std::int64_t period_us = config_.notify_period.count_micros();
  const std::int64_t refresh_us = config_.mbr_refresh_period.count_micros();
  const std::int64_t entropy_us =
      replication_on() ? config_.anti_entropy_period.count_micros() : 0;
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    // Stagger ticks across one period: data centers do not share a clock.
    schedule_tick(i, sim::Duration::micros(
                         period_us * static_cast<std::int64_t>(i) /
                         static_cast<std::int64_t>(nodes_.size())));
    if (refresh_us > 0) {
      schedule_mbr_refresh(
          i, sim::Duration::micros(refresh_us * static_cast<std::int64_t>(i) /
                                   static_cast<std::int64_t>(nodes_.size())));
    }
    if (entropy_us > 0) {
      schedule_anti_entropy(
          i, sim::Duration::micros(entropy_us * static_cast<std::int64_t>(i) /
                                   static_cast<std::int64_t>(nodes_.size())));
    }
  }
  if (config_.overload.has_value()) {
    // One GLOBAL detector window (not per-node, not staggered): split and
    // merge decisions read every node's counter in one serial pass, so the
    // schedule is a pure function of the seed at any thread count.
    sim::Simulator& sim = routing_.simulator();
    sim.schedule_periodic(sim.now() + config_.overload->window,
                          config_.overload->window,
                          [this] { overload_tick(); });
  }
}

MiddlewareNode& MiddlewareSystem::state_of(NodeIndex index) {
  if (index >= nodes_.size()) {
    attach_node(index);
  }
  return nodes_[index];
}

void MiddlewareSystem::attach_node(NodeIndex index) {
  while (nodes_.size() <= index) {
    const auto fresh = static_cast<NodeIndex>(nodes_.size());
    nodes_.emplace_back();
    nodes_.back().index = fresh;
    if (started_) {
      schedule_tick(fresh, sim::Duration());
      if (config_.mbr_refresh_period > sim::Duration()) {
        schedule_mbr_refresh(fresh, sim::Duration());
      }
      if (replication_on() &&
          config_.anti_entropy_period > sim::Duration()) {
        schedule_anti_entropy(fresh, sim::Duration());
      }
    }
  }
  metrics_.ensure_nodes(nodes_.size());
}

void MiddlewareSystem::reset_node_soft_state(NodeIndex index) {
  MiddlewareNode& state = state_of(index);
  state.store = IndexStore{};
  state.aggregations.clear();
  state.outgoing_up.clear();
  state.outgoing_down.clear();
  state.location_directory.clear();
  state.location_cache.clear();
  state.pending_inner_queries.clear();
  for (auto& [key, pub] : state.published_mbrs) {
    pub.retry_timer.cancel();
  }
  state.published_mbrs.clear();
  state.location_retry_attempts.clear();
  state.aggregation_replicas.clear();
  state.overload = MiddlewareNode::OverloadState{};
}

// --- Application primitives --------------------------------------------------

void MiddlewareSystem::register_stream(NodeIndex node, StreamId stream) {
  MbrBatcher::Options batching = config_.batching;
  if (config_.adaptive_precision.has_value()) {
    batching.mode = MbrBatcher::Mode::kAdaptive;
    batching.max_extent =
        AdaptivePrecisionController(*config_.adaptive_precision).extent();
  }
  auto [it, inserted] = state_of(node).streams.try_emplace(
      stream, stream, *strategy_, batching);
  SDSI_CHECK(inserted);
  if (config_.adaptive_precision.has_value()) {
    it->second.precision.emplace(*config_.adaptive_precision);
  }

  Message msg;
  msg.kind = MsgKind::kLocationPut;
  msg.payload = std::make_shared<const LocationPutPayload>(
      LocationPutPayload{stream, node});
  routing_.send(node, mapper_.key_for_stream(stream), std::move(msg));
}

void MiddlewareSystem::unregister_stream(NodeIndex node, StreamId stream) {
  MiddlewareNode& state = state_of(node);
  const auto it = state.streams.find(stream);
  SDSI_CHECK(it != state.streams.end());
  if (std::optional<dsp::Mbr> partial = it->second.batcher.flush()) {
    route_mbr(node, it->second, std::move(*partial));
  }
  state.streams.erase(it);

  Message msg;
  msg.kind = MsgKind::kLocationPut;
  msg.payload = std::make_shared<const LocationPutPayload>(
      LocationPutPayload{stream, kInvalidNode});  // tombstone
  routing_.send(node, mapper_.key_for_stream(stream), std::move(msg));
}

namespace {

/// The pure (routing-free) part of ingesting one value: summarizer push,
/// feature extraction, batcher update, adaptive-precision observation.
/// Closed MBRs are appended to `closed` for the caller to route. Shared by
/// the per-value and burst ingest paths so they cannot diverge.
void summarize_value(LocalStream& local, Sample value,
                     std::vector<dsp::Mbr>& closed) {
  local.summarizer->push(value);
  if (!local.summarizer->features_into(local.features_scratch)) {
    return;  // window not full yet, or degenerate (constant) window
  }
  std::optional<dsp::Mbr> mbr = local.batcher.push(local.features_scratch);
  if (local.precision.has_value()) {
    local.batcher.set_max_extent(local.precision->observe(mbr.has_value()));
  }
  if (mbr.has_value()) {
    closed.push_back(std::move(*mbr));
  }
}

}  // namespace

void MiddlewareSystem::post_stream_value(NodeIndex node, StreamId stream,
                                         Sample value) {
  MiddlewareNode& state = state_of(node);
  const auto it = state.streams.find(stream);
  SDSI_CHECK(it != state.streams.end());
  LocalStream& local = it->second;
  std::vector<dsp::Mbr> closed;
  summarize_value(local, value, closed);
  for (dsp::Mbr& mbr : closed) {
    route_mbr(node, local, std::move(mbr));
  }
}

void MiddlewareSystem::post_stream_burst(
    const std::vector<StreamBurst>& bursts) {
  struct Task {
    LocalStream* local = nullptr;
    const StreamBurst* burst = nullptr;
    std::vector<dsp::Mbr> closed;
  };
  std::vector<Task> tasks;
  tasks.reserve(bursts.size());
  std::set<std::pair<NodeIndex, StreamId>> targets;
  for (const StreamBurst& burst : bursts) {
    MiddlewareNode& state = state_of(burst.node);
    const auto it = state.streams.find(burst.stream);
    SDSI_CHECK(it != state.streams.end());
    SDSI_CHECK(targets.emplace(burst.node, burst.stream).second &&
               "bursts must target distinct (node, stream) pairs");
    tasks.push_back(Task{&it->second, &burst, {}});
  }
  // Phase 1 — summarize, sharded across the pool. Each task owns its
  // stream's summarizer/batcher exclusively (distinct targets, checked
  // above) and touches nothing else, so the only coordination is the
  // barrier. While the window cannot fill yet the serial path consults no
  // features, so that cold prefix takes the batched push_span lane.
  const auto summarize_burst = [](Task& task) {
    LocalStream& local = *task.local;
    std::span<const Sample> values(task.burst->values);
    const std::size_t until_ready = local.summarizer->samples_until_ready();
    if (until_ready > 1) {
      const std::size_t cold = std::min(values.size(), until_ready - 1);
      local.summarizer->push_span(values.first(cold));
      values = values.subspan(cold);
    }
    for (const Sample value : values) {
      summarize_value(local, value, task.closed);
    }
  };
  if (pool_ != nullptr && tasks.size() > 1) {
    pool_->parallel_for(tasks.size(),
                        [&](std::size_t i) { summarize_burst(tasks[i]); });
  } else {
    for (Task& task : tasks) {
      summarize_burst(task);
    }
  }
  // Phase 2 — route the closed MBRs serially in burst order. Routing never
  // feeds back into summarization, so this sequence (messages, batch_seq,
  // retry-jitter rng draws) is exactly the per-value loop's.
  for (Task& task : tasks) {
    for (dsp::Mbr& mbr : task.closed) {
      route_mbr(task.burst->node, *task.local, std::move(mbr));
    }
  }
}

void MiddlewareSystem::route_mbr(NodeIndex source, LocalStream& stream,
                                 dsp::Mbr mbr) {
  if (config_.overload.has_value() && config_.overload->publish_budget > 0) {
    MiddlewareNode::OverloadState& ov = nodes_[source].overload;
    if (ov.window_published >= config_.overload->publish_budget) {
      defer_publication(source, stream.id, std::move(mbr));
      return;
    }
    ++ov.window_published;
  }
  publish_mbr(source, stream, std::move(mbr));
}

void MiddlewareSystem::publish_mbr(NodeIndex source, LocalStream& stream,
                                   dsp::Mbr mbr) {
  const sim::SimTime now = routing_.simulator().now();
  // The strategy may return several ranges (multi-probe lsh); the first is
  // the primary, which alone drives acks, refresh, and replication mirrors.
  // For dft/ecm the set is exactly the paper's Eq. 6 interval.
  strategy_->key_map().mbr_ranges(mbr, range_scratch_);
  const auto [lo, hi] = range_scratch_.front();
  // The expiry instant is fixed HERE, once: retransmissions and refreshes
  // re-send the identical payload, so every replica stores the same entry
  // and redelivery stays idempotent.
  const sim::SimTime expires = now + config_.mbr_lifespan;
  const auto payload = std::make_shared<const MbrPayload>(MbrPayload{
      stream.id, source, std::move(mbr), stream.batch_seq++, expires});
  if (publish_hook_) {
    publish_hook_(*payload);
  }

  if (config_.store_local_summaries) {
    const bool added = nodes_[source].store.add_mbr(
        payload->stream, source, payload->mbr, payload->batch_seq, now,
        expires);
    if (added) {
      note_node_work(source, 1);
    }
    // When the source itself owns the range's hi end, the routed copy will
    // dedup against this local store and handle_mbr never sees a first
    // store — mirror from here so the batch still reaches the replica set.
    if (added && replication_on() && covers_key(source, hi)) {
      mirror_mbr(source, *payload);
    }
  }

  Message msg;
  msg.kind = MsgKind::kMbrUpdate;
  msg.payload = payload;
  // With replication on, a landing copy whose terminal hop died in flight
  // detours to the successor-list replica, which stores and acks — cutting
  // the retry tail short.
  msg.reroute_on_dead = replication_on();
  // Allocate the publication's trace id up front so retries and refreshes
  // can re-use it (routing would otherwise mint a fresh one per send).
  const std::uint64_t trace_id = routing_.allocate_trace_id();
  msg.trace_id = trace_id;
  routing_.send_range(source, lo, hi, std::move(msg), config_.multicast);
  ++mbrs_routed_;

  // Extra probe ranges (multi-probe strategies; none for dft/ecm). Each
  // carries the same idempotent payload, so redundant landings dedup; they
  // are fire-and-forget — only the primary range is acked and refreshed.
  for (std::size_t i = 1; i < range_scratch_.size(); ++i) {
    Message probe;
    probe.kind = MsgKind::kMbrUpdate;
    probe.payload = payload;
    probe.reroute_on_dead = replication_on();
    routing_.send_range(source, range_scratch_[i].first,
                        range_scratch_[i].second, std::move(probe),
                        config_.multicast);
  }

  if (config_.mbr_ack.enabled ||
      config_.mbr_refresh_period > sim::Duration()) {
    PublishedMbr pub;
    pub.payload = payload;
    pub.lo = lo;
    pub.hi = hi;
    pub.first_sent = now;
    pub.trace_id = trace_id;
    nodes_[source].published_mbrs.insert_or_assign(
        std::make_pair(payload->stream, payload->batch_seq), std::move(pub));
    if (config_.mbr_ack.enabled) {
      arm_mbr_retry(source, payload->stream, payload->batch_seq);
    }
  }
}

sim::Duration MiddlewareSystem::backoff_delay(const RetryPolicy& policy,
                                              int attempts) {
  const std::int64_t cap = policy.max_backoff.count_micros();
  std::int64_t delay = policy.timeout.count_micros();
  for (int i = 0; i < attempts && delay < cap; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, cap);
  const std::int64_t jitter_span = policy.jitter.count_micros();
  if (jitter_span > 0) {
    delay += rng_.uniform_int(0, jitter_span - 1);
  }
  return sim::Duration::micros(delay);
}

void MiddlewareSystem::emit_heal_trace(obs::TraceEventKind event,
                                       NodeIndex node, StreamId stream,
                                       std::uint64_t seq,
                                       std::uint64_t trace_id) {
  obs::TraceSink* sink = routing_.trace_sink();
  if (sink == nullptr) {
    return;
  }
  obs::TraceRecord record;
  record.trace_id = trace_id;
  record.event = event;
  record.at_us = routing_.simulator().now().count_micros();
  record.node = node;
  record.kind = static_cast<int>(MsgKind::kMbrUpdate);
  record.stream = stream;
  record.batch_seq = seq;
  sink->record(record);
}

void MiddlewareSystem::note_mbr_ack(NodeIndex source, StreamId stream,
                                    std::uint64_t seq) {
  if (source >= nodes_.size()) {
    return;
  }
  MiddlewareNode& state = nodes_[source];
  const auto it = state.published_mbrs.find({stream, seq});
  if (it == state.published_mbrs.end() || it->second.acked) {
    return;
  }
  PublishedMbr& pub = it->second;
  pub.acked = true;
  pub.retry_timer.cancel();
  if (pub.attempts > 0) {
    const double ms =
        (routing_.simulator().now() - pub.first_sent).as_millis();
    emit_heal_trace(obs::TraceEventKind::kHeal, source, stream, seq,
                    pub.trace_id);
    // The registry series cover the whole run (warm-up included), like the
    // routing-side series in MetricsCollector.
    if (metrics_.registry() != nullptr) {
      metrics_.registry()->histogram("heal.latency_ms").add(ms);
    }
    if (metrics_.recording()) {
      metrics_.robustness().heal_latency_ms.add(ms);
    }
  }
  if (metrics_.recording()) {
    ++metrics_.robustness().mbr_acks;
  }
}

void MiddlewareSystem::arm_mbr_retry(NodeIndex source, StreamId stream,
                                     std::uint64_t seq) {
  MiddlewareNode& state = nodes_[source];
  const auto it = state.published_mbrs.find({stream, seq});
  SDSI_CHECK(it != state.published_mbrs.end());
  PublishedMbr& pub = it->second;
  pub.retry_timer = routing_.simulator().schedule_after(
      backoff_delay(config_.mbr_ack, pub.attempts),
      [this, source, stream, seq] { on_mbr_ack_timeout(source, stream, seq); });
}

void MiddlewareSystem::on_mbr_ack_timeout(NodeIndex source, StreamId stream,
                                          std::uint64_t seq) {
  if (!routing_.is_alive(source)) {
    return;  // a recovered source starts over via reset_node_soft_state
  }
  MiddlewareNode& state = nodes_[source];
  const auto it = state.published_mbrs.find({stream, seq});
  if (it == state.published_mbrs.end() || it->second.acked) {
    return;
  }
  PublishedMbr& pub = it->second;
  const sim::SimTime now = routing_.simulator().now();
  if (pub.payload->expires <= now) {
    state.published_mbrs.erase(it);  // batch lapsed; nothing left to heal
    return;
  }
  if (pub.attempts >= config_.mbr_ack.max_attempts) {
    if (metrics_.recording()) {
      ++metrics_.robustness().mbr_retry_exhausted;
    }
    return;  // budget spent; the soft-state refresh is the backstop now
  }
  ++pub.attempts;
  if (metrics_.recording()) {
    ++metrics_.robustness().mbr_retries;
  }
  if (metrics_.registry() != nullptr) {
    metrics_.registry()->counter("heal.retries").add();
  }
  emit_heal_trace(obs::TraceEventKind::kRetry, source, stream, seq,
                  pub.trace_id);
  Message retry;
  retry.kind = MsgKind::kMbrUpdate;
  retry.payload = pub.payload;
  retry.trace_id = pub.trace_id;
  retry.reroute_on_dead = replication_on();
  routing_.send_range(source, pub.lo, pub.hi, std::move(retry),
                      config_.multicast);
  if (replication_on()) {
    // Hedged retry: a second multicast staggered past the mean burst
    // length, so a loss burst that swallows the retry no longer doubles the
    // heal time to another full timeout. Store dedup and idempotent acks
    // make the extra copy side-effect free (replicas mirror only on first
    // store), and hedges run only on the rare already-failed publications.
    routing_.simulator().schedule_after(
        sim::Duration::millis(150), [this, source, stream, seq] {
          if (!routing_.is_alive(source)) {
            return;
          }
          MiddlewareNode& src_state = nodes_[source];
          const auto hedge_it = src_state.published_mbrs.find({stream, seq});
          if (hedge_it == src_state.published_mbrs.end() ||
              hedge_it->second.acked ||
              hedge_it->second.payload->expires <=
                  routing_.simulator().now()) {
            return;
          }
          PublishedMbr& pending = hedge_it->second;
          if (metrics_.registry() != nullptr) {
            metrics_.registry()->counter("heal.retry_hedges").add();
          }
          Message hedge;
          hedge.kind = MsgKind::kMbrUpdate;
          hedge.payload = pending.payload;
          hedge.trace_id = pending.trace_id;
          hedge.reroute_on_dead = true;
          routing_.send_range(source, pending.lo, pending.hi,
                              std::move(hedge), config_.multicast);
        });
  }
  arm_mbr_retry(source, stream, seq);
}

void MiddlewareSystem::schedule_mbr_refresh(NodeIndex index,
                                            sim::Duration offset) {
  sim::Simulator& sim = routing_.simulator();
  sim.schedule_periodic(sim.now() + offset + config_.mbr_refresh_period,
                        config_.mbr_refresh_period,
                        [this, index] { refresh_node_mbrs(index); });
}

void MiddlewareSystem::refresh_node_mbrs(NodeIndex index) {
  if (!routing_.is_alive(index)) {
    return;
  }
  MiddlewareNode& state = nodes_[index];
  const sim::SimTime now = routing_.simulator().now();
  for (auto it = state.published_mbrs.begin();
       it != state.published_mbrs.end();) {
    PublishedMbr& pub = it->second;
    if (pub.payload->expires <= now) {
      pub.retry_timer.cancel();
      it = state.published_mbrs.erase(it);
      continue;
    }
    Message msg;
    msg.kind = MsgKind::kMbrUpdate;
    msg.payload = pub.payload;
    msg.trace_id = pub.trace_id;
    msg.reroute_on_dead = replication_on();
    emit_heal_trace(obs::TraceEventKind::kRefresh, index,
                    pub.payload->stream, pub.payload->batch_seq,
                    pub.trace_id);
    routing_.send_range(index, pub.lo, pub.hi, std::move(msg),
                        config_.multicast);
    if (metrics_.recording()) {
      ++metrics_.robustness().mbr_refreshes;
    }
    if (metrics_.registry() != nullptr) {
      metrics_.registry()->counter("heal.refreshes").add();
    }
    ++it;
  }
  // Heal the h2 directory too: the fragment holding one of our streams'
  // mappings may itself have crashed and lost the registration.
  for (const auto& [stream_id, local] : state.streams) {
    (void)local;
    Message msg;
    msg.kind = MsgKind::kLocationPut;
    msg.payload = std::make_shared<const LocationPutPayload>(
        LocationPutPayload{stream_id, index});
    routing_.send(index, mapper_.key_for_stream(stream_id), std::move(msg));
  }
}

QueryId MiddlewareSystem::subscribe_similarity(NodeIndex client,
                                               dsp::FeatureVector features,
                                               double radius,
                                               sim::Duration lifespan) {
  (void)state_of(client);
  SDSI_CHECK(radius >= 0.0);
  const sim::SimTime now = routing_.simulator().now();
  const QueryId id = next_query_id_++;

  auto query = std::make_shared<const SimilarityQuery>(SimilarityQuery{
      id, client, std::move(features), radius, lifespan, now});
  if (query_hook_) {
    query_hook_(query);
  }
  // Primary range first: its midpoint keys the aggregator, and the refresh
  // loop below re-sends it alone. Extra probe ranges (multi-probe lsh) are
  // installed once, fire-and-forget, after the primary send.
  strategy_->key_map().query_ranges(query->features, radius, range_scratch_);
  const auto [lo, hi] = range_scratch_.front();
  const Key middle = routing_.id_space().midpoint(lo, hi);
  const std::vector<std::pair<Key, Key>> probes(range_scratch_.begin() + 1,
                                                range_scratch_.end());

  ClientQueryRecord record;
  record.id = id;
  record.client = client;
  record.issued_at = now;
  record.expires = now + lifespan;
  client_records_.emplace(id, std::move(record));

  const auto payload = std::make_shared<const SimilarityQueryPayload>(
      SimilarityQueryPayload{std::move(query), middle});
  Message msg;
  msg.kind = MsgKind::kSimilarityQuery;
  msg.payload = payload;
  msg.reroute_on_dead = replication_on();
  routing_.send_range(client, lo, hi, std::move(msg), config_.multicast);

  for (const auto& [plo, phi] : probes) {
    Message probe;
    probe.kind = MsgKind::kSimilarityQuery;
    probe.payload = payload;
    probe.reroute_on_dead = replication_on();
    routing_.send_range(client, plo, phi, std::move(probe),
                        config_.multicast);
  }

  if (config_.query_refresh_period > sim::Duration()) {
    // Soft state: periodically reinstall the subscription across the range
    // until the lifespan runs out.
    sim::Simulator& sim = routing_.simulator();
    const sim::SimTime expires = now + lifespan;
    auto handle = std::make_shared<sim::TaskHandle>();
    *handle = sim.schedule_periodic(
        sim.now() + config_.query_refresh_period,
        config_.query_refresh_period,
        [this, client, lo, hi, payload, expires, handle] {
          if (routing_.simulator().now() >= expires ||
              !routing_.is_alive(client)) {
            handle->cancel();
            return;
          }
          Message refresh;
          refresh.kind = MsgKind::kSimilarityQuery;
          refresh.payload = payload;
          refresh.reroute_on_dead = replication_on();
          routing_.send_range(client, lo, hi, std::move(refresh),
                              config_.multicast);
        });
  }
  return id;
}

QueryId MiddlewareSystem::subscribe_similarity_window(
    NodeIndex client, std::span<const Sample> window, double radius,
    sim::Duration lifespan) {
  return subscribe_similarity(
      client, strategy_->features_from_window(window), radius, lifespan);
}

QueryId MiddlewareSystem::subscribe_inner_product(
    NodeIndex client, StreamId stream, std::vector<double> index,
    std::vector<double> weights, sim::Duration lifespan) {
  (void)state_of(client);
  SDSI_CHECK(index.size() == weights.size());
  SDSI_CHECK(index.size() <= config_.features.window_size);
  const sim::SimTime now = routing_.simulator().now();
  const QueryId id = next_query_id_++;
  auto query = std::make_shared<const InnerProductQuery>(
      InnerProductQuery{id, client, stream, std::move(index),
                        std::move(weights), lifespan, now});

  ClientQueryRecord record;
  record.id = id;
  record.client = client;
  record.inner_product = true;
  record.issued_at = now;
  record.expires = now + lifespan;
  client_records_.emplace(id, std::move(record));

  MiddlewareNode& state = state_of(client);
  const auto cached = state.location_cache.find(stream);
  if (cached != state.location_cache.end()) {
    dispatch_inner_query(client, std::move(query), cached->second);
    return id;
  }
  const bool resolution_in_flight =
      state.pending_inner_queries.contains(stream);
  state.pending_inner_queries[stream].push_back(std::move(query));
  if (!resolution_in_flight) {
    Message msg;
    msg.kind = MsgKind::kLocationGet;
    msg.payload = std::make_shared<const LocationGetPayload>(
        LocationGetPayload{stream, client});
    routing_.send(client, mapper_.key_for_stream(stream), std::move(msg));
  }
  return id;
}

void MiddlewareSystem::dispatch_inner_query(
    NodeIndex client, std::shared_ptr<const InnerProductQuery> query,
    NodeIndex source) {
  Message msg;
  msg.kind = MsgKind::kInnerProductQuery;
  msg.payload = std::make_shared<const InnerProductQueryPayload>(
      InnerProductQueryPayload{std::move(query)});
  routing_.send(client, routing_.node_id(source), std::move(msg));
}

// --- Delivery dispatch --------------------------------------------------------

void MiddlewareSystem::on_deliver(NodeIndex at, const Message& msg) {
  switch (msg.kind) {
    case MsgKind::kMbrUpdate:
      handle_mbr(at, msg);
      return;
    case MsgKind::kSimilarityQuery:
      handle_similarity_query(at, msg);
      return;
    case MsgKind::kInnerProductQuery:
      handle_inner_query(at, msg);
      return;
    case MsgKind::kResponse:
      handle_response(at, msg);
      return;
    case MsgKind::kNeighborExchange:
      handle_neighbor_digest(at, msg);
      return;
    case MsgKind::kLocationPut:
      handle_location_put(at, msg);
      return;
    case MsgKind::kLocationGet:
      handle_location_get(at, msg);
      return;
    case MsgKind::kLocationReply:
      handle_location_reply(at, msg);
      return;
    case MsgKind::kMbrAck:
      handle_mbr_ack(at, msg);
      return;
    case MsgKind::kResponseAck:
      handle_response_ack(at, msg);
      return;
    case MsgKind::kReplicaPut:
      handle_replica_put(at, msg);
      return;
    case MsgKind::kHandoffRequest:
      handle_handoff_request(at, msg);
      return;
    case MsgKind::kAntiEntropyDigest:
      handle_anti_entropy_digest(at, msg);
      return;
    case MsgKind::kAntiEntropyRequest:
      handle_anti_entropy_request(at, msg);
      return;
    case MsgKind::kAggregatorReplica:
      handle_aggregator_replica(at, msg);
      return;
    case MsgKind::kHeartbeat:
      // Liveness beacons belong to the socket ring's failure detector
      // (net::NetNode); the sim middleware learns liveness from its
      // membership hooks instead, so a stray heartbeat is inert.
      return;
    case MsgKind::kInvalid:
      break;
  }
  SDSI_CHECK(false);
}

void MiddlewareSystem::handle_mbr(NodeIndex at, const Message& msg) {
  const auto& payload = routing::payload_of<MbrPayload>(msg);
  const sim::SimTime now = routing_.simulator().now();
  if (!(config_.store_local_summaries && at == payload->source)) {
    // Load shedding: a node past its per-window ingest budget (or under a
    // forced-shed experiment) refuses the store as an ACCOUNTED drop before
    // paying for dedup, indexing, or matching. Shed copies are not acked,
    // so an acked source treats them exactly like a lost transmission.
    if (config_.overload.has_value() && shed_ingest(at, msg)) {
      return;
    }
    MiddlewareNode& state = state_of(at);
    // Hot-arc splitting: while this node is hot, each arriving batch is
    // deterministically assigned to one member of the split group
    // (hash(stream, batch_seq) — seed- and thread-count-stable). Batches
    // owned by a delegate are forwarded via the idempotent kReplicaPut path
    // instead of being stored and matched here; the delegates hold mirrors
    // of this node's subscriptions, so the match still happens — elsewhere.
    if (config_.overload.has_value() &&
        !state.overload.split_delegates.empty()) {
      const NodeIndex target =
          divert_target(state, payload->stream, payload->batch_seq);
      if (target != kInvalidNode) {
        // Fall through to the ack below afterwards: the batch is durably on
        // its way to a split-group member, which is what the ack promises.
        divert_store(at, target, *payload);
      } else {
        store_mbr_with_work(at, msg, *payload, now);
      }
    } else {
      store_mbr_with_work(at, msg, *payload, now);
    }
  }
  if (!config_.mbr_ack.enabled || msg.range_internal) {
    return;  // only the landing copy of a multicast acknowledges
  }
  if (at == payload->source) {
    note_mbr_ack(at, payload->stream, payload->batch_seq);
    return;
  }
  Message ack;
  ack.kind = MsgKind::kMbrAck;
  ack.payload = std::make_shared<const MbrAckPayload>(
      MbrAckPayload{payload->stream, payload->batch_seq});
  routing_.send_direct(at, payload->source, std::move(ack));
}

bool MiddlewareSystem::store_mbr_with_work(NodeIndex at, const Message& msg,
                                           const MbrPayload& payload,
                                           sim::SimTime now) {
  // The payload carries its absolute expiry, so a retransmitted or
  // refreshed copy stores exactly what the first delivery would have.
  const bool added = state_of(at).store.add_mbr(
      payload.stream, payload.source, payload.mbr, payload.batch_seq, now,
      payload.expires);
  if (!added && payload.expires > now && metrics_.recording()) {
    ++metrics_.robustness().duplicate_stores;
  }
  if (added) {
    note_node_work(at, 1);
  }
  // Synchronous mirror: the key-range owner (the node covering the hi end)
  // pushes the freshly stored batch to its replica set. First store only —
  // refresh and retry redeliveries dedup above and never re-mirror.
  if (added && replication_on() && msg.has_range &&
      covers_key(at, msg.range_hi)) {
    mirror_mbr(at, payload);
  }
  return added;
}

void MiddlewareSystem::handle_mbr_ack(NodeIndex at, const Message& msg) {
  const auto& payload = routing::payload_of<MbrAckPayload>(msg);
  note_mbr_ack(at, payload->stream, payload->batch_seq);
}

void MiddlewareSystem::handle_response_ack(NodeIndex at, const Message& msg) {
  const auto& payload = routing::payload_of<ResponseAckPayload>(msg);
  MiddlewareNode& state = state_of(at);
  const auto it = state.aggregations.find(payload->query);
  if (it == state.aggregations.end()) {
    return;
  }
  it->second.inflight.erase(payload->push_seq);
}

void MiddlewareSystem::handle_similarity_query(NodeIndex at,
                                               const Message& msg) {
  const auto& payload = routing::payload_of<SimilarityQueryPayload>(msg);
  const SimilarityQuery& query = *payload->query;
  MiddlewareNode& state = state_of(at);
  const bool fresh = state.store.find_subscription(query.id) == nullptr;
  state.store.add_subscription(payload->query, payload->middle_key,
                               query.issued_at + query.lifespan);
  if (fresh) {
    note_node_work(at, 1);
  }
  // Mirror the subscription to the range owner's replica set on first
  // install (refresh redeliveries keep the original state and don't
  // re-mirror).
  if (fresh && replication_on() && msg.has_range &&
      covers_key(at, msg.range_hi)) {
    const IndexStore::Subscription* sub =
        state.store.find_subscription(query.id);
    if (sub != nullptr) {
      mirror_subscription(at, *sub);
    }
  }
  // While this node's arc is split, every new subscription must also reach
  // the delegates holding its diverted MBRs, or their stores would match
  // against a stale subscription set.
  if (fresh && config_.overload.has_value() &&
      !state.overload.split_delegates.empty()) {
    const IndexStore::Subscription* sub =
        state.store.find_subscription(query.id);
    if (sub != nullptr) {
      forward_subscription_to_delegates(at, *sub);
    }
  }
}

void MiddlewareSystem::handle_inner_query(NodeIndex at, const Message& msg) {
  const auto& payload = routing::payload_of<InnerProductQueryPayload>(msg);
  const InnerProductQuery& query = *payload->query;
  MiddlewareNode& state = state_of(at);
  const auto it = state.streams.find(query.stream);
  if (it == state.streams.end()) {
    return;  // stale location mapping (stream moved or was dropped)
  }
  it->second.inner_subscriptions.push_back(InnerProductSubscription{
      payload->query, query.issued_at + query.lifespan});
}

void MiddlewareSystem::handle_response(NodeIndex at, const Message& msg) {
  const auto& payload = routing::payload_of<ResponsePayload>(msg);
  if (payload->client != at) {
    // The client crashed and its arc changed hands: the response routed to
    // the new owner of the client's ring id. Nothing to do but drop it.
    return;
  }
  if (payload->aggregator != kInvalidNode && !payload->matches.empty()) {
    // Confirm match-bearing pushes even when the query record is gone: the
    // aggregator must stop retransmitting either way.
    Message ack;
    ack.kind = MsgKind::kResponseAck;
    ack.payload = std::make_shared<const ResponseAckPayload>(
        ResponseAckPayload{payload->query, payload->push_seq});
    routing_.send_direct(at, payload->aggregator, std::move(ack));
  }
  const auto it = client_records_.find(payload->query);
  if (it == client_records_.end()) {
    return;
  }
  ClientQueryRecord& record = it->second;
  ++record.responses_received;
  if (!record.first_response_at.has_value()) {
    record.first_response_at = routing_.simulator().now();
  }
  for (const SimilarityMatch& match : payload->matches) {
    // Content-level dedup: retransmitted pushes and doubly-aggregated
    // reports never inflate the match count.
    if (record.matched_streams.insert(match.stream).second) {
      ++record.match_events;
    } else {
      ++record.duplicate_match_events;
      if (metrics_.recording()) {
        ++metrics_.robustness().duplicate_matches;
      }
    }
  }
  if (payload->inner_product) {
    record.last_inner_value = payload->inner_product_value;
    ++record.inner_updates;
  }
}

void MiddlewareSystem::handle_neighbor_digest(NodeIndex at,
                                              const Message& msg) {
  const auto& payload = routing::payload_of<NeighborDigestPayload>(msg);
  const Key pred_id = routing_.node_id(routing_.predecessor_index(at));
  const Key self_id = routing_.node_id(at);
  for (const MatchReport& report : payload->reports) {
    file_match_report(at, pred_id, self_id, report);
  }
}

void MiddlewareSystem::handle_location_put(NodeIndex at, const Message& msg) {
  const auto& payload = routing::payload_of<LocationPutPayload>(msg);
  if (payload->source == kInvalidNode) {
    state_of(at).location_directory.erase(payload->stream);  // tombstone
  } else {
    state_of(at).location_directory[payload->stream] = payload->source;
  }
}

void MiddlewareSystem::handle_location_get(NodeIndex at, const Message& msg) {
  const auto& payload = routing::payload_of<LocationGetPayload>(msg);
  const auto& directory = state_of(at).location_directory;
  const auto entry = directory.find(payload->stream);
  const NodeIndex source =
      entry == directory.end() ? kInvalidNode : entry->second;

  Message reply;
  reply.kind = MsgKind::kLocationReply;
  reply.payload = std::make_shared<const LocationReplyPayload>(
      LocationReplyPayload{payload->stream, source});
  routing_.send(at, routing_.node_id(payload->requester), std::move(reply));
}

void MiddlewareSystem::retry_location_get(NodeIndex client, StreamId stream) {
  if (!routing_.is_alive(client)) {
    return;  // the querying data center is gone; let its state expire
  }
  MiddlewareNode& state = state_of(client);
  const auto pending = state.pending_inner_queries.find(stream);
  if (pending == state.pending_inner_queries.end()) {
    return;  // resolved or expired in the meantime
  }
  const auto cached = state.location_cache.find(stream);
  if (cached != state.location_cache.end()) {
    state.location_retry_attempts.erase(stream);
    std::vector<std::shared_ptr<const InnerProductQuery>> queries =
        std::move(pending->second);
    state.pending_inner_queries.erase(pending);
    for (auto& query : queries) {
      dispatch_inner_query(client, std::move(query), cached->second);
    }
    return;
  }
  if (metrics_.recording()) {
    ++metrics_.robustness().location_retries;
  }
  Message msg;
  msg.kind = MsgKind::kLocationGet;
  msg.payload = std::make_shared<const LocationGetPayload>(
      LocationGetPayload{stream, client});
  routing_.send(client, mapper_.key_for_stream(stream), std::move(msg));
}

void MiddlewareSystem::handle_location_reply(NodeIndex at,
                                             const Message& msg) {
  const auto& payload = routing::payload_of<LocationReplyPayload>(msg);
  MiddlewareNode& state = state_of(at);
  auto pending = state.pending_inner_queries.find(payload->stream);
  if (payload->source == kInvalidNode) {
    // The directory does not know the stream (yet): its registration may
    // still be in flight through the overlay, or the stream is truly gone.
    // Keep the unexpired queries and retry after a notification period; the
    // pending set drains naturally once every query's lifespan passes.
    if (pending == state.pending_inner_queries.end()) {
      return;
    }
    const sim::SimTime now = routing_.simulator().now();
    std::erase_if(pending->second,
                  [now](const std::shared_ptr<const InnerProductQuery>& q) {
                    return q->issued_at + q->lifespan <= now;
                  });
    if (pending->second.empty()) {
      state.pending_inner_queries.erase(pending);
      return;
    }
    // Capped exponential backoff with jitter, not a flat notify_period:
    // repeated unknowns mean the registration is slow or its directory
    // fragment is down, so hammering the same key every period only adds
    // load where the failure is.
    const StreamId stream = payload->stream;
    const int attempts = state.location_retry_attempts[stream]++;
    RetryPolicy policy;
    policy.timeout = config_.notify_period;
    policy.max_backoff =
        sim::Duration::micros(config_.notify_period.count_micros() * 8);
    policy.jitter =
        sim::Duration::micros(config_.notify_period.count_micros() / 8);
    routing_.simulator().schedule_after(
        backoff_delay(policy, attempts),
        [this, at, stream] { retry_location_get(at, stream); });
    return;
  }
  state.location_retry_attempts.erase(payload->stream);
  state.location_cache[payload->stream] = payload->source;
  if (pending == state.pending_inner_queries.end()) {
    return;
  }
  std::vector<std::shared_ptr<const InnerProductQuery>> queries =
      std::move(pending->second);
  state.pending_inner_queries.erase(pending);
  for (auto& query : queries) {
    dispatch_inner_query(at, std::move(query), payload->source);
  }
}

// --- Periodic machinery --------------------------------------------------------

bool MiddlewareSystem::covers_key(NodeIndex node, Key key) const {
  const NodeIndex pred = routing_.predecessor_index(node);
  return routing_.id_space().in_half_open(key, routing_.node_id(pred),
                                          routing_.node_id(node));
}

void MiddlewareSystem::file_match_report(NodeIndex at, Key pred_id,
                                         Key self_id, MatchReport report) {
  MiddlewareNode& state = state_of(at);
  const common::IdSpace& space = routing_.id_space();
  if (space.in_half_open(report.middle_key, pred_id, self_id)) {
    AggregatorRecord& record = state.aggregations[report.match.query];
    record.client = report.client;
    record.middle_key = report.middle_key;
    record.expires = report.query_expires;
    if (record.seen.insert(report.match.stream).second) {
      record.pending.push_back(report.match);
      // Incremental aggregator replication: every freshly filed match is
      // mirrored to the middle key's replica set, so a replica can promote
      // itself without losing any client-visible match.
      if (replication_on()) {
        mirror_aggregation(at, report.match.query, record, report.middle_key,
                           report.match);
      }
    }
    return;
  }
  // The shorter way round to the middle node. Node ids never change, so the
  // direction can be fixed here and the tick can send each buffer whole.
  const bool up = space.distance(self_id, report.middle_key) <=
                  space.distance(report.middle_key, self_id);
  (up ? state.outgoing_up : state.outgoing_down).push_back(std::move(report));
}

void MiddlewareSystem::periodic_tick(NodeIndex index) {
  if (!routing_.is_alive(index)) {
    return;  // the data center crashed; its soft state dies with it
  }
  const sim::SimTime now = routing_.simulator().now();
  // The match pass touches only this node's store, so it commutes with the
  // bookkeeping steps of dispatch_tick — running it first lets
  // tick_all_nodes hoist all the passes into one sharded pre-pass while
  // this (simulator-driven, one node per event) path shards the pass
  // internally across subscriptions.
  dispatch_tick(index, now, nodes_[index].store.match(now, pool_.get()));
}

void MiddlewareSystem::dispatch_tick(NodeIndex index, sim::SimTime now,
                                     std::vector<SimilarityMatch> fresh) {
  MiddlewareNode& state = nodes_[index];

  // Credit the match pass that just ran for this node: its scan cost plus
  // one unit per fresh candidate. The counter is a sum over subscriptions,
  // so the sharded and serial passes credit the identical amount — hot-arc
  // decisions downstream stay thread-count-invariant.
  note_node_work(index,
                 state.store.last_match_work() +
                     static_cast<std::uint64_t>(fresh.size()));

  // -1. Aggregator failover: mirrors whose middle key now falls on this
  //     node's arc (the owner died) become live aggregations.
  if (!state.aggregation_replicas.empty()) {
    promote_aggregation_replicas(index, now);
  }

  // 0. Drop publication records whose batch lapsed (acked entries have no
  //    timer left to prune them otherwise).
  for (auto it = state.published_mbrs.begin();
       it != state.published_mbrs.end();) {
    if (it->second.payload->expires <= now) {
      it->second.retry_timer.cancel();
      it = state.published_mbrs.erase(it);
    } else {
      ++it;
    }
  }

  // 1. File the candidates the match pass detected against the local index
  //    (Eq. 8 / MBR bound). match() advanced the store's expiry lanes
  //    itself, so no separate expire() sweep is needed here.
  const Key pred_id = routing_.node_id(routing_.predecessor_index(index));
  const Key self_id = routing_.node_id(index);
  for (SimilarityMatch& match : fresh) {
    const IndexStore::Subscription* sub =
        state.store.find_subscription(match.query);
    SDSI_CHECK(sub != nullptr);
    file_match_report(index, pred_id, self_id,
                      MatchReport{std::move(match), sub->query->client,
                                  sub->middle_key, sub->expires});
  }

  // 2. Relay buffered reports one ring hop toward their middle nodes, as a
  //    single aggregated digest per direction (the paper's constant
  //    per-node neighbor-exchange component).
  //    Filing already chose each report's direction; stale reports (the
  //    query is gone) stop circulating, and each buffer moves whole into
  //    its digest. A neighbor that died since the last stabilization round
  //    must not swallow the digest: detour around it via the successor list
  //    instead of dropping the reports on the floor.
  const auto relay = [&](std::vector<MatchReport>& buffer, bool up) {
    std::erase_if(buffer, [now](const MatchReport& report) {
      return report.query_expires <= now;
    });
    if (buffer.empty()) {
      return;
    }
    send_detouring(index,
                   up ? routing_.successor_index(index)
                      : routing_.predecessor_index(index),
                   MsgKind::kNeighborExchange,
                   std::make_shared<const NeighborDigestPayload>(
                       NeighborDigestPayload{std::exchange(buffer, {})}));
  };
  relay(state.outgoing_up, true);
  relay(state.outgoing_down, false);

  // 3. Aggregators push periodic responses to their clients (Sec IV-F).
  //    With response acks enabled, match-bearing pushes stay in an in-flight
  //    window until the client confirms them; unacked pushes retransmit
  //    verbatim (same push_seq — the client's content dedup makes
  //    redelivery harmless) under the response_ack policy.
  for (auto it = state.aggregations.begin(); it != state.aggregations.end();) {
    AggregatorRecord& record = it->second;
    if (record.expires <= now) {
      it = state.aggregations.erase(it);
      continue;
    }
    const QueryId query_id = it->first;
    if (config_.response_ack.enabled) {
      for (auto push = record.inflight.begin();
           push != record.inflight.end();) {
        AggregatorRecord::InflightPush& inflight = push->second;
        if (now - inflight.sent_at < config_.response_ack.timeout) {
          ++push;
          continue;
        }
        if (inflight.attempts >= config_.response_ack.max_attempts) {
          push = record.inflight.erase(push);  // budget spent
          continue;
        }
        ++inflight.attempts;
        inflight.sent_at = now;
        if (metrics_.recording()) {
          ++metrics_.robustness().response_retries;
        }
        Message resend;
        resend.kind = MsgKind::kResponse;
        resend.payload = std::make_shared<const ResponsePayload>(
            ResponsePayload{query_id, record.client, false, inflight.matches,
                            0.0, index, push->first});
        routing_.send(index, routing_.node_id(record.client),
                      std::move(resend));
        ++push;
      }
    }
    const bool track = config_.response_ack.enabled && !record.pending.empty();
    const std::uint64_t seq = track ? record.next_push_seq++ : 0;
    std::vector<SimilarityMatch> matches = std::move(record.pending);
    record.pending.clear();
    if (track) {
      record.inflight.emplace(
          seq, AggregatorRecord::InflightPush{matches, now, 0});
    }
    Message msg;
    msg.kind = MsgKind::kResponse;
    msg.payload = std::make_shared<const ResponsePayload>(ResponsePayload{
        query_id, record.client, false, std::move(matches), 0.0,
        config_.response_ack.enabled ? index : kInvalidNode, seq});
    ++record.pushes;
    routing_.send(index, routing_.node_id(record.client), std::move(msg));
    ++it;
  }

  // 4. Answer inner-product subscriptions from the local synopses
  //    (Eq. 7 reconstruction + weighted product, Sec IV-D).
  for (auto& [stream_id, local] : state.streams) {
    std::erase_if(local.inner_subscriptions,
                  [now](const InnerProductSubscription& sub) {
                    return sub.expires <= now;
                  });
    if (local.inner_subscriptions.empty()) {
      continue;
    }
    // Strategy-owned window approximation on the raw data scale: the dft
    // strategy reconstructs via Eq. 7 and undoes the normalization (the
    // synopsis-owning node knows the window mean and norm); ecm answers
    // from its exact raw ring.
    std::vector<Sample> approx;
    if (!local.summarizer->approx_window(approx)) {
      continue;
    }
    for (const InnerProductSubscription& sub : local.inner_subscriptions) {
      const double value = dsp::weighted_inner_product(
          approx, sub.query->index, sub.query->weights);
      Message msg;
      msg.kind = MsgKind::kResponse;
      msg.payload = std::make_shared<const ResponsePayload>(ResponsePayload{
          sub.query->id, sub.query->client, true, {}, value});
      routing_.send(index, routing_.node_id(sub.query->client),
                    std::move(msg));
    }
  }
}

// --- Replication & failover ---------------------------------------------------

std::size_t MiddlewareSystem::handoff_bytes(const ReplicaPutPayload& put) {
  std::size_t bytes = 0;
  for (const ReplicaMbrEntry& entry : put.mbrs) {
    // Identity + expiry header, plus two doubles per MBR dimension.
    bytes += 40 + entry.mbr.dimensions() * 16;
  }
  for (const ReplicaSubscriptionEntry& entry : put.subscriptions) {
    // Query header, plus one complex coefficient per feature dimension.
    bytes += 48 + entry.query->features.size() * 16;
  }
  return bytes;
}

void MiddlewareSystem::emit_replication_trace(obs::TraceEventKind event,
                                              NodeIndex node, StreamId stream,
                                              std::uint64_t seq) {
  obs::TraceSink* sink = routing_.trace_sink();
  if (sink == nullptr) {
    return;
  }
  obs::TraceRecord record;
  record.event = event;
  record.at_us = routing_.simulator().now().count_micros();
  record.node = node;
  record.stream = stream;
  record.batch_seq = seq;
  sink->record(record);
}

std::size_t MiddlewareSystem::send_to_replica_set(NodeIndex at, MsgKind kind,
                                                  const std::any& payload) {
  const std::vector<NodeIndex> replicas =
      routing_.successors(at, config_.replication_factor);
  for (const NodeIndex replica : replicas) {
    send_detouring(at, replica, kind, payload);
  }
  return replicas.size();
}

void MiddlewareSystem::mirror_put(NodeIndex at, ReplicaPutPayload put,
                                  StreamId trace_stream,
                                  std::uint64_t trace_seq) {
  put.from = at;
  const std::size_t puts = send_to_replica_set(
      at, MsgKind::kReplicaPut,
      std::make_shared<const ReplicaPutPayload>(std::move(put)));
  if (puts == 0) {
    return;
  }
  if (metrics_.recording()) {
    metrics_.robustness().replica_puts += puts;
  }
  if (metrics_.registry() != nullptr) {
    metrics_.registry()->counter("replication.puts").add(
        static_cast<double>(puts));
  }
  emit_replication_trace(obs::TraceEventKind::kReplicate, at, trace_stream,
                         trace_seq);
}

void MiddlewareSystem::mirror_mbr(NodeIndex at, const MbrPayload& entry) {
  ReplicaPutPayload put;
  put.mbrs.push_back(ReplicaMbrEntry{entry.stream, entry.source, entry.mbr,
                                     entry.batch_seq, entry.expires});
  mirror_put(at, std::move(put), entry.stream, entry.batch_seq);
}

void MiddlewareSystem::mirror_subscription(
    NodeIndex at, const IndexStore::Subscription& sub) {
  ReplicaPutPayload put;
  put.subscriptions.push_back(
      ReplicaSubscriptionEntry{sub.query, sub.middle_key, sub.expires});
  mirror_put(at, std::move(put), 0, sub.query->id);
}

void MiddlewareSystem::mirror_aggregation(NodeIndex at, QueryId query,
                                          const AggregatorRecord& record,
                                          Key middle_key,
                                          const SimilarityMatch& match) {
  send_to_replica_set(at, MsgKind::kAggregatorReplica,
                      std::make_shared<const AggregatorReplicaPayload>(
                          AggregatorReplicaPayload{query, record.client,
                                                   middle_key, record.expires,
                                                   at, {match}}));
}

void MiddlewareSystem::handle_replica_put(NodeIndex at, const Message& msg) {
  const auto& payload = routing::payload_of<ReplicaPutPayload>(msg);
  const replica_sync::Applied applied = replica_sync::apply(
      *payload, state_of(at).store, routing_.simulator().now());
  if (applied.added == 0) {
    return;  // everything deduplicated: redelivery is a no-op by design
  }
  note_node_work(at, applied.added);
  if (payload->repair) {
    if (metrics_.recording()) {
      metrics_.robustness().replica_repairs += applied.added;
    }
    if (metrics_.registry() != nullptr) {
      metrics_.registry()->counter("replication.repairs").add(
          static_cast<double>(applied.added));
    }
    emit_replication_trace(obs::TraceEventKind::kRepair, at,
                           applied.first_stream, applied.first_seq);
  } else if (payload->handoff) {
    emit_replication_trace(obs::TraceEventKind::kHandoff, at,
                           applied.first_stream, applied.first_seq);
  }
}

void MiddlewareSystem::handle_handoff_request(NodeIndex at,
                                              const Message& msg) {
  const auto& payload = routing::payload_of<HandoffRequestPayload>(msg);
  if (!routing_.is_alive(payload->requester)) {
    return;
  }
  const sim::SimTime now = routing_.simulator().now();
  MiddlewareNode& state = state_of(at);
  state.store.expire(now);
  ReplicaPutPayload put =
      replica_sync::collect(state.store, strategy_->key_map(),
                            routing_.id_space(), at, payload->lo, payload->hi,
                            now);
  const std::size_t entries = replica_sync::entries(put);
  if (entries == 0) {
    return;
  }
  const std::size_t bytes = handoff_bytes(put);
  put.handoff = true;
  send_detouring(at, payload->requester, MsgKind::kReplicaPut,
                 std::make_shared<const ReplicaPutPayload>(std::move(put)));
  if (metrics_.recording()) {
    metrics_.robustness().handoff_entries += entries;
    metrics_.robustness().handoff_bytes += bytes;
  }
  if (metrics_.registry() != nullptr) {
    metrics_.registry()
        ->counter("replication.handoff_entries")
        .add(static_cast<double>(entries));
    metrics_.registry()
        ->counter("replication.handoff_bytes")
        .add(static_cast<double>(bytes));
  }
  emit_replication_trace(obs::TraceEventKind::kHandoff, at, 0, entries);
}

void MiddlewareSystem::send_detouring(NodeIndex at, NodeIndex to,
                                      MsgKind kind, std::any payload) {
  Message msg;
  msg.kind = kind;
  msg.payload = std::move(payload);
  msg.reroute_on_dead = true;
  routing_.send_direct(at, to, std::move(msg));
}

void MiddlewareSystem::schedule_anti_entropy(NodeIndex index,
                                             sim::Duration offset) {
  sim::Simulator& sim = routing_.simulator();
  sim.schedule_periodic(sim.now() + offset + config_.anti_entropy_period,
                        config_.anti_entropy_period,
                        [this, index] { anti_entropy_tick(index); });
}

void MiddlewareSystem::anti_entropy_tick(NodeIndex index) {
  if (!routing_.is_alive(index)) {
    return;
  }
  const std::vector<NodeIndex> replicas =
      routing_.successors(index, config_.replication_factor);
  if (replicas.empty()) {
    return;
  }
  const sim::SimTime now = routing_.simulator().now();
  MiddlewareNode& state = nodes_[index];
  state.store.expire(now);

  // Digest of the OWNED arc only: replicas answer for what they mirror, the
  // owner answers for what it owns. An empty digest is still sent — it is
  // exactly how a recovered-empty owner learns what it lost (the peers push
  // the gap back as repair).
  const auto payload = std::make_shared<const AntiEntropyDigestPayload>(
      replica_sync::digest(state.store, strategy_->key_map(),
                           routing_.id_space(), index,
                           routing_.node_id(routing_.predecessor_index(index)),
                           routing_.node_id(index), now));
  for (const NodeIndex replica : replicas) {
    send_detouring(index, replica, MsgKind::kAntiEntropyDigest, payload);
  }
}

void MiddlewareSystem::handle_anti_entropy_digest(NodeIndex at,
                                                  const Message& msg) {
  const auto& payload = routing::payload_of<AntiEntropyDigestPayload>(msg);
  if (!routing_.is_alive(payload->from)) {
    return;
  }
  const sim::SimTime now = routing_.simulator().now();
  MiddlewareNode& state = state_of(at);
  state.store.expire(now);
  replica_sync::DigestDiff diff =
      replica_sync::diff(*payload, state.store, strategy_->key_map(),
                         routing_.id_space(), at, now);

  // 1. What the owner holds that this replica misses: request backfill.
  if (replica_sync::entries(diff.request) > 0) {
    send_detouring(at, payload->from, MsgKind::kAntiEntropyRequest,
                   std::make_shared<const AntiEntropyRequestPayload>(
                       std::move(diff.request)));
  }

  // 2. What this replica holds on the owner's arc that the digest lacks:
  //    push it back as repair (heals an owner that recovered empty).
  if (replica_sync::entries(diff.push) > 0) {
    send_detouring(at, payload->from, MsgKind::kReplicaPut,
                   std::make_shared<const ReplicaPutPayload>(
                       std::move(diff.push)));
  }
}

void MiddlewareSystem::handle_anti_entropy_request(NodeIndex at,
                                                   const Message& msg) {
  const auto& payload = routing::payload_of<AntiEntropyRequestPayload>(msg);
  if (!routing_.is_alive(payload->requester)) {
    return;
  }
  ReplicaPutPayload put = replica_sync::lookup(
      *payload, state_of(at).store, at, routing_.simulator().now());
  if (replica_sync::entries(put) > 0) {
    send_detouring(at, payload->requester, MsgKind::kReplicaPut,
                 std::make_shared<const ReplicaPutPayload>(std::move(put)));
  }
}

void MiddlewareSystem::handle_aggregator_replica(NodeIndex at,
                                                 const Message& msg) {
  const auto& payload = routing::payload_of<AggregatorReplicaPayload>(msg);
  const sim::SimTime now = routing_.simulator().now();
  if (payload->expires <= now) {
    return;
  }
  MiddlewareNode& state = state_of(at);
  AggregationReplica& rep = state.aggregation_replicas[payload->query];
  rep.client = payload->client;
  rep.middle_key = payload->middle_key;
  rep.expires = payload->expires;
  for (const SimilarityMatch& match : payload->matches) {
    if (rep.seen.insert(match.stream).second) {
      rep.matches.push_back(match);
    }
  }
  rep.last_update = now;
}

void MiddlewareSystem::promote_aggregation_replicas(NodeIndex index,
                                                    sim::SimTime now) {
  MiddlewareNode& state = nodes_[index];
  for (auto it = state.aggregation_replicas.begin();
       it != state.aggregation_replicas.end();) {
    AggregationReplica& rep = it->second;
    if (rep.expires <= now) {
      it = state.aggregation_replicas.erase(it);
      continue;
    }
    // While the aggregator lives it covers its own middle key, so this is
    // false; once it dies and stabilization hands its arc to this node, the
    // mirror promotes.
    if (!covers_key(index, rep.middle_key)) {
      ++it;
      continue;
    }
    const QueryId query = it->first;
    AggregatorRecord& record = state.aggregations[query];
    record.client = rep.client;
    record.middle_key = rep.middle_key;
    record.expires = rep.expires;
    for (const SimilarityMatch& match : rep.matches) {
      if (record.seen.insert(match.stream).second) {
        record.pending.push_back(match);
      }
    }
    const double dark_ms = (now - rep.last_update).as_millis();
    if (metrics_.recording()) {
      ++metrics_.robustness().aggregator_failovers;
      metrics_.robustness().failover_latency_ms.add(dark_ms);
    }
    if (metrics_.registry() != nullptr) {
      metrics_.registry()->counter("failover.promotions").add();
      metrics_.registry()->histogram("failover.latency_ms").add(dark_ms);
    }
    emit_replication_trace(obs::TraceEventKind::kFailover, index, 0, query);
    it = state.aggregation_replicas.erase(it);
  }
}

void MiddlewareSystem::handle_node_join(NodeIndex index) {
  if (!replication_on()) {
    return;
  }
  (void)state_of(index);
  if (!routing_.is_alive(index)) {
    return;
  }
  const NodeIndex succ = routing_.successor_index(index);
  if (succ == index) {
    return;  // alone on the ring: nothing to pull
  }
  send_detouring(index, succ, MsgKind::kHandoffRequest,
                 std::make_shared<const HandoffRequestPayload>(
                     HandoffRequestPayload{
                         index,
                         routing_.node_id(routing_.predecessor_index(index)),
                         routing_.node_id(index)}));
  emit_replication_trace(obs::TraceEventKind::kHandoff, index, 0, 0);
}

void MiddlewareSystem::tick_all_nodes() {
  if (pool_ != nullptr && nodes_.size() > 1) {
    // Sharded pre-pass: every alive node's match pass is independent (it
    // reads and writes only that node's store; cross-node effects travel
    // exclusively through simulator-queued messages, which cannot fire
    // mid-pass). The barrier at the end of the pre-pass, plus the serial
    // node-ordered dispatch phase, keeps the message sequence — and thus
    // the whole simulation — byte-identical to the serial loop. The pool
    // must not be re-entered from inside a task, so each node's pass runs
    // serially here; node-level parallelism already uses every lane.
    const sim::SimTime now = routing_.simulator().now();
    std::vector<std::vector<SimilarityMatch>> fresh(nodes_.size());
    pool_->parallel_for(nodes_.size(), [&](std::size_t i) {
      if (routing_.is_alive(static_cast<NodeIndex>(i))) {
        fresh[i] = nodes_[i].store.match(now);
      }
    });
    for (NodeIndex i = 0; i < nodes_.size(); ++i) {
      if (routing_.is_alive(i)) {
        dispatch_tick(i, now, std::move(fresh[i]));
      }
    }
    return;
  }
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    periodic_tick(i);
  }
}

const ClientQueryRecord* MiddlewareSystem::client_record(QueryId id) const {
  const auto it = client_records_.find(id);
  return it == client_records_.end() ? nullptr : &it->second;
}

// --- Overload control --------------------------------------------------------

void MiddlewareSystem::note_node_work(NodeIndex node, std::uint64_t units) {
  if (units == 0) {
    return;
  }
  // The window counter feeds hot-arc detection and must run whenever the
  // overload layer is on — including warmup, when metrics are disabled.
  if (config_.overload.has_value() && node < nodes_.size()) {
    nodes_[node].overload.window_work += units;
  }
  metrics_.add_node_work(node, units);
}

bool MiddlewareSystem::shed_ingest(NodeIndex at, const Message& msg) {
  const OverloadOptions& opt = *config_.overload;
  MiddlewareNode::OverloadState& ov = state_of(at).overload;
  bool shed = false;
  if (opt.forced_shed_rate > 0.0) {
    // Deterministic fractional accumulator (no rng draw: the shed schedule
    // must be a pure function of the delivery sequence).
    ov.shed_accumulator += opt.forced_shed_rate;
    if (ov.shed_accumulator >= 1.0) {
      ov.shed_accumulator -= 1.0;
      shed = true;
    }
  }
  if (!shed && opt.ingest_capacity > 0 &&
      ov.window_ingest >= opt.ingest_capacity) {
    shed = true;
  }
  if (!shed) {
    ++ov.window_ingest;
    return false;
  }
  routing_.account_app_drop(fault::DropCause::kShedOverload, msg);
  if (metrics_.recording()) {
    ++metrics_.robustness().shed_mbrs;
  }
  if (metrics_.registry() != nullptr) {
    metrics_.registry()->counter("overload.shed_mbrs").add();
  }
  return true;
}

NodeIndex MiddlewareSystem::divert_target(const MiddlewareNode& state,
                                          StreamId stream,
                                          std::uint64_t batch_seq) const {
  const std::vector<NodeIndex>& delegates = state.overload.split_delegates;
  // Same mix as IndexStore::MbrKeyHash: the batch identity picks one owner
  // out of {self, delegates...} uniformly, and redeliveries (retries,
  // refreshes) of the same batch always pick the same owner — so the
  // idempotent dedup still works after a split.
  std::uint64_t h = stream * 0x9E3779B97F4A7C15ull;
  h ^= batch_seq + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  const std::uint64_t owner = h % (1 + delegates.size());
  return owner == 0 ? kInvalidNode : delegates[owner - 1];
}

void MiddlewareSystem::divert_store(NodeIndex at, NodeIndex target,
                                    const MbrPayload& entry) {
  const auto payload = std::make_shared<const ReplicaPutPayload>(
      ReplicaPutPayload{at,
                        {ReplicaMbrEntry{entry.stream, entry.source, entry.mbr,
                                         entry.batch_seq, entry.expires}},
                        {},
                        false,
                        false});
  send_detouring(at, target, MsgKind::kReplicaPut, payload);
  if (metrics_.recording()) {
    ++metrics_.robustness().split_diverted_stores;
  }
  if (metrics_.registry() != nullptr) {
    metrics_.registry()->counter("overload.diverted_stores").add();
  }
}

void MiddlewareSystem::mirror_subscriptions_to_delegates(NodeIndex node) {
  MiddlewareNode& state = nodes_[node];
  const std::vector<NodeIndex>& delegates = state.overload.split_delegates;
  if (delegates.empty() || state.store.subscription_count() == 0) {
    return;
  }
  const sim::SimTime now = routing_.simulator().now();
  // The store's table is in canonical ascending-id order (like the handoff
  // path): the delegate's store contents must not depend on this node's
  // container history.
  std::vector<ReplicaSubscriptionEntry> entries;
  entries.reserve(state.store.subscription_count());
  for (const auto& [id, sub] : state.store.subscriptions()) {
    if (sub.expires > now) {
      entries.push_back(
          ReplicaSubscriptionEntry{sub.query, sub.middle_key, sub.expires});
    }
  }
  if (entries.empty()) {
    return;
  }
  const auto payload = std::make_shared<const ReplicaPutPayload>(
      ReplicaPutPayload{node, {}, std::move(entries), false, false});
  for (const NodeIndex delegate : delegates) {
    send_detouring(node, delegate, MsgKind::kReplicaPut, payload);
  }
}

void MiddlewareSystem::forward_subscription_to_delegates(
    NodeIndex node, const IndexStore::Subscription& sub) {
  const auto payload = std::make_shared<const ReplicaPutPayload>(
      ReplicaPutPayload{
          node,
          {},
          {ReplicaSubscriptionEntry{sub.query, sub.middle_key, sub.expires}},
          false,
          false});
  for (const NodeIndex delegate : nodes_[node].overload.split_delegates) {
    send_detouring(node, delegate, MsgKind::kReplicaPut, payload);
  }
}

void MiddlewareSystem::defer_publication(NodeIndex source, StreamId stream,
                                         dsp::Mbr mbr) {
  const OverloadOptions& opt = *config_.overload;
  MiddlewareNode::OverloadState& ov = nodes_[source].overload;
  ov.deferred.push_back(DeferredPublication{stream, std::move(mbr)});
  if (metrics_.recording()) {
    ++metrics_.robustness().backpressure_deferrals;
  }
  if (metrics_.registry() != nullptr) {
    metrics_.registry()->counter("overload.backpressure_deferrals").add();
  }
  if (opt.defer_capacity > 0 && ov.deferred.size() > opt.defer_capacity) {
    // Queue overflow sheds the OLDEST deferred batch: its summary data is
    // the stalest, and FIFO draining means it would also be the last to
    // benefit from a budget refill. Never silent.
    ov.deferred.pop_front();
    account_overload_drop(fault::DropCause::kBackpressure, source);
    if (metrics_.recording()) {
      ++metrics_.robustness().backpressure_drops;
    }
  }
}

void MiddlewareSystem::overload_tick() {
  const OverloadOptions& opt = *config_.overload;
  hot_arc_.ensure_nodes(nodes_.size());

  // Harvest + reset the window counters. Dead nodes report zero: they do no
  // work, and their stale counters must not distort the ring median.
  std::vector<std::uint64_t> work(nodes_.size(), 0);
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    MiddlewareNode::OverloadState& ov = nodes_[i].overload;
    if (routing_.is_alive(i)) {
      work[i] = ov.window_work;
    }
    ov.window_work = 0;
    ov.window_ingest = 0;
  }

  const HotArcDetector::Transitions transitions = hot_arc_.observe(work);
  for (const std::size_t node : transitions.split) {
    const auto index = static_cast<NodeIndex>(node);
    MiddlewareNode::OverloadState& ov = nodes_[index].overload;
    if (opt.split_ways > 1) {
      ov.split_delegates = routing_.successors(index, opt.split_ways - 1);
    }
    if (!ov.split_delegates.empty()) {
      // Delegates must hold this node's live subscriptions before any
      // diverted MBR lands, or diverted batches would match nothing there.
      mirror_subscriptions_to_delegates(index);
    }
    if (metrics_.recording()) {
      ++metrics_.robustness().hot_arc_splits;
    }
    if (metrics_.registry() != nullptr) {
      metrics_.registry()->counter("overload.splits").add();
    }
  }
  for (const std::size_t node : transitions.merge) {
    nodes_[node].overload.split_delegates.clear();
    if (metrics_.recording()) {
      ++metrics_.robustness().hot_arc_merges;
    }
    if (metrics_.registry() != nullptr) {
      metrics_.registry()->counter("overload.merges").add();
    }
  }

  // Refill publish budgets and drain the deferral queues FIFO, oldest batch
  // first (its batch_seq is assigned now, at actual publication).
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    MiddlewareNode::OverloadState& ov = nodes_[i].overload;
    ov.window_published = 0;
    if (ov.deferred.empty() || !routing_.is_alive(i)) {
      continue;
    }
    MiddlewareNode& state = nodes_[i];
    while (!ov.deferred.empty() &&
           (opt.publish_budget == 0 ||
            ov.window_published < opt.publish_budget)) {
      DeferredPublication next = std::move(ov.deferred.front());
      ov.deferred.pop_front();
      const auto it = state.streams.find(next.stream);
      if (it == state.streams.end()) {
        // The stream unregistered while its batch waited: nothing left to
        // publish under — account the loss rather than vanish it.
        account_overload_drop(fault::DropCause::kBackpressure, i);
        if (metrics_.recording()) {
          ++metrics_.robustness().backpressure_drops;
        }
        continue;
      }
      ++ov.window_published;
      publish_mbr(i, it->second, std::move(next.mbr));
    }
  }
}

void MiddlewareSystem::account_overload_drop(fault::DropCause cause,
                                             NodeIndex origin) {
  // Overload-layer drops happen before (backpressure) or instead of (stream
  // teardown) a concrete Message existing, so a synthetic envelope carries
  // the attribution into the shared drop path — same counters, registry
  // series, and trace stream as every in-flight loss.
  Message synth;
  synth.kind = MsgKind::kMbrUpdate;
  synth.origin = origin;
  routing_.account_app_drop(cause, synth);
}

double MiddlewareSystem::ingest_backpressure(NodeIndex node) const {
  if (!config_.overload.has_value() || node >= nodes_.size() ||
      config_.overload->defer_capacity == 0) {
    return 0.0;
  }
  const double fill =
      static_cast<double>(nodes_[node].overload.deferred.size()) /
      static_cast<double>(config_.overload->defer_capacity);
  return std::min(1.0, fill);
}

}  // namespace sdsi::core
