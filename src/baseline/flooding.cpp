#include "baseline/flooding.hpp"

namespace sdsi::baseline {

FloodingSystem::FloodingSystem(routing::RoutingSystem& routing,
                               core::MiddlewareConfig config)
    : routing_(routing),
      config_(config),
      strategy_(core::IndexingStrategy::make(config.strategy, config.features,
                                             routing.id_space())),
      metrics_(routing.num_nodes()),
      nodes_(routing.num_nodes()) {
  metrics_.set_clock(&routing_.simulator());
  routing_.set_metrics_hook(&metrics_);
  routing_.set_deliver([this](NodeIndex at, const routing::Message& msg) {
    on_deliver(at, msg);
  });
}

void FloodingSystem::start() {
  SDSI_CHECK(!started_);
  started_ = true;
  sim::Simulator& sim = routing_.simulator();
  const std::int64_t period_us = config_.notify_period.count_micros();
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    const auto offset = sim::Duration::micros(
        period_us * static_cast<std::int64_t>(i) /
        static_cast<std::int64_t>(nodes_.size()));
    sim.schedule_periodic(sim.now() + offset + config_.notify_period,
                          config_.notify_period,
                          [this, i] { periodic_tick(i); });
  }
}

void FloodingSystem::register_stream(NodeIndex node, StreamId stream) {
  SDSI_CHECK(node < nodes_.size());
  const auto [it, inserted] = nodes_[node].streams.try_emplace(
      stream, stream, *strategy_, config_.batching);
  SDSI_CHECK(inserted);
}

void FloodingSystem::post_stream_value(NodeIndex node, StreamId stream,
                                       Sample value) {
  SDSI_CHECK(node < nodes_.size());
  const auto it = nodes_[node].streams.find(stream);
  SDSI_CHECK(it != nodes_[node].streams.end());
  core::LocalStream& local = it->second;
  local.summarizer->push(value);
  const std::optional<dsp::FeatureVector> features =
      local.summarizer->features();
  if (!features.has_value()) {
    return;
  }
  std::optional<dsp::Mbr> closed = local.batcher.push(*features);
  if (!closed.has_value()) {
    return;
  }
  // Summaries never leave the source: store locally, zero messages.
  const sim::SimTime now = routing_.simulator().now();
  nodes_[node].store.add_mbr(stream, node, *closed, local.batch_seq++, now,
                             now + config_.mbr_lifespan);
}

core::QueryId FloodingSystem::subscribe_similarity(NodeIndex client,
                                                   dsp::FeatureVector features,
                                                   double radius,
                                                   sim::Duration lifespan) {
  const sim::SimTime now = routing_.simulator().now();
  const core::QueryId id = next_query_id_++;
  auto query = std::make_shared<const core::SimilarityQuery>(
      core::SimilarityQuery{id, client, std::move(features), radius, lifespan,
                            now});

  core::ClientQueryRecord record;
  record.id = id;
  record.client = client;
  record.issued_at = now;
  record.expires = now + lifespan;
  client_records_.emplace(id, std::move(record));

  // Flood: cover the whole identifier circle, starting at the client's own
  // successor arc and walking the entire ring.
  const Key self = routing_.node_id(client);
  routing::Message msg;
  msg.kind = core::MsgKind::kSimilarityQuery;
  msg.payload = std::make_shared<const core::SimilarityQueryPayload>(
      core::SimilarityQueryPayload{std::move(query), self});
  routing_.send_range(client, routing_.id_space().wrap(self + 1), self,
                      std::move(msg), routing::MulticastStrategy::kSequential);
  return id;
}

void FloodingSystem::on_deliver(NodeIndex at, const routing::Message& msg) {
  const sim::SimTime now = routing_.simulator().now();
  switch (msg.kind) {
    case core::MsgKind::kSimilarityQuery: {
      const auto& payload =
          routing::payload_of<core::SimilarityQueryPayload>(msg);
      const core::SimilarityQuery& query = *payload->query;
      nodes_[at].store.add_subscription(payload->query, payload->middle_key,
                                        query.issued_at + query.lifespan);
      return;
    }
    case core::MsgKind::kResponse: {
      const auto& payload = routing::payload_of<core::ResponsePayload>(msg);
      const auto it = client_records_.find(payload->query);
      if (it == client_records_.end()) {
        return;
      }
      ++it->second.responses_received;
      if (!it->second.first_response_at.has_value()) {
        it->second.first_response_at = now;
      }
      for (const core::SimilarityMatch& match : payload->matches) {
        it->second.matched_streams.insert(match.stream);
      }
      return;
    }
    default:
      SDSI_CHECK(false);
  }
}

void FloodingSystem::periodic_tick(NodeIndex index) {
  NodeState& state = nodes_[index];
  const sim::SimTime now = routing_.simulator().now();
  state.store.expire(now);

  // Every node answers the flooded queries from its own summaries, replying
  // straight to the client (no aggregation tier exists in this baseline).
  for (core::SimilarityMatch& match : state.store.match(now)) {
    const core::IndexStore::Subscription* sub =
        state.store.find_subscription(match.query);
    SDSI_CHECK(sub != nullptr);
    core::AggregatorRecord& record = state.reply_state[match.query];
    record.client = sub->query->client;
    record.expires = sub->expires;
    if (record.seen.insert(match.stream).second) {
      record.pending.push_back(std::move(match));
    }
  }
  for (auto it = state.reply_state.begin(); it != state.reply_state.end();) {
    core::AggregatorRecord& record = it->second;
    if (record.expires <= now) {
      it = state.reply_state.erase(it);
      continue;
    }
    if (!record.pending.empty()) {
      routing::Message msg;
      msg.kind = core::MsgKind::kResponse;
      msg.payload = std::make_shared<const core::ResponsePayload>(
          core::ResponsePayload{it->first, record.client, false,
                                std::move(record.pending), 0.0});
      record.pending.clear();
      ++record.pushes;
      routing_.send(index, routing_.node_id(record.client), std::move(msg));
    }
    ++it;
  }
}

const core::ClientQueryRecord* FloodingSystem::client_record(
    core::QueryId id) const {
  const auto it = client_records_.find(id);
  return it == client_records_.end() ? nullptr : &it->second;
}

}  // namespace sdsi::baseline
