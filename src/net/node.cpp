#include "net/node.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "core/replica_sync.hpp"

namespace sdsi::net {

NetNode::NetNode(const NetRing& ring, NodeIndex self, Transport& transport,
                 NetNodeConfig config)
    : ring_(ring),
      self_(self),
      transport_(transport),
      config_(std::move(config)),
      strategy_(core::IndexingStrategy::make(config_.strategy,
                                             config_.features, ring.space())),
      detector_(config_.reliability.detector, ring.size(), self) {
  config_.features.validate();
}

std::uint64_t NetNode::next_trace_id() noexcept {
  // Globally unique without coordination: high bits carry the node index.
  return (static_cast<std::uint64_t>(self_) + 1) << 40 | ++trace_counter_;
}

void NetNode::publish_value(StreamId stream, Sample value, sim::SimTime now) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    auto state = std::make_unique<LocalStream>(LocalStream{
        strategy_->make_summarizer(), core::MbrBatcher(config_.batching), 0});
    it = streams_.emplace(stream, std::move(state)).first;
  }
  LocalStream& state = *it->second;
  state.summarizer->push(value);
  if (!state.summarizer->ready()) {
    return;
  }
  dsp::FeatureVector features;
  if (!state.summarizer->features_into(features)) {
    return;  // degenerate window: no direction on the unit sphere
  }
  if (std::optional<dsp::Mbr> closed = state.batcher.push(features)) {
    publish_mbr(stream, state, std::move(*closed), now);
  }
}

void NetNode::publish_mbr(StreamId stream, LocalStream& state, dsp::Mbr mbr,
                          sim::SimTime now) {
  // Primary range first (acks/refresh track it alone); extra probe ranges
  // (multi-probe lsh; none for dft/ecm) go out fire-and-forget below.
  strategy_->key_map().mbr_ranges(mbr, range_scratch_);
  const auto [lo, hi] = range_scratch_.front();
  const std::vector<std::pair<Key, Key>> probes(range_scratch_.begin() + 1,
                                                range_scratch_.end());
  const sim::SimTime expires = now + config_.mbr_lifespan;
  const auto payload = std::make_shared<const core::MbrPayload>(
      core::MbrPayload{stream, self_, std::move(mbr), state.batch_seq++,
                       expires});

  if (config_.store_local_summaries) {
    if (store_.add_mbr(payload->stream, self_, payload->mbr,
                       payload->batch_seq, now, expires)) {
      ++counters_.mbrs_stored;
    }
  }

  ++counters_.mbrs_published;
  if (reliable()) {
    // Track the publication until the landing node acks it; refresh keeps
    // re-multicasting it afterwards (range replicas have no ack of their
    // own — soft state owns them).
    published_.try_emplace(std::make_pair(payload->stream, payload->batch_seq),
                           PendingMbr{payload, lo, hi, false, clock_ms_, 0});
  }
  send_range(routing::MsgKind::kMbrUpdate, payload, lo, hi, now);
  for (const auto& [plo, phi] : probes) {
    send_range(routing::MsgKind::kMbrUpdate, payload, plo, phi, now);
  }
}

void NetNode::subscribe_similarity(core::QueryId id,
                                   dsp::FeatureVector features, double radius,
                                   sim::Duration lifespan, sim::SimTime now) {
  auto query = std::make_shared<const core::SimilarityQuery>(
      core::SimilarityQuery{id, self_, std::move(features), radius, lifespan,
                            now});
  strategy_->key_map().query_ranges(query->features, radius, range_scratch_);
  const auto [lo, hi] = range_scratch_.front();
  const std::vector<std::pair<Key, Key>> probes(range_scratch_.begin() + 1,
                                                range_scratch_.end());
  const Key middle = ring_.space().midpoint(lo, hi);
  const auto payload = std::make_shared<const core::SimilarityQueryPayload>(
      core::SimilarityQueryPayload{std::move(query), middle});
  results_.try_emplace(id);
  ++counters_.queries_posed;
  if (reliable()) {
    own_queries_.push_back(OwnQuery{payload, lo, hi});
  }
  send_range(routing::MsgKind::kSimilarityQuery, payload, lo, hi, now);
  for (const auto& [plo, phi] : probes) {
    send_range(routing::MsgKind::kSimilarityQuery, payload, plo, phi, now);
  }
}

void NetNode::send_range(routing::MsgKind kind, std::any payload, Key lo,
                         Key hi, sim::SimTime now) {
  routing::Message msg;
  msg.kind = kind;
  msg.origin = self_;
  msg.payload = std::move(payload);
  msg.has_range = true;
  msg.range_lo = lo;
  msg.range_hi = hi;
  msg.range_dir = routing::RangeDir::kUp;  // sequential multicast
  msg.sent_at = now;
  msg.trace_id = next_trace_id();
  route_to_key(lo, std::move(msg), now);
}

void NetNode::route_to_key(Key key, routing::Message msg, sim::SimTime now) {
  msg.target_key = ring_.space().wrap(key);
  NodeIndex dst = ring_.successor_of_key(msg.target_key);
  if (reliable()) {
    // Detour past excised peers: the first live successor inherits the dead
    // node's arc (it stores whatever lands, so range coverage survives).
    std::size_t walked = 0;
    while (dst != self_ && !detector_.usable(dst) &&
           walked + 1 < ring_.size()) {
      dst = ring_.successor_index(dst);
      ++counters_.detours;
      ++walked;
    }
  }
  if (dst == self_) {
    deliver(std::move(msg), now);
    return;
  }
  msg.hops = 1;
  if (!transport_.send(dst, msg)) {
    ++counters_.send_failures;
  }
}

void NetNode::send_direct(NodeIndex peer, routing::MsgKind kind,
                          std::any payload, sim::SimTime now) {
  if (peer >= ring_.size()) {
    // Peer indices riding in reliability payloads are untrusted once link
    // corruption is in play: a flipped byte can decode into a frame whose
    // `source`/`requester`/`from` field is garbage. Drop instead of letting
    // ring_.id() abort the process.
    ++counters_.send_failures;
    return;
  }
  routing::Message msg;
  msg.kind = kind;
  msg.origin = self_;
  msg.target_key = ring_.id(peer);
  msg.payload = std::move(payload);
  msg.sent_at = now;
  msg.trace_id = next_trace_id();
  if (peer == self_) {
    deliver(std::move(msg), now);
    return;
  }
  msg.hops = 1;
  if (!transport_.send(peer, msg)) {
    ++counters_.send_failures;
  }
}

void NetNode::deliver(routing::Message&& msg, sim::SimTime now) {
  if (reliable() && msg.origin != self_ && msg.origin < ring_.size()) {
    // Any frame is liveness evidence (epochs ride only in heartbeats).
    detector_.observe_alive(msg.origin, clock_ms_);
  }
  switch (msg.kind) {
    case routing::MsgKind::kMbrUpdate:
      handle_mbr(msg, now);
      break;
    case routing::MsgKind::kSimilarityQuery:
      handle_similarity_query(msg, now);
      break;
    case routing::MsgKind::kResponse:
      handle_response(msg, now);
      return;  // responses are point-to-point, never range-forwarded
    case routing::MsgKind::kHeartbeat:
      handle_heartbeat(msg);
      return;
    case routing::MsgKind::kMbrAck:
      handle_mbr_ack(msg);
      return;
    case routing::MsgKind::kResponseAck:
      handle_response_ack(msg);
      return;
    case routing::MsgKind::kReplicaPut:
      handle_replica_put(msg, now);
      return;
    case routing::MsgKind::kHandoffRequest:
      handle_handoff_request(msg, now);
      return;
    case routing::MsgKind::kAntiEntropyDigest:
      handle_anti_entropy_digest(msg, now);
      return;
    case routing::MsgKind::kAntiEntropyRequest:
      handle_anti_entropy_request(msg, now);
      return;
    default:
      return;  // kinds outside the net pipeline's scope: ignore
  }
  if (msg.has_range) {
    forward_range_copies(msg);
  }
}

void NetNode::handle_mbr(const routing::Message& msg, sim::SimTime now) {
  const auto& payload = routing::payload_of<core::MbrPayload>(msg);
  // The source already stored this batch at publish time; every other node
  // stores it here (the payload's absolute expiry keeps redelivery
  // idempotent, same as the sim's handle_mbr).
  bool stored = false;
  if (!(config_.store_local_summaries && payload->source == self_)) {
    stored = store_.add_mbr(payload->stream, payload->source, payload->mbr,
                            payload->batch_seq, now, payload->expires);
    if (stored) {
      ++counters_.mbrs_stored;
    }
  }
  if (!reliable() || msg.range_internal) {
    return;
  }
  // This node is the landing node (successor of the range's low end):
  // acknowledge the publication end-to-end and mirror the entry to the
  // live successor set so a crash here cannot erase it.
  if (payload->source == self_) {
    const auto it = published_.find(
        std::make_pair(payload->stream, payload->batch_seq));
    if (it != published_.end()) {
      it->second.acked = true;
    }
  } else {
    send_direct(payload->source, routing::MsgKind::kMbrAck,
                std::make_shared<const core::MbrAckPayload>(
                    core::MbrAckPayload{payload->stream, payload->batch_seq}),
                now);
    ++counters_.mbr_acks_sent;
  }
  if (!stored && !(config_.store_local_summaries && payload->source == self_)) {
    return;  // duplicate redelivery: already mirrored the first time
  }
  core::ReplicaPutPayload put;
  put.mbrs.push_back({payload->stream, payload->source, payload->mbr,
                      payload->batch_seq, payload->expires});
  // The source holds its own copy already.
  send_to_replicas(std::move(put), payload->source, now);
}

void NetNode::handle_similarity_query(const routing::Message& msg,
                                      sim::SimTime now) {
  const auto& payload = routing::payload_of<core::SimilarityQueryPayload>(msg);
  const core::SimilarityQuery& query = *payload->query;
  const bool fresh = store_.find_subscription(query.id) == nullptr;
  store_.add_subscription(payload->query, payload->middle_key,
                          query.issued_at + query.lifespan);
  ++counters_.subscriptions_stored;
  if (!reliable() || msg.range_internal || !fresh) {
    return;
  }
  // Landing node: mirror the fresh subscription alongside the MBR replicas
  // so a crash cannot silently unsubscribe the client.
  core::ReplicaPutPayload put;
  put.subscriptions.push_back({payload->query, payload->middle_key,
                               query.issued_at + query.lifespan});
  send_to_replicas(std::move(put), query.client, now);
}

void NetNode::send_to_replicas(core::ReplicaPutPayload put, NodeIndex holder,
                               sim::SimTime now) {
  put.from = self_;
  const auto shared =
      std::make_shared<const core::ReplicaPutPayload>(std::move(put));
  std::vector<NodeIndex> replicas;
  NodeIndex cursor = self_;
  while (replicas.size() < config_.reliability.replication) {
    cursor = next_live(cursor, routing::RangeDir::kUp);
    if (cursor == kInvalidNode ||
        std::find(replicas.begin(), replicas.end(), cursor) !=
            replicas.end()) {
      break;  // ring exhausted or wrapped
    }
    replicas.push_back(cursor);
  }
  for (const NodeIndex replica : replicas) {
    if (replica == holder) {
      continue;
    }
    send_direct(replica, routing::MsgKind::kReplicaPut, shared, now);
    ++counters_.replica_puts_sent;
  }
}

void NetNode::handle_response(const routing::Message& msg, sim::SimTime now) {
  const auto& payload = routing::payload_of<core::ResponsePayload>(msg);
  const auto it = results_.find(payload->query);
  if (it == results_.end()) {
    return;  // not our query (stale route)
  }
  for (const core::SimilarityMatch& match : payload->matches) {
    it->second.insert(match.stream);
  }
  if (reliable() && payload->aggregator != kInvalidNode &&
      payload->aggregator < ring_.size() && payload->aggregator != self_) {
    send_direct(payload->aggregator, routing::MsgKind::kResponseAck,
                std::make_shared<const core::ResponseAckPayload>(
                    core::ResponseAckPayload{payload->query,
                                             payload->push_seq}),
                now);
    ++counters_.response_acks_sent;
  }
}

void NetNode::handle_heartbeat(const routing::Message& msg) {
  const auto& payload = routing::payload_of<core::HeartbeatPayload>(msg);
  ++counters_.heartbeats_received;
  if (!reliable()) {
    return;
  }
  if (detector_.observe_heartbeat(payload->from, payload->epoch, clock_ms_)) {
    // The peer's process restarted with an empty store: owe it a repair
    // digest on the next anti-entropy pass.
    pending_repair_.insert(payload->from);
  }
}

void NetNode::handle_mbr_ack(const routing::Message& msg) {
  const auto& payload = routing::payload_of<core::MbrAckPayload>(msg);
  ++counters_.mbr_acks_received;
  const auto it =
      published_.find(std::make_pair(payload->stream, payload->batch_seq));
  if (it != published_.end()) {
    it->second.acked = true;
  }
}

void NetNode::handle_response_ack(const routing::Message& msg) {
  const auto& payload = routing::payload_of<core::ResponseAckPayload>(msg);
  ++counters_.response_acks_received;
  unacked_responses_.erase(std::make_pair(payload->query, payload->push_seq));
}

void NetNode::handle_replica_put(const routing::Message& msg,
                                 sim::SimTime now) {
  const auto& payload = routing::payload_of<core::ReplicaPutPayload>(msg);
  counters_.replica_entries_stored +=
      core::replica_sync::apply(*payload, store_, now).added;
}

void NetNode::handle_handoff_request(const routing::Message& msg,
                                     sim::SimTime now) {
  const auto& payload = routing::payload_of<core::HandoffRequestPayload>(msg);
  core::ReplicaPutPayload put = core::replica_sync::collect(
      store_, strategy_->key_map(), ring_.space(), self_, payload->lo,
      payload->hi, now);
  put.handoff = true;
  send_replica_put(payload->requester, std::move(put),
                   counters_.handoff_entries_sent, now);
}

void NetNode::handle_anti_entropy_digest(const routing::Message& msg,
                                         sim::SimTime now) {
  const auto& payload =
      routing::payload_of<core::AntiEntropyDigestPayload>(msg);
  core::replica_sync::DigestDiff diff = core::replica_sync::diff(
      *payload, store_, strategy_->key_map(), ring_.space(), self_, now);
  // Pull direction: request every digest entry this store is missing.
  if (core::replica_sync::entries(diff.request) > 0) {
    ++counters_.anti_entropy_requests;
    send_direct(payload->from, routing::MsgKind::kAntiEntropyRequest,
                std::make_shared<const core::AntiEntropyRequestPayload>(
                    std::move(diff.request)),
                now);
  }
  // Push direction: back-fill arc entries the digest's sender is missing.
  send_replica_put(payload->from, std::move(diff.push),
                   counters_.repair_entries_sent, now);
}

void NetNode::handle_anti_entropy_request(const routing::Message& msg,
                                          sim::SimTime now) {
  const auto& payload =
      routing::payload_of<core::AntiEntropyRequestPayload>(msg);
  send_replica_put(payload->requester,
                   core::replica_sync::lookup(*payload, store_, self_, now),
                   counters_.repair_entries_sent, now);
}

void NetNode::send_replica_put(NodeIndex peer, core::ReplicaPutPayload put,
                               std::uint64_t& entries_sent, sim::SimTime now) {
  const std::size_t entries = core::replica_sync::entries(put);
  if (entries == 0) {
    return;
  }
  entries_sent += entries;
  send_direct(peer, routing::MsgKind::kReplicaPut,
              std::make_shared<const core::ReplicaPutPayload>(std::move(put)),
              now);
}

void NetNode::forward_range_copies(const routing::Message& msg) {
  const routing::RangeSteps steps = routing::range_steps(
      ring_.space(), msg, ring_.id(ring_.predecessor_index(self_)),
      ring_.id(self_));
  if (steps.up) {
    forward_range_copy(msg, routing::RangeDir::kUp);
  }
  if (steps.down) {
    forward_range_copy(msg, routing::RangeDir::kDown);
  }
}

void NetNode::forward_range_copy(const routing::Message& msg,
                                 routing::RangeDir dir) {
  NodeIndex next = neighbor(self_, dir);
  if (reliable()) {
    while (next != self_ && !detector_.usable(next)) {
      next = neighbor(next, dir);
      ++counters_.detours;
    }
  }
  if (next == self_) {
    return;
  }
  routing::Message copy = msg;
  copy.range_internal = true;
  copy.range_dir = dir;
  copy.origin = self_;
  copy.hops = 1;
  copy.target_key = ring_.id(next);
  if (!transport_.send(next, copy)) {
    ++counters_.send_failures;
  }
}

void NetNode::tick(sim::SimTime now) {
  const std::vector<core::SimilarityMatch> fresh = store_.match(now);
  if (fresh.empty()) {
    return;
  }
  // Group this tick's fresh matches per query and respond to each client
  // directly (divergence from the sim's middle-node aggregation — see the
  // header comment for why the matched sets are unaffected).
  std::map<core::QueryId, std::vector<core::SimilarityMatch>> by_query;
  for (const core::SimilarityMatch& match : fresh) {
    by_query[match.query].push_back(match);
  }
  for (auto& [query_id, matches] : by_query) {
    const core::IndexStore::Subscription* sub =
        store_.find_subscription(query_id);
    if (sub == nullptr || sub->query == nullptr) {
      continue;  // expired between match and push
    }
    const NodeIndex client = sub->query->client;
    if (client >= ring_.size()) {
      continue;  // corrupted subscription frame carried a garbage client
    }
    // Acked push: the client confirms receipt, otherwise the push is
    // retransmitted from reliability_tick until retries run out.
    const bool acked = reliable() && client != self_;
    core::ResponsePayload response;
    response.query = query_id;
    response.client = client;
    response.matches = std::move(matches);
    if (acked) {
      response.aggregator = self_;
      response.push_seq = ++push_seq_;
    }

    const auto payload =
        std::make_shared<const core::ResponsePayload>(std::move(response));
    ++counters_.responses_sent;
    if (acked) {
      unacked_responses_.emplace(
          std::make_pair(payload->query, payload->push_seq),
          PendingResponse{payload, client, clock_ms_, 0});
    }
    // A local client is answered in place (send_direct loops back).
    send_direct(client, routing::MsgKind::kResponse, payload, now);
  }
}

void NetNode::heartbeat_tick(std::int64_t now_ms, sim::SimTime now) {
  clock_ms_ = now_ms;
  if (!reliable()) {
    return;
  }
  detector_.advance(now_ms);
  const std::int64_t period = config_.reliability.detector.heartbeat_period_ms;
  if (last_heartbeat_ms_ >= 0 && now_ms - last_heartbeat_ms_ < period) {
    return;
  }
  last_heartbeat_ms_ = now_ms;
  const auto payload = std::make_shared<const core::HeartbeatPayload>(
      core::HeartbeatPayload{self_, config_.epoch, ++heartbeat_seq_});
  for (NodeIndex peer = 0; peer < ring_.size(); ++peer) {
    if (peer == self_) {
      continue;
    }
    // Dead peers are pinged too — a restarted process answers with a higher
    // epoch, which is how the rejoin is noticed.
    send_direct(peer, routing::MsgKind::kHeartbeat, payload, now);
    ++counters_.heartbeats_sent;
  }
}

void NetNode::reliability_tick(std::int64_t now_ms, sim::SimTime now) {
  clock_ms_ = now_ms;
  if (!reliable()) {
    return;
  }
  const NetReliabilityConfig& rel = config_.reliability;

  // 1. Fast retransmit of unacked publications.
  for (auto& [key, pending] : published_) {
    if (!pending.acked && pending.retries < rel.max_retries &&
        now_ms - pending.last_sent_ms >= rel.ack_timeout_ms) {
      ++pending.retries;
      pending.last_sent_ms = now_ms;
      ++counters_.mbr_retransmits;
      send_range(routing::MsgKind::kMbrUpdate, pending.payload, pending.lo,
                 pending.hi, now);
    }
  }

  // 2. Periodic soft-state refresh: re-multicast everything this node owns.
  //    Receiver-side dedup makes the sweep idempotent; it is what heals
  //    range replicas and anything a detoured delivery mis-placed.
  if (now_ms - last_refresh_ms_ >= rel.refresh_period_ms) {
    last_refresh_ms_ = now_ms;
    ++counters_.refresh_rounds;
    for (auto& [key, pending] : published_) {
      ++counters_.mbr_refreshes;
      send_range(routing::MsgKind::kMbrUpdate, pending.payload, pending.lo,
                 pending.hi, now);
    }
    for (const OwnQuery& own : own_queries_) {
      const core::SimilarityQuery& query = *own.payload->query;
      if (query.issued_at + query.lifespan <= now) {
        continue;  // expired: let it die
      }
      ++counters_.query_refreshes;
      send_range(routing::MsgKind::kSimilarityQuery, own.payload, own.lo,
                 own.hi, now);
    }
  }

  // 3. Retransmit unacked match pushes; give up after max_retries (a client
  //    that stays gone is excised by the detector anyway).
  for (auto it = unacked_responses_.begin(); it != unacked_responses_.end();) {
    PendingResponse& pending = it->second;
    if (now_ms - pending.last_sent_ms >= rel.ack_timeout_ms) {
      if (pending.retries >= rel.max_retries) {
        it = unacked_responses_.erase(it);
        continue;
      }
      ++pending.retries;
      pending.last_sent_ms = now_ms;
      ++counters_.response_retransmits;
      send_direct(pending.client, routing::MsgKind::kResponse,
                  pending.payload, now);
    }
    ++it;
  }

  // 4. Anti-entropy digests toward both live ring neighbors, plus any peer
  //    whose rejoin was observed since the last pass.
  if (now_ms - last_anti_entropy_ms_ >= rel.anti_entropy_period_ms) {
    last_anti_entropy_ms_ = now_ms;
    ++counters_.anti_entropy_rounds;
    const std::array<NodeIndex, 2> neighbors = live_neighbors();
    for (const NodeIndex peer : neighbors) {
      if (peer != kInvalidNode) {
        send_digest_to(peer, now);
      }
    }
    for (const NodeIndex peer : pending_repair_) {
      if (std::find(neighbors.begin(), neighbors.end(), peer) ==
              neighbors.end() &&
          detector_.usable(peer)) {
        send_digest_to(peer, now);
      }
    }
    pending_repair_.clear();
  }
}

void NetNode::request_handoff(sim::SimTime now) {
  if (!reliable()) {
    return;
  }
  const auto payload = std::make_shared<const core::HandoffRequestPayload>(
      core::HandoffRequestPayload{self_,
                                  ring_.id(ring_.predecessor_index(self_)),
                                  ring_.id(self_)});
  for (const NodeIndex peer : live_neighbors()) {
    if (peer != kInvalidNode) {
      ++counters_.handoff_requests_sent;
      send_direct(peer, routing::MsgKind::kHandoffRequest, payload, now);
    }
  }
}

void NetNode::send_digest_to(NodeIndex peer, sim::SimTime now) {
  // Digest the entries relevant to `peer`'s owned arc (its static ring
  // predecessor to itself; a dead predecessor only widens what the peer is
  // offered, never narrows it).
  send_direct(peer, routing::MsgKind::kAntiEntropyDigest,
              std::make_shared<const core::AntiEntropyDigestPayload>(
                  core::replica_sync::digest(
                      store_, strategy_->key_map(), ring_.space(), self_,
                      ring_.id(ring_.predecessor_index(peer)), ring_.id(peer),
                      now)),
              now);
}

NodeIndex NetNode::neighbor(NodeIndex n, routing::RangeDir dir) const {
  return dir == routing::RangeDir::kUp ? ring_.successor_index(n)
                                       : ring_.predecessor_index(n);
}

NodeIndex NetNode::next_live(NodeIndex from, routing::RangeDir dir) const {
  NodeIndex n = from;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    n = neighbor(n, dir);
    if (n != self_ && detector_.usable(n)) {
      return n;
    }
  }
  return kInvalidNode;
}

std::array<NodeIndex, 2> NetNode::live_neighbors() const {
  const NodeIndex up = next_live(self_, routing::RangeDir::kUp);
  const NodeIndex down = next_live(self_, routing::RangeDir::kDown);
  return {up, down == up ? kInvalidNode : down};
}

}  // namespace sdsi::net
