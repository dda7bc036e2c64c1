#include "core/robustness.hpp"

namespace sdsi::core {

void RecallOracle::on_publish(const MbrPayload& payload, sim::SimTime now) {
  shadow_.add_mbr(payload.stream, payload.source, payload.mbr,
                  payload.batch_seq, now, payload.expires);
}

void RecallOracle::on_subscribe(
    std::shared_ptr<const SimilarityQuery> query) {
  const sim::SimTime expires = query->issued_at + query->lifespan;
  // The middle key only matters for routing; the shadow store never routes.
  shadow_.add_subscription(std::move(query), /*middle_key=*/0, expires);
}

void RecallOracle::sample(sim::SimTime now) {
  for (const SimilarityMatch& match : shadow_.match_brute_force(now)) {
    pairs_.emplace(match.query, match.stream);
  }
}

}  // namespace sdsi::core
