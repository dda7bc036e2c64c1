#include "core/index_store.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/worker_pool.hpp"

namespace sdsi::core {

namespace {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t key_hash(StreamId stream, std::uint64_t batch_seq) noexcept {
  return splitmix64(splitmix64(stream) ^ batch_seq);
}

// A dedup-index word: the hash's low 32 bits (the tag) in the high half,
// slab position + 1 in the low half; 0 is an empty cell.
constexpr std::uint64_t kPosMask = 0xFFFFFFFFull;
constexpr std::size_t kMinIndexCells = 16;

std::uint64_t index_word(std::uint64_t hash, std::size_t pos) noexcept {
  return (hash << 32) | (pos + 1);
}
std::size_t slot_of(std::uint64_t word) noexcept {
  return static_cast<std::size_t>(word & kPosMask) - 1;
}

constexpr auto kByLow = [](const auto& a, const auto& b) {
  return a.low < b.low;
};

constexpr auto kBeforeId = [](const auto& entry, QueryId id) {
  return entry.first < id;
};

}  // namespace

std::size_t IndexStore::find_cell(StreamId stream, std::uint64_t batch_seq,
                                  std::uint64_t hash) const noexcept {
  // The cell comes from the tag's low bits, so growth can rehash from the
  // stored tags without the keys.
  const std::uint64_t tag = hash & kPosMask;
  const std::size_t mask = by_key_.size() - 1;
  for (std::size_t cell = tag & mask;; cell = (cell + 1) & mask) {
    const std::uint64_t word = by_key_[cell];
    if (word == 0) {
      return cell;
    }
    if ((word >> 32) == tag) {
      const Slot& slot = slots_[slot_of(word)];
      if (slot.stream == stream && slot.batch_seq == batch_seq) {
        return cell;
      }
    }
  }
}

void IndexStore::place(std::uint64_t word) noexcept {
  const std::size_t mask = by_key_.size() - 1;
  std::size_t cell = (word >> 32) & mask;
  while (by_key_[cell] != 0) {
    cell = (cell + 1) & mask;
  }
  by_key_[cell] = word;
}

void IndexStore::grow_index() {
  const std::size_t cells = std::max(kMinIndexCells, by_key_.size() * 2);
  SDSI_CHECK(cells <= (std::size_t{1} << 32));  // cells come from 32-bit tags
  std::vector<std::uint64_t> old(cells, 0);
  old.swap(by_key_);
  for (const std::uint64_t word : old) {
    if (word != 0) {
      place(word);
    }
  }
}

void IndexStore::rebuild_index() {
  std::fill(by_key_.begin(), by_key_.end(), 0);
  for (std::size_t pos = 0; pos < slots_.size(); ++pos) {
    const std::uint64_t hash =
        key_hash(slots_[pos].stream, slots_[pos].batch_seq);
    place(index_word(hash, pos));
  }
  keys_indexed_ = slots_.size();
}

bool IndexStore::add_mbr(StreamId stream, NodeIndex source,
                         const dsp::Mbr& mbr, std::uint64_t batch_seq,
                         sim::SimTime stored_at, sim::SimTime expires) {
  SDSI_CHECK(!mbr.empty());
  if (dims_ == 0) {
    dims_ = mbr.dimensions();
  }
  SDSI_CHECK(mbr.dimensions() == dims_);
  if (expires <= horizon_) {
    return false;  // arrived past its own lifespan: never observable
  }
  SDSI_CHECK(slots_.size() < kPosMask);
  if ((keys_indexed_ + 1) * 4 > by_key_.size() * 3) {
    grow_index();
  }
  const std::uint64_t hash = key_hash(stream, batch_seq);
  const std::size_t cell = find_cell(stream, batch_seq, hash);
  if (by_key_[cell] == 0) {
    ++keys_indexed_;
  } else if (!dead(slots_[slot_of(by_key_[cell])])) {
    return false;  // duplicate delivery of a live batch: idempotent
  }
  // A fresh key, or a prior copy that lapsed and this one supersedes.
  const std::size_t pos = slots_.size();
  by_key_[cell] = index_word(hash, pos);
  mbr_expiry_.push_back(expires);
  std::push_heap(mbr_expiry_.begin(), mbr_expiry_.end(), std::greater<>{});
  slots_.push_back(Slot{stream, batch_seq, stored_at, expires, source});
  coords_.insert(coords_.end(), mbr.low().begin(), mbr.low().end());
  coords_.insert(coords_.end(), mbr.high().begin(), mbr.high().end());
  ++alive_mbrs_;
  return true;
}

void IndexStore::add_subscription(
    std::shared_ptr<const SimilarityQuery> query, Key middle_key,
    sim::SimTime expires) {
  SDSI_CHECK(query != nullptr);
  const QueryId id = query->id;
  auto it = std::lower_bound(subscriptions_.begin(), subscriptions_.end(), id,
                             kBeforeId);
  if (it == subscriptions_.end() || it->first != id) {
    Subscription fresh;
    fresh.query = std::move(query);
    fresh.middle_key = middle_key;
    it = subscriptions_.emplace(it, id, std::move(fresh));
  }
  it->second.expires = expires;
  // A refresh leaves the earlier heap entry behind; expire() erases by the
  // live expires, so the stale entry only costs a pop.
  sub_expiry_.push(expires);
}

void IndexStore::expire(sim::SimTime now) {
  if (now > horizon_) {
    horizon_ = now;
  }
  while (!mbr_expiry_.empty() && mbr_expiry_.front() <= now) {
    std::pop_heap(mbr_expiry_.begin(), mbr_expiry_.end(), std::greater<>{});
    mbr_expiry_.pop_back();
    --alive_mbrs_;
  }
  // Compact once tombstones dominate the slab: amortized O(1) per entry.
  const std::size_t tombstones = slots_.size() - alive_mbrs_;
  if (tombstones > 64 && tombstones * 2 > slots_.size()) {
    compact();
  }
  // Every live subscription's current expires sits in the heap, so one that
  // lapsed by `now` always pops a lane here.
  bool lapsed = false;
  while (!sub_expiry_.empty() && sub_expiry_.top() <= now) {
    sub_expiry_.pop();
    lapsed = true;
  }
  if (lapsed) {
    std::erase_if(subscriptions_, [now](const auto& entry) {
      return entry.second.expires <= now;
    });
  }
}

void IndexStore::merge_pending() {
  std::vector<IntervalRef>& fresh = scratch_;
  fresh.clear();
  for (std::size_t pos = indexed_limit_; pos < slots_.size(); ++pos) {
    if (dead(slots_[pos])) {
      continue;
    }
    const IntervalRef ref = interval(pos);
    fresh.push_back(ref);
    max_extent_ = std::max(max_extent_, ref.high - ref.low);
  }
  indexed_limit_ = slots_.size();
  std::sort(fresh.begin(), fresh.end(), kByLow);
  // Merge from the back into the grown index, keeping older entries first
  // among equal lows (the order a stable merge gives) without a temporary
  // buffer the size of the index.
  std::size_t older = sorted_.size();
  std::size_t newer = fresh.size();
  std::size_t out = older + newer;
  sorted_.resize(out);
  while (newer > 0) {
    if (older > 0 && fresh[newer - 1].low < sorted_[older - 1].low) {
      sorted_[--out] = sorted_[--older];
    } else {
      sorted_[--out] = fresh[--newer];
    }
  }
}

void IndexStore::compact() {
  // Survivors keep slab order, so the entries the previous pass saw stay a
  // prefix: only its length changes.
  const std::size_t width = 2 * dims_;
  std::size_t kept = 0;
  std::size_t settled = 0;
  for (std::size_t pos = 0; pos < slots_.size(); ++pos) {
    if (dead(slots_[pos])) {
      continue;
    }
    if (pos < settled_limit_) {
      ++settled;
    }
    if (kept != pos) {
      slots_[kept] = slots_[pos];
      std::copy_n(coords_.begin() + static_cast<std::ptrdiff_t>(pos * width),
                  width,
                  coords_.begin() + static_cast<std::ptrdiff_t>(kept * width));
    }
    ++kept;
  }
  slots_.resize(kept);
  coords_.resize(kept * width);
  settled_limit_ = settled;
  alive_mbrs_ = kept;
  rebuild_index();

  mbr_expiry_.clear();
  sorted_.clear();
  max_extent_ = 0.0;
  for (std::size_t pos = 0; pos < kept; ++pos) {
    mbr_expiry_.push_back(slots_[pos].expires);
    const IntervalRef ref = interval(pos);
    sorted_.push_back(ref);
    max_extent_ = std::max(max_extent_, ref.high - ref.low);
  }
  std::make_heap(mbr_expiry_.begin(), mbr_expiry_.end(), std::greater<>{});
  std::sort(sorted_.begin(), sorted_.end(), kByLow);
  indexed_limit_ = kept;
}

void IndexStore::match_subscription(QueryId id, Subscription& sub,
                                    std::span<const IntervalRef> stored_since,
                                    sim::SimTime now,
                                    std::vector<SimilarityMatch>& out,
                                    std::uint64_t& scanned) const {
  // expire(now) already dropped lapsed subscriptions, so the per-pair
  // expiry re-checks of the brute-force scan are gone; assert the lane
  // invariant instead.
  SDSI_DCHECK(sub.expires > now);
  const SimilarityQuery& query = *sub.query;
  const double center = query.features.routing_coordinate();
  const double query_low = center - query.radius;
  const double query_high = center + query.radius;
  // Candidates must satisfy low <= query_high and high >= query_low; with
  // high <= low + max_extent_ the second condition bounds the search to
  // low >= query_low - max_extent_, so both ends binary-search.
  const double scan_from = query_low - max_extent_;
  const auto window = [&](std::span<const IntervalRef> refs) {
    const auto first = std::lower_bound(
        refs.begin(), refs.end(), scan_from,
        [](const IntervalRef& ref, double value) { return ref.low < value; });
    const auto last = std::upper_bound(
        first, refs.end(), query_high,
        [](double value, const IntervalRef& ref) { return value < ref.low; });
    return refs.subspan(static_cast<std::size_t>(first - refs.begin()),
                        static_cast<std::size_t>(last - first));
  };
  const std::span<const IntervalRef> full = window(sorted_);
  scanned += full.size();
  // A settled subscription already scored every older entry, and none of
  // those pairs can change verdict, so it scores only the newer ones.
  for (const IntervalRef& ref : sub.settled ? window(stored_since) : full) {
    if (ref.high < query_low) {
      continue;  // first-dim gap alone already exceeds the radius
    }
    if (ref.expires <= horizon_) {
      continue;  // lazily-deleted slot awaiting compaction
    }
    // Only a surviving candidate reads its box, for the full
    // multi-dimensional lower bound. Few candidates pass it, so the bound
    // runs before the dedup probe: the same pairs, far fewer probes.
    const double bound =
        dsp::min_distance(low(ref.pos), high(ref.pos), query.features);
    if (bound <= query.radius && sub.reported.insert(ref.stream).second) {
      out.push_back(SimilarityMatch{id, ref.stream, bound, now});
    }
  }
  sub.settled = true;
}

std::vector<SimilarityMatch> IndexStore::match(sim::SimTime now,
                                               WorkerPool* pool) {
  expire(now);
  if (indexed_limit_ < slots_.size()) {
    merge_pending();
  }
  std::vector<SimilarityMatch> fresh;
  // The table is in ascending-id order, the canonical visit order: the
  // pass's output order (and thus the downstream report/ack message
  // sequence) must be a function of the stored state, not of its
  // insert/erase history.
  const bool any_settled =
      std::any_of(subscriptions_.begin(), subscriptions_.end(),
                  [](const auto& entry) { return entry.second.settled; });
  // The index entries stored since the previous pass, in index order: all
  // a settled subscription has left to score.
  std::vector<IntervalRef>& stored_since = scratch_;
  stored_since.clear();
  if (any_settled && settled_limit_ < slots_.size()) {
    for (const IntervalRef& ref : sorted_) {
      if (ref.pos >= settled_limit_) {
        stored_since.push_back(ref);
      }
    }
  }
  settled_limit_ = slots_.size();
  // Below this many subscriptions a fan-out costs more than it saves; the
  // serial path is also the reference the sharded one must reproduce.
  constexpr std::size_t kParallelThreshold = 4;
  last_match_work_ = 0;
  if (pool == nullptr || pool->thread_count() <= 1 ||
      subscriptions_.size() < kParallelThreshold) {
    for (auto& [id, sub] : subscriptions_) {
      match_subscription(id, sub, stored_since, now, fresh, last_match_work_);
    }
    return fresh;
  }
  // Sharded pass: every task owns its subscription (and its `reported` set)
  // exclusively, while the slab and interval index stay frozen, so the only
  // coordination is the pool's end-of-pass barrier. Concatenating the shard
  // outputs in the canonical order makes the result identical to the serial
  // loop.
  const std::size_t count = subscriptions_.size();
  std::vector<std::vector<SimilarityMatch>> shards(count);
  std::vector<std::uint64_t> scanned(count, 0);
  pool->parallel_for(count, [&](std::size_t i) {
    auto& [id, sub] = subscriptions_[i];
    match_subscription(id, sub, stored_since, now, shards[i], scanned[i]);
  });
  for (const std::uint64_t n : scanned) {
    last_match_work_ += n;
  }
  std::size_t total = 0;
  for (const auto& shard : shards) {
    total += shard.size();
  }
  fresh.reserve(total);
  for (auto& shard : shards) {
    fresh.insert(fresh.end(), shard.begin(), shard.end());
  }
  return fresh;
}

std::vector<SimilarityMatch> IndexStore::match_brute_force(sim::SimTime now) {
  std::vector<SimilarityMatch> fresh;
  for (auto& [id, sub] : subscriptions_) {
    if (sub.expires <= now) {
      continue;
    }
    const SimilarityQuery& query = *sub.query;
    for (std::size_t pos = 0; pos < slots_.size(); ++pos) {
      const Slot& slot = slots_[pos];
      if (slot.expires <= now || sub.reported.contains(slot.stream)) {
        continue;
      }
      const double bound =
          dsp::min_distance(low(pos), high(pos), query.features);
      if (bound <= query.radius) {
        sub.reported.insert(slot.stream);
        fresh.push_back(SimilarityMatch{id, slot.stream, bound, now});
      }
    }
  }
  return fresh;
}

IndexStore::StoredMbr IndexStore::stored(std::size_t pos) const {
  const Slot& slot = slots_[pos];
  const auto lo = low(pos);
  const auto hi = high(pos);
  return StoredMbr{slot.stream,
                   slot.source,
                   dsp::Mbr(std::vector<double>(lo.begin(), lo.end()),
                            std::vector<double>(hi.begin(), hi.end())),
                   slot.batch_seq,
                   slot.stored_at,
                   slot.expires};
}

std::vector<IndexStore::StoredMbr> IndexStore::mbrs() const {
  std::vector<StoredMbr> out;
  out.reserve(alive_mbrs_);
  for (std::size_t pos = 0; pos < slots_.size(); ++pos) {
    if (!dead(slots_[pos])) {
      out.push_back(stored(pos));
    }
  }
  return out;
}

const IndexStore::Subscription* IndexStore::find_subscription(
    QueryId id) const {
  const auto it = std::lower_bound(subscriptions_.begin(),
                                   subscriptions_.end(), id, kBeforeId);
  return it == subscriptions_.end() || it->first != id ? nullptr
                                                       : &it->second;
}

std::optional<std::size_t> IndexStore::live_pos(
    StreamId stream, std::uint64_t batch_seq) const {
  if (by_key_.empty()) {
    return std::nullopt;
  }
  const std::uint64_t word =
      by_key_[find_cell(stream, batch_seq, key_hash(stream, batch_seq))];
  if (word == 0 || dead(slots_[slot_of(word)])) {
    return std::nullopt;
  }
  return slot_of(word);
}

bool IndexStore::contains_mbr(StreamId stream,
                              std::uint64_t batch_seq) const {
  return live_pos(stream, batch_seq).has_value();
}

std::optional<IndexStore::StoredMbr> IndexStore::find_mbr(
    StreamId stream, std::uint64_t batch_seq) const {
  const std::optional<std::size_t> pos = live_pos(stream, batch_seq);
  if (!pos) {
    return std::nullopt;
  }
  return stored(*pos);
}

}  // namespace sdsi::core
