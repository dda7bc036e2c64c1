// Per-data-center index storage (paper Sec IV, Table I lifespans).
//
// Each node stores (a) the MBRs routed to it by content, and (b) the
// similarity-query subscriptions replicated onto it because its arc
// intersects the query's key range. Both carry lifespans: "every MBR or
// query is stored at nodes only for a certain life span after which it is
// removed, to prevent cluttering of storage space and to eliminate query
// responses that contain stale information."
//
// Matching engine (key-interval pruning). A stored MBR projects onto the
// routing dimension as the interval [low_1re, high_1re] — exactly the Eq. 6
// key range it was replicated over. A similarity ball projects onto
// [x1 - r, x1 + r]. If those two intervals do not overlap, the first-dim gap
// alone already exceeds r, so min_distance > r and the full MBR bound could
// never admit the candidate. The store therefore keeps an interval index
// sorted by `low` and evaluates min_distance only against MBRs whose
// first-coefficient interval overlaps the query interval — the surviving
// candidates still get the full multi-dimensional MBR lower bound, so the
// Sec IV-E no-false-dismissal guarantee is untouched.
//
// Settled pairs (incremental matching). Stored MBRs and subscriptions never
// change, and a subscription's `reported` set only grows, so once a pass has
// scored a (subscription, MBR) pair its verdict is final: a pair that failed
// the bound fails forever, and a reported stream is never reported again.
// A subscription's first pass scans its whole index window; every later
// pass scores it only against the MBRs stored since the previous pass. Those
// are the slab positions at or past one boundary (`settled_limit_`); the
// slab is append-only between compactions and compaction keeps slab order,
// so the boundary carries through it as a single integer. The pass's work
// figure (last_match_work) still counts the full window over the index,
// tombstones included, so the overload layer sees the same load either way.
//
// Expiry is incremental ("expiry lanes"): a min-expiry heap per container
// pops lapsed entries in O(log n) each instead of erase_if-scanning both
// containers every NPER tick. MBR slots are deleted lazily (an entry is dead
// iff expires <= the latest expiry horizon) and the slab compacts once dead
// slots dominate.
//
// Write path. Range multicast stores every MBR on each node whose arc meets
// its key range, so a store copy is the most frequent write. Storing one
// allocates nothing once the member buffers have grown: the slab is a flat
// array of small fixed-size `Slot`s plus one coordinate array holding each
// slot's 2 * dims box corners (the lows, then the highs), and duplicate
// suppression runs over a store-local open-addressed index of 64-bit
// (hash tag, slab position) words that touches the slab only on a tag hit.
// Compaction compacts slots and coordinates in lockstep and reuses every
// buffer.
#pragma once

#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "common/dense_map.hpp"
#include "core/query.hpp"

namespace sdsi::core {

class WorkerPool;

class IndexStore {
 public:
  /// One stored MBR as a value (snapshots and lookups build it; the store
  /// keeps its fields split across the slab and the coordinate array).
  struct StoredMbr {
    StreamId stream = 0;
    NodeIndex source = kInvalidNode;
    dsp::Mbr mbr;
    std::uint64_t batch_seq = 0;
    sim::SimTime stored_at;
    sim::SimTime expires;
  };

  struct Subscription {
    std::shared_ptr<const SimilarityQuery> query;
    Key middle_key = 0;
    sim::SimTime expires;
    /// Streams already reported by THIS node for this query; reports are
    /// deduplicated per node, the aggregator dedups across nodes.
    DenseSet<StreamId> reported;
    /// Whether a match pass has scored this subscription against every MBR
    /// below the store's settled boundary.
    bool settled = false;
  };

  /// Stores one MBR. Returns false without storing when the entry is already
  /// past the expiry horizon, or when a live entry with the same
  /// (stream, batch_seq) is present — duplicate deliveries from ack-driven
  /// retransmission or soft-state refresh are idempotent, so self-healing
  /// can never inflate match counts. Every MBR in one store has the same
  /// dimensions (fixed by the first add; a mismatch is a fatal check).
  bool add_mbr(StreamId stream, NodeIndex source, const dsp::Mbr& mbr,
               std::uint64_t batch_seq, sim::SimTime stored_at,
               sim::SimTime expires);

  /// Inserts or refreshes a subscription (range re-replication of the same
  /// query id keeps the original state).
  void add_subscription(std::shared_ptr<const SimilarityQuery> query,
                        Key middle_key, sim::SimTime expires);

  /// Advances the expiry horizon to `now`, dropping every MBR and
  /// subscription whose lifespan passed. Incremental: O(log n) per lapsed
  /// entry, O(1) when nothing expired.
  void expire(sim::SimTime now);

  /// One matching pass (Eq. 8 + MBR lower bound): returns the NEW
  /// (query, stream) candidate pairs detected at `now`, recording them so
  /// they are never reported twice by this node. Runs expire(now) first, so
  /// callers need no separate sweep. Incremental: a subscription that had a
  /// pass before is scored only against the MBRs stored since then (see
  /// "Settled pairs" above); the result equals a full rescan.
  ///
  /// With a WorkerPool the per-subscription candidate scans are sharded
  /// across its threads (each subscription is owned by exactly one task;
  /// the MBR slab and interval index are frozen for the duration of the
  /// pass) and the shard results are concatenated in the serial iteration
  /// order — the returned vector is byte-identical to the pool-less call.
  std::vector<SimilarityMatch> match(sim::SimTime now,
                                     WorkerPool* pool = nullptr);

  /// Reference oracle: the original O(subscriptions x MBRs) scan over the
  /// same state. Kept for the equivalence tests and the matching microbench;
  /// production ticks use match().
  std::vector<SimilarityMatch> match_brute_force(sim::SimTime now);

  std::size_t mbr_count() const noexcept { return alive_mbrs_; }
  std::size_t subscription_count() const noexcept {
    return subscriptions_.size();
  }

  /// Interval-index entries in the scan windows of the most recent match()
  /// pass, tombstones and settled pairs included — the pass's scan cost,
  /// used by the overload layer as the node's "index work".
  /// A sum over subscriptions, so the serial and pool-sharded passes report
  /// the identical number (hot-arc decisions stay thread-count-invariant).
  std::uint64_t last_match_work() const noexcept { return last_match_work_; }

  /// Snapshot of the live MBR entries (insertion order preserved).
  std::vector<StoredMbr> mbrs() const;

  const DenseMap<QueryId, Subscription>& subscriptions() const noexcept {
    return subscriptions_;
  }
  const Subscription* find_subscription(QueryId id) const;

  /// Whether a live entry with this (stream, batch_seq) identity is stored.
  /// Lazily-deleted slots count as absent (replication digests must never
  /// claim expired state).
  bool contains_mbr(StreamId stream, std::uint64_t batch_seq) const;

  /// A copy of the live entry with this identity, if one is stored.
  std::optional<StoredMbr> find_mbr(StreamId stream,
                                    std::uint64_t batch_seq) const;

 private:
  /// The fixed-size part of one slab entry; its box lives in coords_.
  struct Slot {
    StreamId stream = 0;
    std::uint64_t batch_seq = 0;
    sim::SimTime stored_at;
    sim::SimTime expires;
    NodeIndex source = kInvalidNode;
  };

  /// One entry of the interval index: the routing-dimension interval of
  /// slot `pos`, plus the stream id and expiry mirrored out of the slab so
  /// the candidate scan (interval overlap, liveness, dedup) runs entirely
  /// over this hot contiguous array; the coordinate array is touched only
  /// for the final multi-dimensional min_distance bound.
  struct IntervalRef {
    double low = 0.0;
    double high = 0.0;
    std::uint32_t pos = 0;
    StreamId stream = 0;
    sim::SimTime expires;
  };

  struct SubExpiry {
    sim::SimTime expires;
    QueryId id = 0;
    friend bool operator>(const SubExpiry& a, const SubExpiry& b) noexcept {
      return a.expires > b.expires;
    }
  };

  template <typename T>
  using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<T>>;

  bool dead(const Slot& slot) const noexcept {
    return slot.expires <= horizon_;
  }
  std::span<const double> low(std::size_t pos) const noexcept {
    return {coords_.data() + pos * 2 * dims_, dims_};
  }
  std::span<const double> high(std::size_t pos) const noexcept {
    return {coords_.data() + (pos * 2 + 1) * dims_, dims_};
  }
  IntervalRef interval(std::size_t pos) const noexcept {
    return IntervalRef{low(pos)[0], high(pos)[0],
                       static_cast<std::uint32_t>(pos), slots_[pos].stream,
                       slots_[pos].expires};
  }
  StoredMbr stored(std::size_t pos) const;

  /// The cell holding (stream, batch_seq), or the empty cell ending its
  /// probe chain. Reads the slab only for cells whose tag matches.
  std::size_t find_cell(StreamId stream, std::uint64_t batch_seq,
                        std::uint64_t hash) const noexcept;
  /// Puts a word into the first empty cell of its chain (no key compare:
  /// callers know the key is absent).
  void place(std::uint64_t word) noexcept;
  /// The slab position of the live entry with this identity.
  std::optional<std::size_t> live_pos(StreamId stream,
                                      std::uint64_t batch_seq) const;
  /// Doubles the dedup index, rehashing from the stored tags alone.
  void grow_index();
  /// Empties the dedup index and re-enters every slab position.
  void rebuild_index();

  /// One subscription's candidate scan (the shared body of the serial and
  /// sharded match paths). Scans the subscription's whole index window on
  /// its first pass and only the `stored_since` entries (the index entries
  /// stored since the previous pass, in index order) afterwards. Appends
  /// fresh matches to `out`, records them in sub.reported and marks `sub`
  /// settled. Reads only the frozen slab/index state; writes only `sub` and
  /// `out`, so concurrent calls on distinct subscriptions are race-free.
  void match_subscription(QueryId id, Subscription& sub,
                          std::span<const IntervalRef> stored_since,
                          sim::SimTime now, std::vector<SimilarityMatch>& out,
                          std::uint64_t& scanned) const;

  /// Folds slab entries added since the last merge into the sorted index.
  void merge_pending();

  /// Physically drops dead slab entries and rebuilds index + heap (pending
  /// entries included); remaps the settled boundary.
  void compact();

  // --- MBR side ---------------------------------------------------------
  std::vector<Slot> slots_;       // slab: live entries + lazy tombstones
  std::vector<double> coords_;    // 2 * dims_ box corners per slot
  std::size_t dims_ = 0;          // box dimensions, fixed by the first add
  std::vector<IntervalRef> sorted_;  // interval index, ascending by low
  std::vector<IntervalRef> scratch_;  // entries being merged, or stored since
  std::size_t indexed_limit_ = 0;    // slab positions >= this are unindexed
  std::size_t settled_limit_ = 0;  // slab positions < this predate last pass
  double max_extent_ = 0.0;  // widest routing interval in the index
  // Min-heap (std::greater) of slot expiries; a pop only counts a lapse.
  std::vector<sim::SimTime> mbr_expiry_;
  // (stream, batch_seq) -> slab position, open-addressed, power-of-two
  // size, load <= 3/4. A cell whose slot is dead (lazy tombstone) counts as
  // absent. Rebuilt by compact().
  std::vector<std::uint64_t> by_key_;
  std::size_t keys_indexed_ = 0;  // occupied cells of by_key_
  std::size_t alive_mbrs_ = 0;
  sim::SimTime horizon_;  // latest time passed to expire()

  // --- Subscription side ------------------------------------------------
  DenseMap<QueryId, Subscription> subscriptions_;
  MinHeap<SubExpiry> sub_expiry_;

  std::uint64_t last_match_work_ = 0;  // scan cost of the latest match()
};

}  // namespace sdsi::core
