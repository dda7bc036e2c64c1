// Allocation budget of the store write path. This binary replaces the
// global operator new with a counting one, so it must stay a test binary of
// its own: the count covers every allocation the process makes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/index_store.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sdsi::core {
namespace {

sim::SimTime at_ms(std::int64_t ms) {
  return sim::SimTime::zero() + sim::Duration::millis(ms);
}

/// Adds `count` fresh 4-dimensional MBRs, one per millisecond from `*clock`,
/// each living `lifespan_ms`; expires every 10 adds, which drops lapsed
/// entries and compacts the slab once tombstones dominate it.
void ingest(IndexStore& store, const std::vector<dsp::Mbr>& boxes,
            std::int64_t& clock, std::size_t count, std::int64_t lifespan_ms) {
  for (std::size_t i = 0; i < count; ++i, ++clock) {
    if (clock % 10 == 0) {
      store.expire(at_ms(clock));
    }
    const auto seq = static_cast<std::uint64_t>(clock);
    ASSERT_TRUE(store.add_mbr(seq % 31, /*source=*/1, boxes[i % boxes.size()],
                              seq, at_ms(clock), at_ms(clock + lifespan_ms)));
  }
}

TEST(IndexStoreAlloc, StoringRangeCopiesAllocatesOnlyToGrowBuffers) {
  std::vector<dsp::Mbr> boxes;
  for (int i = 0; i < 64; ++i) {
    const double lo = -1.0 + 0.03 * i;
    boxes.emplace_back(std::vector<double>{lo, -lo, lo / 2, 0.1},
                       std::vector<double>{lo + 0.02, -lo + 0.01, lo / 2 + 0.05,
                                           0.2});
  }
  IndexStore store;
  std::int64_t clock = 0;
  constexpr std::int64_t kLifespanMs = 500;
  ingest(store, boxes, clock, 10'000, kLifespanMs);  // warm-up

  const std::size_t before = g_allocations.load();
  ingest(store, boxes, clock, 10'000, kLifespanMs);
  const std::size_t allocations = g_allocations.load() - before;

  // ~20 compactions ran (the slab holds at most ~2 lifespans of entries);
  // only buffer growth may allocate, O(log n) times.
  EXPECT_LE(allocations, 64u);
  // Expiry kept up: one lifespan of entries plus one sweep interval.
  EXPECT_LE(store.mbr_count(), static_cast<std::size_t>(kLifespanMs + 10));
  EXPECT_GT(store.mbr_count(), 0u);
}

}  // namespace
}  // namespace sdsi::core
