// Modular arithmetic on the Chord identifier circle.
//
// The paper orders m-bit identifiers "on an identifier circle modulo 2^m"
// (the Chord ring). All interval logic that Chord and the range multicast
// need lives here, in one well-tested place: half-open/closed membership
// tests that wrap correctly, clockwise distances, and finger offsets.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "common/types.hpp"

namespace sdsi::common {

/// An m-bit identifier space (1 <= m <= 64).
class IdSpace {
 public:
  explicit constexpr IdSpace(unsigned bits) noexcept : bits_(bits) {
    SDSI_DCHECK(bits >= 1 && bits <= 64);
  }

  constexpr unsigned bits() const noexcept { return bits_; }

  /// 2^m as a count; for m == 64 the modulus does not fit and size() must not
  /// be used (mask() still works).
  constexpr std::uint64_t size() const noexcept {
    SDSI_DCHECK(bits_ < 64);
    return 1ull << bits_;
  }

  constexpr Key mask() const noexcept {
    return bits_ == 64 ? ~0ull : ((1ull << bits_) - 1);
  }

  constexpr Key wrap(std::uint64_t value) const noexcept {
    return value & mask();
  }

  /// Clockwise (increasing-id) distance from `from` to `to` on the ring.
  constexpr Key distance(Key from, Key to) const noexcept {
    return wrap(to - from);
  }

  /// `from + 2^(i)` modulo 2^m — the i-th finger offset (i in [0, m)).
  constexpr Key finger_start(Key from, unsigned i) const noexcept {
    SDSI_DCHECK(i < bits_);
    return wrap(from + (1ull << i));
  }

  /// key ∈ (a, b) on the circle. Empty when a == b.
  constexpr bool in_open(Key key, Key a, Key b) const noexcept {
    return distance(a, key) > 0 && distance(a, key) < distance(a, b) &&
           distance(a, b) != 0;
  }

  /// key ∈ (a, b] on the circle. When a == b the interval is the full circle
  /// (this is the Chord convention: a lone node succeeds every key).
  constexpr bool in_half_open(Key key, Key a, Key b) const noexcept {
    if (a == b) {
      return true;
    }
    const Key d_key = distance(a, key);
    return d_key > 0 && d_key <= distance(a, b);
  }

  /// key ∈ [a, b] on the circle (inclusive range used by range multicast).
  /// When a == b the range is the single point a.
  constexpr bool in_closed(Key key, Key a, Key b) const noexcept {
    return distance(a, key) <= distance(a, b);
  }

  /// Whether the closed clockwise range [lo, hi] meets the half-open arc
  /// (a, b]: the range starts inside the arc, ends inside it, or swallows
  /// it whole (then it contains b). Used to pick the store entries a ring
  /// arc is responsible for (handoff, mirroring, anti-entropy).
  constexpr bool range_intersects_arc(Key lo, Key hi, Key a,
                                      Key b) const noexcept {
    return in_half_open(lo, a, b) || in_half_open(hi, a, b) ||
           in_closed(b, lo, hi);
  }

  /// Midpoint of the clockwise range [a, b] (used by the bidirectional range
  /// multicast of Sec VI-B: send to the middle, fan out both ways).
  constexpr Key midpoint(Key a, Key b) const noexcept {
    return wrap(a + distance(a, b) / 2);
  }

 private:
  unsigned bits_;
};

}  // namespace sdsi::common
