#include "dsp/mbr.hpp"

#include <algorithm>
#include <cmath>

namespace sdsi::dsp {

Mbr::Mbr(const FeatureVector& point) : low_(point.as_reals()), high_(low_) {}

Mbr::Mbr(std::vector<double> low, std::vector<double> high)
    : low_(std::move(low)), high_(std::move(high)) {
  SDSI_CHECK(low_.size() == high_.size());
  for (std::size_t i = 0; i < low_.size(); ++i) {
    SDSI_CHECK(low_[i] <= high_[i]);
  }
}

void Mbr::extend(const FeatureVector& point) {
  // Allocation-free except on first use: this runs once per feature vector
  // of every stream (per-sample hot path through the batcher).
  if (empty()) {
    low_ = point.as_reals();
    high_ = low_;
    return;
  }
  SDSI_CHECK(point.size() * 2 == low_.size());
  for (std::size_t i = 0; i < point.size(); ++i) {
    const double coords[2] = {point[i].real(), point[i].imag()};
    for (std::size_t part = 0; part < 2; ++part) {
      const std::size_t d = 2 * i + part;
      low_[d] = std::min(low_[d], coords[part]);
      high_[d] = std::max(high_[d], coords[part]);
    }
  }
}

void Mbr::extend(const Mbr& other) {
  if (other.empty()) {
    return;
  }
  if (empty()) {
    *this = other;
    return;
  }
  SDSI_CHECK(other.low_.size() == low_.size());
  for (std::size_t i = 0; i < low_.size(); ++i) {
    low_[i] = std::min(low_[i], other.low_[i]);
    high_[i] = std::max(high_[i], other.high_[i]);
  }
}

void Mbr::inflate(double margin) {
  SDSI_CHECK(margin >= 0.0);
  for (std::size_t i = 0; i < low_.size(); ++i) {
    low_[i] -= margin;
    high_[i] += margin;
  }
}

bool Mbr::contains(const FeatureVector& point) const noexcept {
  if (point.size() * 2 != low_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < point.size(); ++i) {
    const double re = point[i].real();
    const double im = point[i].imag();
    if (re < low_[2 * i] || re > high_[2 * i] || im < low_[2 * i + 1] ||
        im > high_[2 * i + 1]) {
      return false;
    }
  }
  return true;
}

double min_distance(std::span<const double> low, std::span<const double> high,
                    const FeatureVector& point) noexcept {
  // Allocation-free: this runs once per (subscription, stored MBR) pair on
  // every notification tick of every node.
  SDSI_DCHECK(!low.empty());
  SDSI_DCHECK(point.size() * 2 == low.size() && low.size() == high.size());
  double total = 0.0;
  for (std::size_t i = 0; i < point.size(); ++i) {
    const double coords[2] = {point[i].real(), point[i].imag()};
    for (std::size_t part = 0; part < 2; ++part) {
      const std::size_t d = 2 * i + part;
      // Branch-free: at most one side is positive, and adding the other
      // side's 0.0 leaves it exact.
      const double gap = std::max(0.0, low[d] - coords[part]) +
                         std::max(0.0, coords[part] - high[d]);
      total += gap * gap;
    }
  }
  return std::sqrt(total);
}

double Mbr::min_distance(const FeatureVector& point) const noexcept {
  return dsp::min_distance(low_, high_, point);
}

std::vector<double> Mbr::center() const {
  std::vector<double> mid(low_.size());
  for (std::size_t i = 0; i < low_.size(); ++i) {
    mid[i] = 0.5 * (low_[i] + high_[i]);
  }
  return mid;
}

double Mbr::margin() const noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < low_.size(); ++i) {
    total += high_[i] - low_[i];
  }
  return total;
}

double Mbr::volume() const noexcept {
  double product = empty() ? 0.0 : 1.0;
  for (std::size_t i = 0; i < low_.size(); ++i) {
    product *= high_[i] - low_[i];
  }
  return product;
}

Mbr bounding_box(std::span<const FeatureVector> points) {
  Mbr box;
  for (const FeatureVector& p : points) {
    box.extend(p);
  }
  return box;
}

}  // namespace sdsi::dsp
