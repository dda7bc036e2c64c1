#include "dsp/dft.hpp"

#include <bit>
#include <cmath>
#include <numbers>

#include "common/check.hpp"

namespace sdsi::dsp {

namespace {

constexpr double kTau = 2.0 * std::numbers::pi;

}  // namespace

Complex dft_bin(std::span<const Sample> signal, std::size_t f) {
  const std::size_t n = signal.size();
  SDSI_CHECK(n > 0);
  Complex acc{0.0, 0.0};
  for (std::size_t j = 0; j < n; ++j) {
    const double angle = -kTau * static_cast<double>(f) *
                         static_cast<double>(j) / static_cast<double>(n);
    acc += signal[j] * Complex(std::cos(angle), std::sin(angle));
  }
  return acc * (1.0 / std::sqrt(static_cast<double>(n)));
}

std::vector<Complex> naive_dft(std::span<const Sample> signal) {
  SDSI_CHECK(!signal.empty());
  std::vector<Complex> spectrum(signal.size());
  for (std::size_t f = 0; f < spectrum.size(); ++f) {
    spectrum[f] = dft_bin(signal, f);
  }
  return spectrum;
}

std::vector<Complex> naive_inverse_dft(std::span<const Complex> spectrum) {
  const std::size_t n = spectrum.size();
  SDSI_CHECK(n > 0);
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  std::vector<Complex> signal(n);
  for (std::size_t j = 0; j < n; ++j) {
    Complex acc{0.0, 0.0};
    for (std::size_t f = 0; f < n; ++f) {
      const double angle = kTau * static_cast<double>(f) *
                           static_cast<double>(j) / static_cast<double>(n);
      acc += spectrum[f] * Complex(std::cos(angle), std::sin(angle));
    }
    signal[j] = acc * scale;
  }
  return signal;
}

void fft_in_place(std::vector<Complex>& data, bool invert) {
  const std::size_t n = data.size();
  SDSI_CHECK(n > 0 && std::has_single_bit(n));

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (invert ? kTau : -kTau) / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w{1.0, 0.0};
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex u = data[i + j];
        const Complex v = data[i + j + len / 2] * w;
        data[i + j] = u + v;
        data[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<Complex> fft(std::span<const Sample> signal) {
  std::vector<Complex> data(signal.begin(), signal.end());
  fft_in_place(data, /*invert=*/false);
  const double scale = 1.0 / std::sqrt(static_cast<double>(signal.size()));
  for (Complex& c : data) {
    c *= scale;
  }
  return data;
}

std::vector<Complex> inverse_fft(std::span<const Complex> spectrum) {
  std::vector<Complex> data(spectrum.begin(), spectrum.end());
  fft_in_place(data, /*invert=*/true);
  const double scale = 1.0 / std::sqrt(static_cast<double>(spectrum.size()));
  for (Complex& c : data) {
    c *= scale;
  }
  return data;
}

double energy(std::span<const Sample> signal) noexcept {
  double total = 0.0;
  for (const Sample x : signal) {
    total += x * x;
  }
  return total;
}

double energy(std::span<const Complex> spectrum) noexcept {
  double total = 0.0;
  for (const Complex& c : spectrum) {
    total += std::norm(c);
  }
  return total;
}

}  // namespace sdsi::dsp
