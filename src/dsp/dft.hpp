// Discrete Fourier Transform kernels (paper Sec III-C, Eqs. 3-4).
//
// We use the unitary convention the paper states: both directions carry a
// 1/sqrt(N) factor, so the transform preserves signal energy (Parseval) and
// Euclidean distances — the property the whole indexing scheme rests on.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace sdsi::dsp {

using Complex = std::complex<double>;

/// Naive O(N^2) unitary DFT (Eq. 3). Works for any N; reference
/// implementation the FFT is tested against.
std::vector<Complex> naive_dft(std::span<const Sample> signal);

/// Bin `f` of naive_dft, in O(N): naive_dft evaluates exactly this for
/// every bin, so a caller that keeps only a few bins gets bit-identical
/// values for the cost of those bins alone.
Complex dft_bin(std::span<const Sample> signal, std::size_t f);

/// Naive O(N^2) unitary inverse DFT (Eq. 4) returning a complex signal.
std::vector<Complex> naive_inverse_dft(std::span<const Complex> spectrum);

/// Iterative radix-2 Cooley-Tukey FFT, unitary scaling. N must be a power of
/// two. O(N log N).
std::vector<Complex> fft(std::span<const Sample> signal);

/// Inverse FFT (unitary). N must be a power of two.
std::vector<Complex> inverse_fft(std::span<const Complex> spectrum);

/// In-place complex radix-2 FFT core without normalization; `invert` flips
/// the exponent sign. Exposed for reuse and direct testing.
void fft_in_place(std::vector<Complex>& data, bool invert);

/// Signal energy sum(x_i^2) — with the unitary DFT this equals
/// sum(|X_F|^2) (Parseval), which tests assert.
double energy(std::span<const Sample> signal) noexcept;

/// Spectrum energy sum(|X_F|^2).
double energy(std::span<const Complex> spectrum) noexcept;

}  // namespace sdsi::dsp
