// gen.hpp — seeded input generation for chantbench.
//
// Every input the workloads feed the runtime (message sizes, op kinds,
// payload bytes) comes from here, derived only from the workload seed
// and a stream key, so a seed fixes the inputs and the receiver of a
// message can regenerate what its sender was going to send.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cb {

/// splitmix64: small, fast, and good enough to drive input choices.
class Rng {
 public:
  /// One independent stream per (seed, a, b): a and b name the sender
  /// (pe, thread, ...) so twin threads can mirror each other's stream.
  Rng(std::uint64_t seed, std::uint64_t a = 0, std::uint64_t b = 0)
      : s_(seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full)) {
    next();
  }
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Log-uniform integer in [lo, hi]: every size octave is equally likely.
  std::size_t log_uniform(std::size_t lo, std::size_t hi) noexcept {
    const double l = std::log(static_cast<double>(lo));
    const double h = std::log(static_cast<double>(hi) + 1.0);
    const auto v = static_cast<std::size_t>(std::exp(l + unit() * (h - l)));
    return v < lo ? lo : (v > hi ? hi : v);
  }

 private:
  std::uint64_t s_;
};

/// Reference bytes every payload is cut from. A message carries the
/// slice [off, off + len); the receiver compares what landed with the
/// same slice, so any corrupted, truncated or misrouted byte is caught.
class RefBlock {
 public:
  static constexpr std::size_t kBytes = 1 << 19;  // > 2 x largest payload

  explicit RefBlock(std::uint64_t seed) : bytes_(kBytes) {
    Rng r(seed, 0xB10C);
    for (std::size_t i = 0; i < kBytes; i += 8) {
      const std::uint64_t v = r.next();
      for (std::size_t k = 0; k < 8; ++k) {
        bytes_[i + k] = static_cast<std::uint8_t>(v >> (8 * k));
      }
    }
  }
  const std::uint8_t* data() const noexcept { return bytes_.data(); }
  /// A seeded offset at which a slice of `len` bytes fits.
  static std::size_t offset(Rng& r, std::size_t len) noexcept {
    return static_cast<std::size_t>(r.below(kBytes - len + 1));
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// FNV-1a over 64-bit values: a fingerprint of a generated sequence.
struct Digest {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void add(std::uint64_t v) noexcept { h = (h ^ v) * 0x100000001B3ull; }
};

}  // namespace cb
