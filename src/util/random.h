// Deterministic random-number generation for simulations. Every scenario
// owns one Rng seeded explicitly; all stochastic models (loss, jitter,
// workload interarrivals) draw from streams forked off it, so runs are
// exactly reproducible.
//
// The generator is SplitMix64: an 8-byte counter advanced by the
// golden-ratio increment γ and passed through a 64-bit finalizer, so the
// n-th output is mix(seed + n·γ) — a counter-based generator in the sense
// of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
// (SC'11). The mappings from 64-bit outputs to ranges and reals are the
// library's own, not the standard library's distributions, so a seed
// names the same draws under every toolchain.
#pragma once

#include <cmath>
#include <cstdint>

namespace catenet::util {

class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    /// The next 64-bit output.
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /// Uniform integer in [lo, hi] inclusive: lo + next() % span, whose
    /// bias is below span / 2^64. The full 64-bit range, whose span wraps
    /// to 0, is next() itself.
    std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
        const std::uint64_t span = hi - lo + 1;
        return span == 0 ? next() : lo + next() % span;
    }

    /// Uniform real in [0, 1): the top 53 bits of one output.
    double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /// Bernoulli trial with probability p of returning true. p <= 0 and
    /// p >= 1 decide without drawing, so a lossless link never advances
    /// its stream.
    bool chance(double p) {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return uniform01() < p;
    }

    /// Exponentially distributed value with the given mean, by inversion.
    double exponential(double mean) { return -mean * std::log1p(-uniform01()); }

    /// Derives an independent child generator (e.g. one per traffic source
    /// or link direction) seeded with this one's next output, so adding a
    /// source does not perturb another source's draws.
    Rng fork() { return Rng(next()); }

private:
    std::uint64_t state_;
};

}  // namespace catenet::util
