#include "common/rng.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace pafeat {
namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(&s);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int Rng::UniformInt(int n) {
  PF_CHECK_GT(n, 0);
  return static_cast<int>(Next() % static_cast<uint64_t>(n));
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  PF_CHECK_GE(n, k);
  std::vector<int> pool(n);
  for (int i = 0; i < n; ++i) pool[i] = i;
  // Partial Fisher-Yates: only the first k slots need to be randomized.
  for (int i = 0; i < k; ++i) {
    int j = i + UniformInt(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

int Rng::SampleDiscrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    PF_CHECK_GE(w, 0.0);
    total += w;
  }
  PF_CHECK_GT(total, 0.0);
  double r = Uniform() * total;
  for (int i = 0; i < static_cast<int>(weights.size()); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return static_cast<int>(weights.size()) - 1;
}

Rng Rng::Fork(uint64_t stream_id) {
  return Rng(Next() ^ (stream_id * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL));
}

std::array<uint64_t, 6> Rng::SaveState() const {
  std::array<uint64_t, 6> state;
  for (int i = 0; i < 4; ++i) state[i] = state_[i];
  state[4] = has_cached_normal_ ? 1 : 0;
  uint64_t cached_bits = 0;
  std::memcpy(&cached_bits, &cached_normal_, sizeof(cached_bits));
  state[5] = cached_bits;
  return state;
}

void Rng::LoadState(const std::array<uint64_t, 6>& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state[i];
  has_cached_normal_ = state[4] != 0;
  std::memcpy(&cached_normal_, &state[5], sizeof(cached_normal_));
}

}  // namespace pafeat
