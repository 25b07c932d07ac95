#include "nn/workspace.h"

#include <cstdint>
#include <cstring>

#include "common/logging.h"

namespace pafeat {
namespace {

#ifdef PAFEAT_CHECKED
// Canary floats appended to every checked-build allocation. The bit pattern
// is an unlikely-by-construction NaN; compared bitwise, never numerically.
constexpr std::size_t kCanaryFloats = 2;
constexpr uint32_t kCanaryBits = 0x7fc0fea7u;
// Rewound scratch is filled with this NaN so any computation that reads a
// stale arena pointer after Rewind turns into NaNs instead of silently
// reusing whatever the next caller wrote there.
constexpr uint32_t kPoisonBits = 0x7fc0deadu;

float BitsToFloat(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

void FillBits(float* p, std::size_t count, uint32_t bits) {
  const float v = BitsToFloat(bits);
  for (std::size_t i = 0; i < count; ++i) p[i] = v;
}

bool HasBits(const float* p, std::size_t count, uint32_t bits) {
  for (std::size_t i = 0; i < count; ++i) {
    uint32_t got;
    std::memcpy(&got, p + i, sizeof(got));
    if (got != bits) return false;
  }
  return true;
}
#endif  // PAFEAT_CHECKED

}  // namespace

float* InferenceArena::Alloc(std::size_t count) {
  std::size_t need = count;
#ifdef PAFEAT_CHECKED
  need += kCanaryFloats;
#endif
  // Advance through existing slabs first: after a Rewind the later slabs are
  // still owned and get reused, so a repeated call pattern settles into a
  // fixed slab walk with no allocations.
  while (slab_ < slabs_.size() && used_ + need > slabs_[slab_].size) {
    ++slab_;
    used_ = 0;
  }
  if (slab_ == slabs_.size()) {
    const std::size_t size = need > kMinSlabFloats ? need : kMinSlabFloats;
    slabs_.push_back(Slab{std::make_unique<float[]>(size), size});
    ++slab_allocations_;
    used_ = 0;
  }
  float* out = slabs_[slab_].data.get() + used_;
#ifdef PAFEAT_CHECKED
  FillBits(out + count, kCanaryFloats, kCanaryBits);
  live_allocs_.push_back(AllocRecord{slab_, used_, count});
#endif
  used_ += need;
  return out;
}

void InferenceArena::Rewind(const Mark& mark) {
  PF_CHECK(mark.slab < slabs_.size() ||
           (mark.slab == slabs_.size() && mark.used == 0));
#ifdef PAFEAT_CHECKED
  // Verify the canary of every block the rewind releases (LIFO suffix).
  while (!live_allocs_.empty()) {
    const AllocRecord& rec = live_allocs_.back();
    const bool released =
        rec.slab > mark.slab ||
        (rec.slab == mark.slab && rec.offset >= mark.used);
    if (!released) break;
    PF_CHECK(HasBits(slabs_[rec.slab].data.get() + rec.offset + rec.count,
                     kCanaryFloats, kCanaryBits))
        << "InferenceArena canary smashed: " << rec.count
        << "-float block at slab " << rec.slab << " offset " << rec.offset
        << " was overrun";
    live_allocs_.pop_back();
  }
  // Poison everything the rewind releases so stale pointers read NaNs.
  for (std::size_t s = mark.slab; s < slabs_.size() && s <= slab_; ++s) {
    const std::size_t begin = s == mark.slab ? mark.used : 0;
    const std::size_t end = s == slab_ ? used_ : slabs_[s].size;
    if (end > begin) FillBits(slabs_[s].data.get() + begin, end - begin,
                              kPoisonBits);
  }
#endif
  slab_ = mark.slab;
  used_ = mark.used;
}

InferenceArena* InferenceArena::ThreadLocal() {
  static thread_local InferenceArena arena;
  return &arena;
}

// lint: allow(test-only-api): test hook for MaskedInferenceTest.ArenaStopsAllocatingOnceWarm
std::size_t InferenceArena::capacity_floats() const {
  std::size_t total = 0;
  for (const Slab& slab : slabs_) total += slab.size;
  return total;
}

}  // namespace pafeat
