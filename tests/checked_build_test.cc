// Checked-build (-DPAFEAT_CHECKED=ON) runtime assertions: arena canaries,
// use-after-Rewind poisoning, Matrix bounds, and GEMM aliasing guards.
// These invariants are exactly the ones the sanitizers cannot express —
// arena slabs are recycled (never freed) so an overrun lands in live
// memory, and a Matrix row overflow stays inside the backing vector.
// In normal builds this file compiles to a single test documenting that
// the checks are disabled.

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "nn/workspace.h"
#include "rl/replay_buffer.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace pafeat {
namespace {

#ifdef PAFEAT_CHECKED

TEST(CheckedBuildTest, RewindPoisonsReleasedScratch) {
  InferenceArena arena;
  const InferenceArena::Mark mark = arena.Snapshot();
  float* scratch = arena.Alloc(16);
  for (int i = 0; i < 16; ++i) scratch[i] = static_cast<float>(i);
  arena.Rewind(mark);
  // The stale pointer still targets owned slab memory (slabs never move),
  // but a use-after-Rewind read now sees NaNs instead of leftover values.
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(std::isnan(scratch[i])) << "element " << i << " not poisoned";
  }
}

TEST(CheckedBuildTest, NestedScopesRewindCleanly) {
  // The positive path: disciplined LIFO usage passes every canary check.
  InferenceArena arena;
  ArenaScope outer(&arena);
  float* a = arena.Alloc(8);
  a[7] = 1.0f;
  {
    ArenaScope inner(&arena);
    float* b = arena.Alloc(32);
    b[31] = 2.0f;
  }
  float* c = arena.Alloc(4);
  c[3] = 3.0f;
  EXPECT_EQ(a[7], 1.0f);  // outer-scope block untouched by inner rewind
}

TEST(CheckedBuildDeathTest, OverrunSmashesCanary) {
  InferenceArena arena;
  const InferenceArena::Mark mark = arena.Snapshot();
  float* scratch = arena.Alloc(8);
  scratch[8] = 0.0f;  // one past the end: lands on the canary words
  EXPECT_DEATH(arena.Rewind(mark), "canary smashed");
}

TEST(CheckedBuildDeathTest, MatrixAtOutOfBounds) {
  const Matrix m(2, 3);
  EXPECT_DEATH((void)m.At(2, 0), "");
  EXPECT_DEATH((void)m.At(0, 3), "");
  EXPECT_DEATH((void)m.At(-1, 0), "");
}

TEST(CheckedBuildDeathTest, MatrixRowOutOfBounds) {
  Matrix m(4, 2);
  EXPECT_DEATH((void)m.Row(4), "");
  EXPECT_DEATH((void)m.Row(-1), "");
}

TEST(CheckedBuildDeathTest, GemmRejectsAliasedOutput) {
  float a[16] = {0};
  float b[16] = {0};
  // C overlapping A: the accumulate-into-C kernels would stream corrupted
  // inputs; the checked build refuses up front.
  EXPECT_DEATH(kernels::GemmNN(4, 4, 4, a, 4, b, 4, /*c=*/a, 4), "aliases");
}

TEST(CheckedBuildDeathTest, GemmRejectsUndersizedStride)
{
  float a[16] = {0};
  float b[16] = {0};
  float c[16] = {0};
  EXPECT_DEATH(kernels::GemmNN(4, 4, 4, a, /*lda=*/3, b, 4, c, 4), "");
}

TEST(CheckedBuildDeathTest, ReplayBufferAddWhileBorrowedAsserts) {
  // SampleTransitions hands out raw pointers into the trajectory deque;
  // AddTrajectory may evict their pointees, so adding inside a registered
  // borrow window is a contract violation the checked build catches.
  ReplayBuffer buffer(ReplayConfig{4});
  Trajectory trajectory;
  Transition transition;
  transition.state.mask = {0, 0};
  transition.next_state.mask = {1, 0};
  transition.done = true;
  trajectory.transitions.push_back(transition);
  buffer.AddTrajectory(trajectory);
  ReplayBuffer::ReadGuard guard(buffer);
  EXPECT_DEATH(buffer.AddTrajectory(trajectory), "readers_");
}

#else  // !PAFEAT_CHECKED

TEST(CheckedBuildTest, AssertionsCompiledOut) {
  // PF_DCHECK is a no-op here; the arena hands back raw scratch with no
  // canaries and Rewind does not poison. This test exists so the suite
  // records which flavor it ran.
  InferenceArena arena;
  const InferenceArena::Mark mark = arena.Snapshot();
  float* scratch = arena.Alloc(4);
  scratch[0] = 42.0f;
  arena.Rewind(mark);
  SUCCEED();
}

#endif  // PAFEAT_CHECKED

}  // namespace
}  // namespace pafeat
