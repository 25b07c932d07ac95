#include "memory/budget.h"

#include <cstdlib>

namespace pafeat {
namespace {

std::size_t EnvCacheBudgetBytes() {
  const char* env = std::getenv("PAFEAT_CACHE_BUDGET");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long long bytes = std::strtoll(env, &end, 10);
  if (end == env || bytes <= 0) return 0;
  return static_cast<std::size_t>(bytes);
}

std::size_t Resolve(long long configured, std::size_t env_bytes) {
  if (configured > 0) return static_cast<std::size_t>(configured);
  if (configured == kMemoryBudgetUnlimited) return 0;
  return env_bytes;
}

}  // namespace

std::size_t ResolveCacheBudgetBytes(long long configured) {
  return Resolve(configured, EnvCacheBudgetBytes());
}

std::size_t ResolveReplayBudgetBytes(long long configured) {
  return Resolve(configured, 0);
}

}  // namespace pafeat
