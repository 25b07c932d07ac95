#ifndef PAFEAT_TOOLS_LINT_ANALYZE_RULES_H_
#define PAFEAT_TOOLS_LINT_ANALYZE_RULES_H_

#include <vector>

#include "index.h"
#include "rules.h"

namespace pafeat_lint {

// Runs the five semantic rules over a finalized Program:
//
//   rng-escape              no function reachable from a ParallelFor/Submit
//                           body touches a root-annotated Rng member; only
//                           forked streams may flow into parallel code
//   borrow-across-mutation  no call path from a statement range holding a
//                           ReplayBuffer::ReadGuard to AddTrajectory
//   hot-path-alloc          no allocation reachable from a function
//                           annotated `// analyze: hot-path-root`, outside
//                           the tensor/arena TUs
//   pool-reentrancy         no ParallelFor/Submit call reachable from a
//                           parallel body (nested submission runs inline;
//                           the blessed shard fan-out idiom carries a
//                           justified pragma instead of a code change)
//   test-only-api           every function defined under src/ is named by
//                           code outside tests/ (constructors, destructors,
//                           operators and lambdas aside); a kept reference
//                           oracle or test hook carries a pragma whose reason
//                           starts "oracle for " or "test hook for "
//
// `lint: allow(<rule>): <why>` pragmas recorded in Program::file_pragmas are
// applied with the same same-line / standalone-line-above semantics as the
// token rules. Findings are sorted by (file, line).
std::vector<Finding> RunAnalyzeRules(const Program& program);

}  // namespace pafeat_lint

#endif  // PAFEAT_TOOLS_LINT_ANALYZE_RULES_H_
