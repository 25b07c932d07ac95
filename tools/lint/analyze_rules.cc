#include "analyze_rules.h"

#include <algorithm>
#include <deque>
#include <set>
#include <string>

namespace pafeat_lint {
namespace {

constexpr char kRngEscape[] = "rng-escape";
constexpr char kBorrow[] = "borrow-across-mutation";
constexpr char kHotPathAlloc[] = "hot-path-alloc";
constexpr char kPoolReentrancy[] = "pool-reentrancy";
constexpr char kTestOnlyApi[] = "test-only-api";

constexpr char kHotPathRootAnnotation[] = "hot-path-root";

bool Contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

// TUs allowed to allocate on the hot path: the tensor layer owns Matrix
// storage and the arena TU owns the slab it hands out.
bool AllocExemptFile(const std::string& file) {
  return Contains(file, "src/tensor/") || Contains(file, "src/nn/workspace.");
}

// The pool implementation itself dispatches work however it likes.
bool PoolExemptFile(const std::string& file) {
  return Contains(file, "src/common/thread_pool");
}

// Call edges materialized once: def -> outgoing call indices, and call ->
// resolved target defs.
struct Graph {
  std::vector<std::vector<std::size_t>> calls_from;
  std::vector<std::vector<int>> targets;
};

Graph BuildGraph(const Program& p) {
  Graph g;
  g.calls_from.resize(p.defs.size());
  g.targets.resize(p.calls.size());
  for (std::size_t c = 0; c < p.calls.size(); ++c) {
    g.calls_from[p.calls[c].caller].push_back(c);
    g.targets[c] = p.Resolve(p.calls[c]);
  }
  return g;
}

// Forward reachability with parent pointers, so findings can print the call
// chain that makes them reachable.
struct Reach {
  std::vector<char> visited;
  std::vector<int> parent_def;  // -1 for roots
  std::vector<int> root_of;     // the root each def was first reached from
};

Reach Bfs(const Program& p, const Graph& g, const std::vector<int>& roots) {
  Reach r;
  r.visited.assign(p.defs.size(), 0);
  r.parent_def.assign(p.defs.size(), -1);
  r.root_of.assign(p.defs.size(), -1);
  std::deque<int> queue;
  for (int root : roots) {
    if (r.visited[root]) continue;
    r.visited[root] = 1;
    r.root_of[root] = root;
    queue.push_back(root);
  }
  while (!queue.empty()) {
    const int def = queue.front();
    queue.pop_front();
    for (std::size_t c : g.calls_from[def]) {
      for (int target : g.targets[c]) {
        if (r.visited[target]) continue;
        r.visited[target] = 1;
        r.parent_def[target] = def;
        r.root_of[target] = r.root_of[def];
        queue.push_back(target);
      }
    }
  }
  return r;
}

// "Root::A -> B::C -> D" (middle elided past 5 hops).
std::string PathTo(const Program& p, const Reach& r, int def) {
  std::vector<int> chain;
  for (int d = def; d != -1; d = r.parent_def[d]) chain.push_back(d);
  std::reverse(chain.begin(), chain.end());
  std::string out;
  const std::size_t n = chain.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (n > 6 && i == 3) {
      out += "... -> ";
      i = n - 3;
    }
    out += p.defs[chain[i]].display;
    if (i + 1 < n) out += " -> ";
  }
  return out;
}

void Report(const Program& p, std::vector<Finding>* findings,
            const std::string& file, int line, const char* rule,
            std::string message, std::string hint) {
  (void)p;
  findings->push_back(
      Finding{file, line, rule, std::move(message), std::move(hint)});
}

// --- rng-escape ------------------------------------------------------------

void CheckRngEscape(const Program& p, const Graph& g,
                    std::vector<Finding>* findings) {
  std::vector<int> roots;
  for (std::size_t i = 0; i < p.defs.size(); ++i) {
    if (p.defs[i].parallel_body) roots.push_back(static_cast<int>(i));
  }
  const Reach r = Bfs(p, g, roots);
  for (std::size_t i = 0; i < p.defs.size(); ++i) {
    if (!r.visited[i]) continue;
    const FunctionDef& def = p.defs[i];
    for (const RngTouch& touch : def.rng_touches) {
      Report(p, findings, def.file, touch.line, kRngEscape,
             "root Rng member '" + touch.member + "' of " + def.class_name +
                 " is touched in code reachable from a parallel body (" +
                 PathTo(p, r, static_cast<int>(i)) + ")",
             "the shared root stream is not safe to advance concurrently and "
             "breaks bit-identical replay at other thread counts; Fork() a "
             "per-task stream before the ParallelFor/Submit and pass it in "
             "by value");
    }
  }
}

// --- borrow-across-mutation ------------------------------------------------

// Replay mutation entry points: calls that may compact, evict or retire
// stored trajectories and therefore invalidate spans borrowed through a
// ReadGuard. AddTrajectory has been one since the buffer existed; the budget
// refactor added EvictToBudget (DESIGN.md "Bounded memory plane"), which
// removes trajectories outside any insertion.
bool IsReplayMutation(const std::string& callee) {
  return callee == "AddTrajectory" || callee == "EvictToBudget";
}

void CheckBorrowAcrossMutation(const Program& p, const Graph& g,
                               std::vector<Finding>* findings) {
  // R = defs whose body reaches a replay mutation call. Reverse fixpoint
  // with a witness call per def so the finding can spell out the path.
  const std::size_t n = p.defs.size();
  std::vector<char> reaches(n, 0);
  std::vector<std::size_t> witness(n, 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t c = 0; c < p.calls.size(); ++c) {
      const CallSite& call = p.calls[c];
      if (reaches[call.caller]) continue;
      bool hit = IsReplayMutation(call.callee);
      if (!hit) {
        for (int target : g.targets[c]) {
          if (reaches[target]) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        reaches[call.caller] = 1;
        witness[call.caller] = c;
        changed = true;
      }
    }
  }

  for (std::size_t c = 0; c < p.calls.size(); ++c) {
    const CallSite& call = p.calls[c];
    if (!call.in_guard_region) continue;
    bool hit = IsReplayMutation(call.callee);
    if (!hit) {
      for (int target : g.targets[c]) {
        if (reaches[target]) {
          hit = true;
          break;
        }
      }
    }
    if (!hit) continue;
    // Witness chain from this call toward the mutation entry point.
    std::string path = p.defs[call.caller].display + " -> " + call.callee;
    std::size_t w = c;
    int hops = 0;
    while (!IsReplayMutation(p.calls[w].callee) && hops++ < 6) {
      int next = -1;
      for (int target : g.targets[w]) {
        if (reaches[target]) {
          next = target;
          break;
        }
      }
      if (next == -1) break;
      w = witness[next];
      path += " -> " + p.calls[w].callee;
    }
    Report(p, findings, p.defs[call.caller].file, call.line, kBorrow,
           "call inside a ReplayBuffer::ReadGuard borrow window reaches a "
           "replay mutation (" + path + ")",
           "AddTrajectory/EvictToBudget may compact, evict or retire "
           "trajectories and invalidate borrowed spans; end the borrow "
           "(guard scope exit or .clear()) before mutating the buffer — "
           "this is the static form of the PF_DCHECK in those entry points");
  }
}

// --- hot-path-alloc --------------------------------------------------------

void CheckHotPathAlloc(const Program& p, const Graph& g,
                       std::vector<Finding>* findings) {
  std::vector<int> roots;
  for (std::size_t i = 0; i < p.defs.size(); ++i) {
    for (const std::string& ann : p.defs[i].annotations) {
      if (ann == kHotPathRootAnnotation) roots.push_back(static_cast<int>(i));
    }
  }
  const Reach r = Bfs(p, g, roots);
  for (std::size_t i = 0; i < p.defs.size(); ++i) {
    if (!r.visited[i]) continue;
    const FunctionDef& def = p.defs[i];
    if (AllocExemptFile(def.file)) continue;
    for (const AllocSite& alloc : def.allocs) {
      Report(p, findings, def.file, alloc.line, kHotPathAlloc,
             "allocation (" + alloc.what + ") reachable from steady-state "
             "root " + p.defs[r.root_of[i]].display + " (" +
                 PathTo(p, r, static_cast<int>(i)) + ")",
             "steady-state stepping/serving must stay heap-quiet: write into "
             "caller-provided spans or InferenceArena scratch "
             "(src/nn/workspace.h); one-time setup belongs before the "
             "annotated root, or carries "
             "// lint: allow(hot-path-alloc): <why>");
    }
  }
}

// --- pool-reentrancy -------------------------------------------------------

void CheckPoolReentrancy(const Program& p, const Graph& g,
                         std::vector<Finding>* findings) {
  std::vector<int> roots;
  for (std::size_t i = 0; i < p.defs.size(); ++i) {
    if (p.defs[i].parallel_body) roots.push_back(static_cast<int>(i));
  }
  const Reach r = Bfs(p, g, roots);
  for (std::size_t i = 0; i < p.defs.size(); ++i) {
    if (!r.visited[i]) continue;
    const FunctionDef& def = p.defs[i];
    if (PoolExemptFile(def.file)) continue;
    for (std::size_t c : g.calls_from[i]) {
      const CallSite& call = p.calls[c];
      if (call.callee != "ParallelFor" && call.callee != "Submit") continue;
      Report(p, findings, def.file, call.line, kPoolReentrancy,
             "nested pool submission: " + call.callee + " is called from "
             "code reachable from a parallel body (" +
                 PathTo(p, r, static_cast<int>(i)) + ")",
             "nested ParallelFor/Submit runs inline on the submitting worker "
             "(see ThreadPool), so this silently serializes; hoist the inner "
             "fan-out, or bless a deliberate inline degradation (the shard "
             "fan-out idiom) with // lint: allow(pool-reentrancy): <why>");
    }
  }
}

// --- test-only-api ---------------------------------------------------------

// The two reasons a src/ function may stay without a production use: it is
// the reference a named test compares a fast path against, or a hook a
// named test drives.
bool AllowedTestOnlyReason(const std::string& justification) {
  return justification.rfind("oracle for ", 0) == 0 ||
         justification.rfind("test hook for ", 0) == 0;
}

void CheckTestOnlyApi(const Program& p, std::vector<Finding>* findings) {
  const std::size_t n = p.defs.size();
  std::vector<char> used(n, 0), test_used(n, 0);
  for (const NameRef& ref : p.refs) {
    std::vector<char>& mark = ref.role == FileRole::kTest ? test_used : used;
    for (int def : p.ResolveRef(ref)) {
      if (def != ref.from_def) mark[def] = 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& def = p.defs[i];
    // Constructors and destructors are used wherever their type is named,
    // and operators are used without their name.
    if (used[i] || def.is_lambda || def.name == "operator" ||
        def.name == def.class_name || p.class_names.count(def.name) > 0) {
      continue;
    }
    Report(p, findings, def.file, def.line, kTestOnlyApi,
           def.display + (test_used[i] ? " is used only from tests/"
                                       : " has no caller"),
           "no code in src/, tools/, examples/, bench/ or bench_e2e/ names "
           "it; delete it, or keep a reference oracle or test hook with "
           "// lint: allow(test-only-api): oracle for <Suite.Test> | "
           "test hook for <Suite.Test>");
  }
}

// --- pragma application ----------------------------------------------------

const Pragma* MatchingPragma(const Program& p, const Finding& f) {
  auto it = p.file_pragmas.find(f.file);
  if (it == p.file_pragmas.end()) return nullptr;
  for (const Pragma& pragma : it->second.pragmas) {
    if (pragma.rule != f.rule) continue;
    if (pragma.line == f.line ||
        (pragma.standalone && pragma.line + 1 == f.line)) {
      return &pragma;
    }
  }
  return nullptr;
}

}  // namespace

std::vector<Finding> RunAnalyzeRules(const Program& program) {
  const Graph g = BuildGraph(program);
  std::vector<Finding> findings;
  CheckRngEscape(program, g, &findings);
  CheckBorrowAcrossMutation(program, g, &findings);
  CheckHotPathAlloc(program, g, &findings);
  CheckPoolReentrancy(program, g, &findings);
  CheckTestOnlyApi(program, &findings);

  // One finding per (file, line, rule): a site reachable from several roots
  // is still one thing to fix.
  std::set<std::string> seen;
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    const std::string key = f.file + ":" + std::to_string(f.line) + ":" +
                            f.rule;
    if (!seen.insert(key).second) continue;
    if (const Pragma* pragma = MatchingPragma(program, f)) {
      if (f.rule != kTestOnlyApi ||
          AllowedTestOnlyReason(pragma->justification)) {
        continue;
      }
      f.message = "test-only-api pragma gives neither allowed reason: " +
                  f.message;
    }
    kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    return a.line < b.line;
  });
  return kept;
}

}  // namespace pafeat_lint
