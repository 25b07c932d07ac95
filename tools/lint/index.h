#ifndef PAFEAT_TOOLS_LINT_INDEX_H_
#define PAFEAT_TOOLS_LINT_INDEX_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace pafeat_lint {

// Cross-TU declaration/definition index and call graph for pafeat-analyze.
//
// This is not a C++ parser. It is a scope-tracking pass over the shared
// lexer's token stream that recovers exactly the structure the semantic
// rules need: which functions/methods are defined where, what each body
// calls, which lambdas are handed to `ParallelFor`/`Submit` (parallel
// roots), where root-`Rng` members are touched, where allocations happen,
// and which statement ranges hold a `ReplayBuffer::ReadGuard`. Calls are
// linked by name (qualified when the source spells a qualifier), which
// over-approximates edges — the right direction for reachability rules:
// an extra edge can cost a justified pragma, a missing one would silence
// a real escape. Known approximations are documented in DESIGN.md
// "Semantic analysis pass".
//
// Only src/ files contribute definitions and call edges. The caller trees
// (tools/, examples/, bench/, bench_e2e/, tests/) are indexed for their name
// references alone, so the reachability rules see the src/ call graph
// whatever else is indexed: a test helper that shares a name with a src/
// function adds no edge to a hot path.

// The part a file plays in the index, decided by its path below the root.
enum class FileRole {
  kSource,  // src/: definitions, call edges and name references
  kCaller,  // any other tree: name references only
  kTest,    // tests/: name references that do not count as production uses
};

// Role of a path relative to the analysis root ("src/core/feat.cc").
FileRole RoleOfPath(const std::string& relative_path);

// A memory-allocating construct inside a function body.
struct AllocSite {
  int line = 0;
  std::string what;  // "new[]", "malloc()", ".push_back()", ...
};

// A use of a root-annotated `Rng` member (`rng_` of a class whose member
// declaration carries `// analyze: root-rng`).
struct RngTouch {
  int line = 0;
  std::string member;  // the member name, e.g. "rng_"
};

// One function/method/lambda definition. Lambdas defined inside a body are
// separate defs linked from their enclosing function (a conservative
// "defined implies may run" edge); lambdas that appear syntactically inside
// a `ParallelFor(...)` / `Submit(...)` argument list are additionally
// marked as parallel-execution roots.
struct FunctionDef {
  std::string name;        // last path component ("ActBatch", "lambda")
  std::string class_name;  // enclosing class or explicit qualifier, "" free
  std::string display;     // "DqnAgent::ActBatch" / "Feat::RunIteration
                           // lambda" — for messages
  std::string file;        // display path of the defining TU
  int line = 0;            // line of the name (lambdas: the '[')
  bool is_lambda = false;
  bool parallel_body = false;  // lambda captured into ParallelFor/Submit
  std::vector<std::string> annotations;  // attached `// analyze:` texts
  std::vector<AllocSite> allocs;
  std::vector<RngTouch> rng_touches;
};

// One call site: `callee(...)` inside the body of `caller`.
struct CallSite {
  int caller = -1;        // index into Program::defs
  std::string callee;     // last name component
  std::string qualifier;  // explicit "A::callee" qualifier, else ""
  bool member = false;    // obj.callee(...) / obj->callee(...)
  int line = 0;
  bool in_guard_region = false;  // statically inside a ReadGuard window
};

// A reference to a function name from code: a call (`f(`, `f<T>(`), a
// qualified name (`A::f`, as in a dispatch table), or an address-of (`&f`).
// Bare names that are neither are not recorded, so a local variable that
// shares an accessor's name does not count as a use of the accessor.
struct NameRef {
  std::string name;
  std::string qualifier;     // explicit "A::name" qualifier, else ""
  bool member = false;       // obj.name / obj->name
  bool free_context = false;  // from a free function or namespace scope,
                              // where an unqualified name cannot be a method
  int from_def = -1;  // referencing def; -1 outside a src/ function body
  FileRole role = FileRole::kSource;
};

// Per-file lex byproducts the rules need when reporting/suppressing.
struct FilePragmas {
  std::vector<Pragma> pragmas;
  std::vector<Annotation> annotations;  // kept for unattached-annotation
                                        // diagnostics
};

struct Program {
  std::vector<FunctionDef> defs;
  std::vector<CallSite> calls;
  // Classes whose `Rng` member declaration is annotated `root-rng`,
  // mapped to the annotated member name (usually "rng_").
  std::map<std::string, std::string> root_rng_classes;
  std::map<std::string, FilePragmas> file_pragmas;  // by display path
  std::vector<NameRef> refs;          // from every indexed tree
  std::set<std::string> class_names;  // classes defined under src/

  // Name -> def indices (last component). Qualified lookups filter by
  // class_name when the qualifier names a class that defines the name.
  std::multimap<std::string, int> defs_by_name;

  // Resolves a call to candidate definition indices (possibly empty:
  // std:: / libc / macro names have no definition in the program).
  std::vector<int> Resolve(const CallSite& call) const;

  // Definitions a name reference may denote: the same name linking as
  // Resolve, except that a member reference names only methods and an
  // unqualified reference from free code names only free functions.
  std::vector<int> ResolveRef(const NameRef& ref) const;
};

// Indexes one file's token stream into `program`. `display_path` feeds
// findings; `norm_path` (forward slashes) feeds path-based exemptions.
// Files of any role but kSource add only their name references.
void IndexFile(const std::string& display_path, const std::string& norm_path,
               const LexResult& lexed, FileRole role, Program* program);

// Finishes the program after every file was indexed (builds defs_by_name,
// attaches class annotations).
void FinalizeProgram(Program* program);

}  // namespace pafeat_lint

#endif  // PAFEAT_TOOLS_LINT_INDEX_H_
