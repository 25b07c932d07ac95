#include "index.h"

#include <algorithm>
#include <cstddef>
#include <set>

namespace pafeat_lint {
namespace {

// Statement keywords that look like calls (`if (...)`) and must not become
// call edges.
bool IsStmtKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",    "while",   "switch",        "return",
      "sizeof", "catch",  "alignof", "static_assert", "decltype",
      "else",   "do",     "case",    "throw",         "noexcept",
      "new",    "delete", "defined", "alignas",       "requires"};
  return kKeywords.count(s) > 0;
}

bool IsMallocFamily(const std::string& s) {
  return s == "malloc" || s == "calloc" || s == "realloc" ||
         s == "aligned_alloc";
}

bool IsMakeSmart(const std::string& s) {
  return s == "make_unique" || s == "make_shared";
}

// Container member calls that (re)allocate. `clear`/`pop_back` shrink and
// `erase` never grows, so they are deliberately absent.
bool IsGrowthCall(const std::string& s) {
  static const std::set<std::string> kGrowth = {
      "push_back", "emplace_back",  "emplace", "resize",  "reserve",
      "insert",    "emplace_front", "assign",  "append",  "push_front"};
  return kGrowth.count(s) > 0;
}

bool EndsWithUnderscore(const std::string& s) {
  return !s.empty() && s.back() == '_';
}

bool TextIs(const std::vector<Token>& toks, std::size_t i, const char* s) {
  return i < toks.size() && toks[i].text == s;
}

// True when the '&' at `amp` takes an address rather than declaring a
// reference or and-ing two values.
bool UnaryAmpersand(const std::vector<Token>& toks, std::size_t amp) {
  if (amp == 0) return true;
  const Token& p = toks[amp - 1];
  if (p.kind == TokKind::kIdentifier) return p.text == "return";
  return p.text == "(" || p.text == "," || p.text == "=" || p.text == "{" ||
         p.text == "?" || p.text == ":";
}

// True when `f<...>(` starts at `i` (the identifier).
bool TemplateCall(const std::vector<Token>& toks, std::size_t i) {
  if (!TextIs(toks, i + 1, "<")) return false;
  int depth = 0;
  for (std::size_t k = i + 1; k < toks.size() && k < i + 64; ++k) {
    const std::string& s = toks[k].text;
    if (s == ";" || s == "{" || s == "}") return false;
    if (s == "<") ++depth;
    if (s == ">" && --depth == 0) return TextIs(toks, k + 1, "(");
  }
  return false;
}

// Decides whether the identifier at `i` references a function by name (see
// NameRef) and fills the name, qualifier and member fields if so.
bool RefAt(const std::vector<Token>& toks, std::size_t i, NameRef* ref) {
  const Token& t = toks[i];
  if (t.kind != TokKind::kIdentifier || IsStmtKeyword(t.text) ||
      t.text == "operator") {
    return false;
  }
  const bool qualified = i >= 1 && TextIs(toks, i - 1, "::");
  const bool address =
      i >= 1 && TextIs(toks, i - 1, "&") && UnaryAmpersand(toks, i - 1);
  if (!qualified && !address && !TextIs(toks, i + 1, "(") &&
      !TemplateCall(toks, i)) {
    return false;
  }
  ref->name = t.text;
  ref->member =
      i >= 1 && (TextIs(toks, i - 1, ".") || TextIs(toks, i - 1, "->"));
  if (qualified && i >= 2 && toks[i - 2].kind == TokKind::kIdentifier) {
    ref->qualifier = toks[i - 2].text;
  }
  return true;
}

struct ClassRange {
  std::string name;
  int first_line = 0;
  int last_line = 0;
};

class FileIndexer {
 public:
  FileIndexer(const std::string& display_path, const std::string& norm_path,
              const LexResult& lexed, Program* program)
      : display_(display_path),
        norm_(norm_path),
        toks_(lexed.tokens),
        annotations_(lexed.annotations),
        annotation_used_(lexed.annotations.size(), false),
        program_(program) {}

  void Run() {
    ParseDeclSeq(0, toks_.size(), /*class_name=*/"");
    AttachRootRngMembers();
    RecordMacroRefs();
  }

 private:
  const Token& Tok(std::size_t i) const { return toks_[i]; }
  const std::string& Text(std::size_t i) const { return toks_[i].text; }
  bool Is(std::size_t i, const char* s) const {
    return i < toks_.size() && toks_[i].text == s;
  }
  bool IsIdent(std::size_t i) const {
    return i < toks_.size() && toks_[i].kind == TokKind::kIdentifier;
  }

  // Index one past the token matching `open` at `i` (i points at `open`).
  // Returns `end` when unbalanced — every caller treats that as "skip the
  // rest", which keeps malformed input from looping.
  std::size_t SkipBalanced(std::size_t i, std::size_t end, const char* open,
                           const char* close) const {
    int depth = 0;
    for (; i < end; ++i) {
      if (Text(i) == open) ++depth;
      if (Text(i) == close && --depth == 0) return i + 1;
    }
    return end;
  }

  // --- declaration scope ----------------------------------------------------

  void ParseDeclSeq(std::size_t begin, std::size_t end,
                    const std::string& class_name) {
    std::size_t i = begin;
    while (i < end) {
      if (Tok(i).kind == TokKind::kPpDirective) {
        ++i;
        continue;
      }
      const std::string& s = Text(i);
      if (s == "namespace") {
        std::size_t j = i + 1;
        while (j < end && (IsIdent(j) || Is(j, "::"))) ++j;
        if (Is(j, "{")) {
          const std::size_t close = SkipBalanced(j, end, "{", "}");
          ParseDeclSeq(j + 1, close - 1, class_name);
          i = close;
          continue;
        }
        ++i;
        continue;
      }
      if (s == "class" || s == "struct" || s == "union") {
        i = ParseClass(i, end);
        continue;
      }
      if (s == "enum") {
        while (i < end && Text(i) != ";" && Text(i) != "{") ++i;
        if (Is(i, "{")) i = SkipBalanced(i, end, "{", "}");
        while (i < end && Text(i) != ";") ++i;
        ++i;
        continue;
      }
      if (s == "using" || s == "typedef" || s == "friend") {
        while (i < end && Text(i) != ";") ++i;
        ++i;
        continue;
      }
      if (s == "template") {
        i = SkipAngles(i + 1, end);
        continue;
      }
      if (s == "{") {
        // Stray block (e.g. a mis-parsed construct): recurse so nothing
        // inside is attributed to declaration scope by accident.
        const std::size_t close = SkipBalanced(i, end, "{", "}");
        ParseDeclSeq(i + 1, close - 1, class_name);
        i = close;
        continue;
      }
      if (s == "(") {
        i = MaybeFunctionDef(i, end, class_name);
        continue;
      }
      if (s == "=" && i > begin &&
          ((IsIdent(i - 1) && Text(i - 1) != "operator") || Is(i - 1, "]"))) {
        RecordInitializerRefs(i + 1, end, class_name);
      }
      ++i;
    }
  }

  // Name references in a namespace- or class-scope initializer (`= expr;`),
  // such as a table of function pointers. Records only; the declaration
  // walk still visits these tokens as before.
  void RecordInitializerRefs(std::size_t i, std::size_t end,
                             const std::string& class_name) {
    int depth = 0;
    for (; i < end; ++i) {
      const std::string& s = Text(i);
      if (s == "(" || s == "{" || s == "[") ++depth;
      if ((s == ")" || s == "}" || s == "]") && --depth < 0) return;
      if (s == ";" && depth == 0) return;
      AddRef(i, /*from_def=*/-1, class_name);
    }
  }

  std::size_t SkipAngles(std::size_t i, std::size_t end) const {
    if (!Is(i, "<")) return i;
    int depth = 0;
    for (; i < end; ++i) {
      if (Text(i) == "<") ++depth;
      if (Text(i) == ">" && --depth == 0) return i + 1;
      if (Text(i) == ";" || Text(i) == "{") return i;  // malformed
    }
    return i;
  }

  std::size_t ParseClass(std::size_t i, std::size_t end) {
    // The class name is the last identifier before the base clause / body /
    // semicolon (skips attribute-ish macro identifiers).
    std::size_t j = i + 1;
    std::string name;
    int first_line = Tok(i).line;
    while (j < end) {
      const std::string& s = Text(j);
      if (s == ";") return j + 1;  // forward declaration
      if (s == ":" || s == "{") break;
      if (s == "<") {
        j = SkipAngles(j, end);
        continue;
      }
      if (IsIdent(j)) name = s;
      ++j;
    }
    while (j < end && Text(j) != "{") ++j;  // skip base clause
    if (j >= end) return end;
    const std::size_t close = SkipBalanced(j, end, "{", "}");
    ClassRange range;
    range.name = name;
    range.first_line = first_line;
    range.last_line = close - 1 < toks_.size() ? Tok(close - 1).line
                                               : first_line;
    classes_.push_back(range);
    if (!name.empty()) program_->class_names.insert(name);
    ParseDeclSeq(j + 1, close - 1, name);
    // A class body can be followed by declarators (`} g_instance;`) — the
    // decl-seq loop copes, nothing special needed.
    return close;
  }

  // Gathers `A::B::Name` walking left from the '(' at `paren`. Returns
  // false when no plausible function name precedes it.
  bool GatherName(std::size_t paren, std::string* name,
                  std::string* qualifier, int* name_line) const {
    if (paren == 0) return false;
    std::size_t j = paren - 1;
    // operator foo: `operator=` / `operator()` / `operator[]` — name the
    // def "operator" so its body still gets parsed and attributed.
    if (Tok(j).kind == TokKind::kPunct) {
      std::size_t k = j;
      while (k > 0 && Tok(k).kind == TokKind::kPunct && !Is(k, ")") &&
             !Is(k, ";") && !Is(k, "}")) {
        --k;
      }
      if (IsIdent(k) && Text(k) == "operator") {
        *name = "operator";
        *qualifier = "";
        *name_line = Tok(k).line;
        return true;
      }
      return false;
    }
    if (!IsIdent(j)) return false;
    std::vector<std::string> comps;
    comps.push_back(Text(j));
    *name_line = Tok(j).line;
    while (j >= 2 && Is(j - 1, "::") && IsIdent(j - 2)) {
      comps.push_back(Text(j - 2));
      j -= 2;
    }
    *name = comps.front();
    *qualifier = comps.size() > 1 ? comps[1] : "";
    return true;
  }

  // Decides whether the tokens after the parameter list make this a
  // definition; on success returns the index of the body '{'.
  bool ParseSuffix(std::size_t k, std::size_t end,
                   std::size_t* body_open) const {
    int angle = 0;
    while (k < end) {
      const std::string& s = Text(k);
      if (angle > 0) {
        if (s == "<") ++angle;
        if (s == ">") --angle;
        if (s == ";" || s == "{") return false;  // gave up on the angles
        ++k;
        continue;
      }
      if (s == "{") {
        *body_open = k;
        return true;
      }
      if (s == ";" || s == "=" || s == "," || s == ")" || s == "}") {
        return false;
      }
      if (s == ":") return ParseInitList(k + 1, end, body_open);
      if (s == "(") {
        k = SkipBalanced(k, end, "(", ")");
        continue;
      }
      if (s == "<") ++angle;
      ++k;  // const / noexcept / override / final / & / && / -> / type
    }
    return false;
  }

  // Constructor member-init list: `name(args)` / `name{args}` entries
  // separated by commas, then the body '{'.
  bool ParseInitList(std::size_t k, std::size_t end,
                     std::size_t* body_open) const {
    while (k < end) {
      while (k < end && (IsIdent(k) || Is(k, "::"))) ++k;
      if (Is(k, "<")) {
        k = SkipAngles(k, end);
        while (k < end && (IsIdent(k) || Is(k, "::"))) ++k;
      }
      if (Is(k, "(")) {
        k = SkipBalanced(k, end, "(", ")");
      } else if (Is(k, "{")) {
        k = SkipBalanced(k, end, "{", "}");
      } else {
        return false;
      }
      if (Is(k, ",")) {
        ++k;
        continue;
      }
      if (Is(k, "{")) {
        *body_open = k;
        return true;
      }
      return false;
    }
    return false;
  }

  std::size_t MaybeFunctionDef(std::size_t paren, std::size_t end,
                               const std::string& class_name) {
    std::string name, qualifier;
    int name_line = 0;
    const std::size_t params_end = SkipBalanced(paren, end, "(", ")");
    if (!GatherName(paren, &name, &qualifier, &name_line) ||
        IsStmtKeyword(name)) {
      return params_end;
    }
    std::size_t body_open = 0;
    if (!ParseSuffix(params_end, end, &body_open)) return params_end;
    const std::size_t body_close = SkipBalanced(body_open, end, "{", "}");

    const std::string cls = !qualifier.empty() ? qualifier : class_name;
    const int def_index = static_cast<int>(program_->defs.size());
    FunctionDef def;
    def.name = name;
    def.class_name = cls;
    def.display = cls.empty() ? name : cls + "::" + name;
    def.file = display_;
    def.line = name_line;
    AttachAnnotations(&def);
    program_->defs.push_back(std::move(def));
    // Default arguments and the member-init list use names too.
    for (std::size_t k = paren + 1; k < body_open; ++k) {
      AddRef(k, def_index, cls);
    }
    ParseBody(def_index, body_open + 1, body_close - 1, cls,
              /*inherited_guard=*/false);
    return body_close;
  }

  void AttachAnnotations(FunctionDef* def) {
    for (std::size_t a = 0; a < annotations_.size(); ++a) {
      if (annotation_used_[a]) continue;
      const Annotation& ann = annotations_[a];
      const bool same_line = !ann.standalone && ann.line == def->line;
      // A standalone annotation attaches to the next definition starting
      // within 3 lines (room for a `template <...>` header line).
      const bool above = ann.standalone && def->line > ann.line &&
                         def->line - ann.line <= 3;
      if (same_line || above) {
        def->annotations.push_back(ann.text);
        annotation_used_[a] = true;
      }
    }
  }

  // --- function bodies ------------------------------------------------------

  void ParseBody(int def_index, std::size_t begin, std::size_t end,
                 const std::string& class_name, bool inherited_guard) {
    int depth = 0;  // braces inside the body
    int paren = 0;
    std::vector<int> parallel_ctx;  // paren levels of open ParallelFor/Submit
    bool guard_active = false;
    int guard_depth = 0;
    std::string guard_var;

    std::size_t i = begin;
    while (i < end) {
      const Token& t = Tok(i);
      const std::string& s = t.text;
      if (s == "{") ++depth;
      if (s == "}") {
        --depth;
        if (guard_active && depth < guard_depth) guard_active = false;
      }
      if (s == "(") ++paren;
      if (s == ")") {
        --paren;
        while (!parallel_ctx.empty() && paren <= parallel_ctx.back()) {
          parallel_ctx.pop_back();
        }
      }
      if (s == "[" && LambdaStart(i, begin)) {
        const std::size_t after = ParseLambda(
            def_index, i, end, class_name, !parallel_ctx.empty(),
            guard_active || inherited_guard);
        if (after > i) {
          i = after;
          continue;
        }
      }
      if (t.kind == TokKind::kIdentifier) {
        AddRef(i, def_index, class_name);
        const bool prev_member =
            i > begin && (Is(i - 1, ".") || Is(i - 1, "->"));
        const bool next_call = Is(i + 1, "(");

        if (s == "ReadGuard" && !next_call) {
          // `ReplayBuffer::ReadGuard g(...)` or
          // `std::vector<ReplayBuffer::ReadGuard> guards;` — the borrow
          // window opens here and closes with the enclosing block or an
          // explicit `guards.clear()`.
          std::size_t j = i + 1;
          while (j < end && (Is(j, ">") || Is(j, "&") || Is(j, "*"))) ++j;
          if (IsIdent(j)) {
            guard_active = true;
            guard_depth = depth;
            guard_var = Text(j);
          }
        }
        if (guard_active && s == "clear" && next_call && prev_member &&
            i >= 2 && Text(i - 2) == guard_var) {
          guard_active = false;
        }

        if (next_call && !IsStmtKeyword(s) && s != "ReadGuard") {
          CallSite call;
          call.caller = def_index;
          call.callee = s;
          call.member = prev_member;
          if (!prev_member && i > begin && Is(i - 1, "::") && i >= 2 &&
              IsIdent(i - 2)) {
            call.qualifier = Text(i - 2);
          }
          call.line = t.line;
          call.in_guard_region = guard_active || inherited_guard;
          program_->calls.push_back(call);

          if (s == "ParallelFor" || s == "Submit") {
            parallel_ctx.push_back(paren);
          }
          if (!prev_member && IsMallocFamily(s)) {
            AddAlloc(def_index, t.line, s + "()");
          }
          if (prev_member && IsGrowthCall(s)) {
            AddAlloc(def_index, t.line, "." + s + "()");
          }
        }
        if (IsMakeSmart(s) && (Is(i + 1, "<") || next_call)) {
          AddAlloc(def_index, t.line, s + "<>()");
        }
        if (s == "new" && !prev_member) {
          AddAlloc(def_index, t.line, "new");
        }
        if (EndsWithUnderscore(s) && !prev_member && !Is(i + 1, "::")) {
          // Candidate member use; FinalizeProgram keeps only the ones that
          // name a root-annotated Rng member of this def's class.
          program_->defs[def_index].rng_touches.push_back(
              RngTouch{t.line, s});
        }
      }
      ++i;
    }
  }

  bool LambdaStart(std::size_t i, std::size_t begin) const {
    if (i == begin) return true;
    const Token& p = Tok(i - 1);
    if (p.kind == TokKind::kIdentifier) return p.text == "return";
    return p.text == "(" || p.text == "," || p.text == "=" ||
           p.text == "{" || p.text == ";";
  }

  // Returns the index one past the lambda body, or `at` when this turned
  // out not to be a lambda after all.
  std::size_t ParseLambda(int enclosing, std::size_t at, std::size_t end,
                          const std::string& class_name, bool parallel,
                          bool in_guard) {
    std::size_t j = SkipBalanced(at, end, "[", "]");
    if (Is(j, "(")) j = SkipBalanced(j, end, "(", ")");
    // Specifiers until the body: mutable / noexcept(...) / -> type.
    int budget = 16;  // a lambda header is short; bail on anything else
    while (j < end && !Is(j, "{") && budget-- > 0) {
      if (Is(j, "(")) {
        j = SkipBalanced(j, end, "(", ")");
        continue;
      }
      if (Is(j, ";") || Is(j, ")") || Is(j, ",") || Is(j, "]")) return at;
      if (Is(j, "<")) {
        j = SkipAngles(j, end);
        continue;
      }
      ++j;
    }
    if (!Is(j, "{")) return at;
    const std::size_t body_close = SkipBalanced(j, end, "{", "}");

    const int def_index = static_cast<int>(program_->defs.size());
    FunctionDef def;
    def.name = "lambda#" + display_ + ":" +
               std::to_string(Tok(at).line) + "#" +
               std::to_string(def_index);
    def.class_name = class_name;
    def.display = program_->defs[enclosing].display + " lambda (" +
                  display_ + ":" + std::to_string(Tok(at).line) + ")";
    def.file = display_;
    def.line = Tok(at).line;
    def.is_lambda = true;
    def.parallel_body = parallel;
    program_->defs.push_back(std::move(def));

    // "Defined implies may run": the enclosing function gets an edge to the
    // lambda so stored callables (reward shapers, retirement predicates)
    // stay reachable without tracking dataflow.
    CallSite call;
    call.caller = enclosing;
    call.callee = program_->defs[def_index].name;
    call.line = Tok(at).line;
    call.in_guard_region = in_guard;
    program_->calls.push_back(call);

    ParseBody(def_index, j + 1, body_close - 1, class_name, in_guard);
    return body_close;
  }

  // --- name references ------------------------------------------------------

  void AddRef(std::size_t i, int from_def, const std::string& class_name) {
    NameRef ref;
    if (!RefAt(toks_, i, &ref)) return;
    ref.free_context = class_name.empty();
    ref.from_def = from_def;
    program_->refs.push_back(std::move(ref));
  }

  // Macro bodies call functions too (`PF_CHECK` expands to a call). A
  // macro may expand inside a method, so its unqualified names may denote
  // methods: free_context stays false.
  void RecordMacroRefs() {
    for (const Token& t : toks_) {
      if (t.kind != TokKind::kPpDirective || t.text.empty()) continue;
      const LexResult body = Lex(display_, t.text.substr(1));
      for (std::size_t i = 0; i < body.tokens.size(); ++i) {
        NameRef ref;
        if (RefAt(body.tokens, i, &ref)) program_->refs.push_back(ref);
      }
    }
  }

  void AddAlloc(int def_index, int line, std::string what) {
    program_->defs[def_index].allocs.push_back(
        AllocSite{line, std::move(what)});
  }

  // --- root-rng member annotations -----------------------------------------

  void AttachRootRngMembers() {
    for (std::size_t a = 0; a < annotations_.size(); ++a) {
      const Annotation& ann = annotations_[a];
      if (ann.text != "root-rng") continue;
      const int target_line = ann.standalone ? ann.line + 1 : ann.line;
      // Innermost class whose body spans the annotated member declaration.
      const ClassRange* best = nullptr;
      for (const ClassRange& range : classes_) {
        if (range.first_line <= target_line &&
            target_line <= range.last_line) {
          if (best == nullptr ||
              range.first_line >= best->first_line) {
            best = &range;
          }
        }
      }
      if (best == nullptr || best->name.empty()) continue;
      // Member name: the last identifier on the declaration line.
      std::string member;
      for (const Token& t : toks_) {
        if (t.line != target_line) continue;
        if (t.kind == TokKind::kIdentifier) member = t.text;
      }
      if (member.empty()) continue;
      program_->root_rng_classes[best->name] = member;
      annotation_used_[a] = true;
    }
  }

  const std::string display_;
  const std::string norm_;
  const std::vector<Token>& toks_;
  const std::vector<Annotation>& annotations_;
  std::vector<bool> annotation_used_;
  std::vector<ClassRange> classes_;
  Program* program_;
};

}  // namespace

std::vector<int> Program::Resolve(const CallSite& call) const {
  std::vector<int> out;
  if (call.qualifier == "std") return out;  // std::move etc. never resolve
  auto range = defs_by_name.equal_range(call.callee);
  for (auto it = range.first; it != range.second; ++it) {
    out.push_back(it->second);
  }
  if (!call.qualifier.empty() && !out.empty()) {
    std::vector<int> filtered;
    for (int idx : out) {
      if (defs[idx].class_name == call.qualifier) filtered.push_back(idx);
    }
    if (!filtered.empty()) return filtered;
  }
  return out;
}

std::vector<int> Program::ResolveRef(const NameRef& ref) const {
  std::vector<int> out;
  if (ref.qualifier == "std") return out;
  auto range = defs_by_name.equal_range(ref.name);
  for (auto it = range.first; it != range.second; ++it) {
    const bool method = !defs[it->second].class_name.empty();
    if (ref.member && !method) continue;
    if (ref.free_context && !ref.member && ref.qualifier.empty() && method) {
      continue;
    }
    out.push_back(it->second);
  }
  if (!ref.qualifier.empty() && !out.empty()) {
    std::vector<int> filtered;
    for (int idx : out) {
      if (defs[idx].class_name == ref.qualifier) filtered.push_back(idx);
    }
    if (!filtered.empty()) return filtered;
  }
  return out;
}

FileRole RoleOfPath(const std::string& relative_path) {
  if (relative_path.rfind("src/", 0) == 0) return FileRole::kSource;
  if (relative_path.rfind("tests/", 0) == 0) return FileRole::kTest;
  return FileRole::kCaller;
}

void IndexFile(const std::string& display_path, const std::string& norm_path,
               const LexResult& lexed, FileRole role, Program* program) {
  if (role != FileRole::kSource) {
    // A caller tree adds name references and nothing else: its definitions
    // and calls stay out of the graph the reachability rules walk.
    Program scratch;
    FileIndexer(display_path, norm_path, lexed, &scratch).Run();
    for (NameRef& ref : scratch.refs) {
      ref.from_def = -1;
      ref.role = role;
      program->refs.push_back(std::move(ref));
    }
    return;
  }
  FilePragmas& fp = program->file_pragmas[display_path];
  fp.pragmas = lexed.pragmas;
  fp.annotations = lexed.annotations;
  FileIndexer(display_path, norm_path, lexed, program).Run();
}

void FinalizeProgram(Program* program) {
  program->defs_by_name.clear();
  for (std::size_t i = 0; i < program->defs.size(); ++i) {
    program->defs_by_name.emplace(program->defs[i].name,
                                  static_cast<int>(i));
  }
  // Keep only member-candidate touches that name the root-annotated Rng
  // member of the def's own class.
  for (FunctionDef& def : program->defs) {
    std::vector<RngTouch> kept;
    auto it = program->root_rng_classes.find(def.class_name);
    if (it != program->root_rng_classes.end()) {
      for (const RngTouch& touch : def.rng_touches) {
        if (touch.member == it->second) kept.push_back(touch);
      }
    }
    def.rng_touches = std::move(kept);
  }
}

}  // namespace pafeat_lint
