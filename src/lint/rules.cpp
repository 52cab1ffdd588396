#include "lint/rules.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <set>
#include <string>

namespace inspector::lint {
namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool contains_ci(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    std::size_t j = 0;
    while (j < needle.size() &&
           std::tolower(static_cast<unsigned char>(haystack[i + j])) ==
               std::tolower(static_cast<unsigned char>(needle[j]))) {
      ++j;
    }
    if (j == needle.size()) return true;
  }
  return false;
}

/// Token accessor that answers out-of-range probes with an empty
/// punctuation token, so pattern code never bounds-checks.
struct Toks {
  const std::vector<Token>& t;
  static const Token& none() {
    static const Token empty{TokKind::kPunct, std::string_view(), 0};
    return empty;
  }
  const Token& at(std::ptrdiff_t i) const {
    if (i < 0 || static_cast<std::size_t>(i) >= t.size()) return none();
    return t[static_cast<std::size_t>(i)];
  }
  bool is(std::ptrdiff_t i, std::string_view text) const {
    return at(i).text == text;
  }
  bool ident(std::ptrdiff_t i, std::string_view text) const {
    const Token& tok = at(i);
    return tok.kind == TokKind::kIdent && tok.text == text;
  }
};

bool is_member_access(const Toks& toks, std::ptrdiff_t i) {
  return toks.is(i - 1, ".") || toks.is(i - 1, "->");
}

/// True when the identifier at `i` is qualified as `ns::ident` with
/// `ns` != std (a project wrapper, not the global/std function).
bool is_non_std_qualified(const Toks& toks, std::ptrdiff_t i) {
  if (!toks.is(i - 1, "::")) return false;
  const Token& q = toks.at(i - 2);
  return q.kind == TokKind::kIdent && q.text != "std";
}

constexpr std::array<std::string_view, 8> kControlKeywords = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof"};

bool is_control_keyword(std::string_view s) {
  return std::find(kControlKeywords.begin(), kControlKeywords.end(), s) !=
         kControlKeywords.end();
}

/// Skip a balanced group starting at `i` (which must hold `open`);
/// returns the index just past the matching close, or t.size() when
/// unbalanced. `>>` closes two angle levels.
std::size_t skip_balanced(const std::vector<Token>& t, std::size_t i,
                          std::string_view open, std::string_view close) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == open) {
      ++depth;
    } else if (t[i].text == close) {
      if (--depth == 0) return i + 1;
    } else if (open == "<" && t[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    }
  }
  return t.size();
}

}  // namespace

const std::vector<std::string_view>& all_rules() {
  static const std::vector<std::string_view> rules = {
      kRuleNoThrow,    kRuleFailpointSeam,  kRuleFinalizerPurity,
      kRuleDeterminism, kRuleFormatVersion, kRuleAnnotation,
  };
  return rules;
}

std::vector<FunctionExtent> function_extents(const LexedFile& file) {
  const std::vector<Token>& t = file.tokens;
  const Toks toks{t};
  std::vector<FunctionExtent> out;
  struct Open {
    std::string name;  // empty for plain blocks
    std::uint32_t begin_line;
  };
  std::vector<Open> stack;

  // Read a qualified name ending at token `last` (inclusive), walking
  // back over `ns::...::name` and balanced template arguments.
  auto qualified_name_ending_at = [&](std::ptrdiff_t last) -> std::string {
    std::vector<std::string_view> parts;
    std::ptrdiff_t i = last;
    while (true) {
      if (toks.at(i).kind != TokKind::kIdent) break;
      parts.push_back(toks.at(i).text);
      std::ptrdiff_t before = i - 1;
      // Foo<T>::name -- hop backward over the template argument list.
      if (toks.is(before, "::")) {
        std::ptrdiff_t q = before - 1;
        if (toks.is(q, ">") || toks.is(q, ">>")) {
          int depth = 0;
          while (q >= 0) {
            const std::string_view s = toks.at(q).text;
            if (s == ">") ++depth;
            if (s == ">>") depth += 2;
            if (s == "<") --depth;
            --q;
            if (depth == 0) break;
          }
        }
        i = q;
        continue;
      }
      break;
    }
    std::string name;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      if (!name.empty()) name += "::";
      name += *it;
    }
    return name;
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind != TokKind::kPunct) continue;
    if (tok.text == "{") {
      stack.push_back(Open{std::string(), tok.line});
      continue;
    }
    if (tok.text == "}") {
      if (!stack.empty()) {
        if (!stack.back().name.empty()) {
          out.push_back(FunctionExtent{std::move(stack.back().name),
                                       stack.back().begin_line, tok.line});
        }
        stack.pop_back();
      }
      continue;
    }
    if (tok.text != "(") continue;

    // Candidate function definition: name immediately before the `(`.
    const std::ptrdiff_t name_at = static_cast<std::ptrdiff_t>(i) - 1;
    if (toks.at(name_at).kind != TokKind::kIdent) continue;
    if (is_control_keyword(toks.at(name_at).text)) continue;
    if (toks.ident(name_at, "operator")) continue;

    const std::size_t after_params = skip_balanced(t, i, "(", ")");
    if (after_params >= t.size()) continue;

    // Walk the trailer: qualifiers, noexcept(...), trailing return,
    // then either `{` (definition), `;`/`=`/`,`/`)` (not a body).
    std::size_t j = after_params;
    bool body = false;
    while (j < t.size()) {
      const Token& w = t[j];
      if (w.kind == TokKind::kPunct && w.text == "{") {
        body = true;
        break;
      }
      if (w.kind == TokKind::kPunct &&
          (w.text == ";" || w.text == "=" || w.text == "," ||
           w.text == ")" || w.text == "}")) {
        break;
      }
      if (w.kind == TokKind::kPunct && w.text == ":") {
        // Constructor initializer list: item = name, then (…) or {…};
        // the body `{` follows the last item.
        ++j;
        while (j < t.size()) {
          // Skip the member/base name (possibly qualified/templated).
          while (j < t.size() && (t[j].kind == TokKind::kIdent ||
                                  t[j].text == "::" )) {
            ++j;
          }
          if (j < t.size() && t[j].text == "<")
            j = skip_balanced(t, j, "<", ">");
          if (j >= t.size()) break;
          if (t[j].text == "(")
            j = skip_balanced(t, j, "(", ")");
          else if (t[j].text == "{")
            j = skip_balanced(t, j, "{", "}");
          else
            break;
          if (j < t.size() && t[j].text == ",") {
            ++j;
            continue;
          }
          break;
        }
        if (j < t.size() && t[j].text == "{") body = true;
        break;
      }
      if (w.kind == TokKind::kPunct && w.text == "(") {
        j = skip_balanced(t, j, "(", ")");  // noexcept(...)
        continue;
      }
      if (w.kind == TokKind::kPunct && w.text == "<") {
        j = skip_balanced(t, j, "<", ">");
        continue;
      }
      // const / noexcept / override / final / -> / & / && / * / idents
      // in a trailing return type.
      ++j;
    }
    if (!body) continue;

    std::string name = qualified_name_ending_at(name_at);
    if (name.empty()) continue;
    stack.push_back(Open{std::move(name), t[j].line});
    i = j;  // resume just past the body's `{`
  }
  return out;
}

namespace {

// --- rule: no-throw-across-boundary ---------------------------------

constexpr std::array<std::string_view, 5> kNoThrowScopes = {
    "src/query/", "src/shard/", "src/net/", "src/obs/", "src/perf/"};

void rule_no_throw(const LexedFile& file, std::vector<Finding>& out) {
  bool in_scope = false;
  for (const std::string_view s : kNoThrowScopes) {
    in_scope = in_scope || starts_with(file.path, s);
  }
  if (!in_scope) return;
  const Toks toks{file.tokens};
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    if (!toks.ident(static_cast<std::ptrdiff_t>(i), "throw")) continue;
    out.push_back(Finding{
        std::string(kRuleNoThrow), file.path, file.tokens[i].line,
        "`throw` inside an exception-free boundary (" + file.path +
            "); return a typed Status, or annotate the documented "
            "internal-throw site"});
  }
}

// --- rule: failpoint-seam -------------------------------------------

constexpr std::array<std::string_view, 2> kSeamScopes = {"src/shard/",
                                                         "src/snapshot/"};
constexpr std::array<std::string_view, 7> kGlobalIoCalls = {
    "open", "read", "write", "fsync", "fdatasync", "rename", "unlink"};
constexpr std::array<std::string_view, 3> kCIoCalls = {"fopen", "fdopen",
                                                       "freopen"};
constexpr std::array<std::string_view, 3> kStreamTypes = {
    "ifstream", "ofstream", "fstream"};

void rule_failpoint_seam(const LexedFile& file, std::vector<Finding>& out) {
  bool in_scope = false;
  for (const std::string_view s : kSeamScopes) {
    in_scope = in_scope || starts_with(file.path, s);
  }
  if (!in_scope) return;
  const Toks toks{file.tokens};
  auto flag = [&](std::size_t i, std::string what) {
    out.push_back(Finding{
        std::string(kRuleFailpointSeam), file.path, file.tokens[i].line,
        "raw " + what + " in a storage layer; IO must go through the "
        "util::failpoint-instrumented helpers (shard::write_file_bytes "
        "and friends) so crash sweeps cover it"});
  };
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    const std::ptrdiff_t p = static_cast<std::ptrdiff_t>(i);
    const Token& tok = file.tokens[i];
    if (tok.kind != TokKind::kIdent) continue;

    // ::open(  -- global-qualified POSIX call; Foo::open( is a method.
    for (const std::string_view name : kGlobalIoCalls) {
      if (tok.text != name || !toks.is(p - 1, "::") || !toks.is(p + 1, "("))
        continue;
      const Token& before = toks.at(p - 2);
      // `return ::open(...)`: the keyword before `::` is not a
      // qualifier, the call is globally qualified.
      const bool qualified = (before.kind == TokKind::kIdent &&
                              !is_control_keyword(before.text)) ||
                             before.text == ">" || before.text == ">>";
      if (qualified && !toks.ident(p - 2, "std")) continue;  // Foo::open
      if (toks.ident(p - 2, "std") &&
          (name == "open" || name == "read" || name == "write" ||
           name == "fsync" || name == "fdatasync" || name == "unlink"))
        continue;  // no such std:: functions; don't misread wrappers
      flag(i, "::" + std::string(name) + "() call");
    }
    // fopen( / std::fopen(  -- but not someclass::fopen or x.fopen.
    for (const std::string_view name : kCIoCalls) {
      if (tok.text != name || !toks.is(p + 1, "(")) continue;
      if (is_member_access(toks, p) || is_non_std_qualified(toks, p))
        continue;
      flag(i, std::string(name) + "() call");
    }
    // std::ifstream / bare ifstream use (the #include is opaque).
    for (const std::string_view name : kStreamTypes) {
      if (tok.text != name) continue;
      if (is_member_access(toks, p) || is_non_std_qualified(toks, p))
        continue;
      flag(i, "std::" + std::string(name) + " use");
    }
    // std::filesystem::rename(
    if (tok.text == "rename" && toks.is(p - 1, "::") &&
        toks.ident(p - 2, "filesystem") && toks.is(p + 1, "(")) {
      flag(i, "std::filesystem::rename() call");
    }
  }
}

// --- rule: finalizer-purity -----------------------------------------

constexpr std::array<std::string_view, 6> kStdoutWriters = {
    "printf", "puts", "putchar", "vprintf", "_write_stdout", "wprintf"};
/// Blocking emission calls that must not run before the reply bytes
/// are on the wire (the PR-9 rule). Recording (counter.add, .observe,
/// span->annotate) is fine anywhere; these do IO or take the sink lock.
constexpr std::array<std::string_view, 7> kEmissionCalls = {
    "finish", "emit_line", "log_slow_query", "fprintf",
    "fflush", "fputs",     "fwrite"};
/// Where the serial finalizer phase lives: Dispatcher::write_loop runs
/// finalizers and owns reply ordering; anything named *finalize* in
/// src/net/ or src/query/ is treated the same.
constexpr std::array<std::string_view, 2> kFinalizerNames = {"finaliz",
                                                              "write_loop"};

void rule_finalizer_purity(const LexedFile& file, std::vector<Finding>& out) {
  // tools/ is in scope too: each tool either IS a designated
  // reply-emission site (inspector_query) or a report printer, and
  // says so with a justified allow-file annotation.
  if (!starts_with(file.path, "src/") && !starts_with(file.path, "tools/"))
    return;
  const Toks toks{file.tokens};
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    const std::ptrdiff_t p = static_cast<std::ptrdiff_t>(i);
    const Token& tok = file.tokens[i];
    if (tok.kind != TokKind::kIdent) continue;
    if (tok.text == "cout" && !is_non_std_qualified(toks, p) &&
        !is_member_access(toks, p)) {
      out.push_back(Finding{std::string(kRuleFinalizerPurity), file.path,
                            tok.line,
                            "std::cout write in src/: stdout belongs to "
                            "reply bytes only; diagnostics go to stderr"});
      continue;
    }
    if ((tok.text == "stdout" || tok.text == "STDOUT_FILENO") &&
        !is_member_access(toks, p)) {
      out.push_back(Finding{std::string(kRuleFinalizerPurity), file.path,
                            tok.line,
                            "stdout handle use in src/: stdout belongs to "
                            "reply bytes only; diagnostics go to stderr"});
      continue;
    }
    for (const std::string_view name : kStdoutWriters) {
      if (tok.text != name || !toks.is(p + 1, "(")) continue;
      if (is_member_access(toks, p) || is_non_std_qualified(toks, p))
        continue;
      out.push_back(Finding{std::string(kRuleFinalizerPurity), file.path,
                            tok.line,
                            std::string(name) +
                                "() writes stdout in src/: stdout belongs "
                                "to reply bytes only"});
    }
  }

  // Emission inside the finalizer phase. Only meaningful where the
  // finalizer phase lives; keep the scan narrow to avoid noise.
  if (!starts_with(file.path, "src/net/") &&
      !starts_with(file.path, "src/query/")) {
    return;
  }
  const std::vector<FunctionExtent> funcs = function_extents(file);
  auto in_finalizer = [&](std::uint32_t line) -> const FunctionExtent* {
    const FunctionExtent* best = nullptr;
    for (const FunctionExtent& f : funcs) {
      if (line < f.begin_line || line > f.end_line) continue;
      bool named = false;
      for (const std::string_view n : kFinalizerNames) {
        named = named || contains_ci(f.name, n);
      }
      if (!named) continue;
      // Innermost named match wins.
      if (best == nullptr || f.begin_line > best->begin_line) best = &f;
    }
    return best;
  };
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    const std::ptrdiff_t p = static_cast<std::ptrdiff_t>(i);
    const Token& tok = file.tokens[i];
    if (tok.kind != TokKind::kIdent || !toks.is(p + 1, "(")) continue;
    bool is_emission = false;
    for (const std::string_view name : kEmissionCalls) {
      is_emission = is_emission || tok.text == name;
    }
    if (!is_emission) continue;
    const FunctionExtent* f = in_finalizer(tok.line);
    if (f == nullptr) continue;
    out.push_back(Finding{
        std::string(kRuleFinalizerPurity), file.path, tok.line,
        "blocking emission call `" + std::string(tok.text) +
            "()` inside finalizer-phase function `" + f->name +
            "`; emission must wait until the reply bytes are on the wire"});
  }
}

// --- rule: determinism-hygiene --------------------------------------

constexpr std::array<std::string_view, 2> kDeterminismDirScopes = {
    "src/query/", "src/net/"};
constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
constexpr std::array<std::string_view, 5> kRandomCalls = {
    "rand", "srand", "random_shuffle", "rand_r", "drand48"};
constexpr std::array<std::string_view, 2> kRandomTypes = {"random_device",
                                                           "mt19937"};
constexpr std::array<std::string_view, 5> kWallClockCalls = {
    "gettimeofday", "localtime", "gmtime", "ctime", "strftime"};

void rule_determinism(const LexedFile& file, std::vector<Finding>& out) {
  bool in_scope = file.path == "src/shard/engine.cpp" ||
                  file.path == "src/shard/engine.h" ||
                  file.path == "src/analysis/kernels.h";
  for (const std::string_view s : kDeterminismDirScopes) {
    in_scope = in_scope || starts_with(file.path, s);
  }
  if (!in_scope) return;
  const std::vector<Token>& t = file.tokens;
  const Toks toks{t};

  // Pass 1: names declared in this file with an unordered hash type.
  std::set<std::string_view, std::less<>> unordered_names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    bool is_unordered = false;
    for (const std::string_view name : kUnorderedTypes) {
      is_unordered = is_unordered || toks.ident(static_cast<std::ptrdiff_t>(i),
                                                 name);
    }
    if (!is_unordered || !toks.is(static_cast<std::ptrdiff_t>(i) + 1, "<"))
      continue;
    std::size_t j = skip_balanced(t, i + 1, "<", ">");
    // Skip declarators: & * const, then take the declared name.
    while (j < t.size() &&
           (t[j].text == "&" || t[j].text == "*" || t[j].text == "&&" ||
            toks.ident(static_cast<std::ptrdiff_t>(j), "const")))
      ++j;
    if (j < t.size() && t[j].kind == TokKind::kIdent)
      unordered_names.insert(t[j].text);
  }

  // Pass 2: range-for whose range expression roots at one of them.
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!toks.ident(static_cast<std::ptrdiff_t>(i), "for") ||
        !toks.is(static_cast<std::ptrdiff_t>(i) + 1, "(")) {
      continue;
    }
    const std::size_t close = skip_balanced(t, i + 1, "(", ")");
    // Find the range-for `:` at paren depth 1; a `;` first means a
    // classic for loop.
    std::size_t colon = 0;
    int depth = 0;
    bool classic = false;
    for (std::size_t j = i + 1; j < close && j < t.size(); ++j) {
      if (t[j].kind != TokKind::kPunct) continue;
      if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{") ++depth;
      if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}") --depth;
      if (depth == 1 && t[j].text == ";") {
        classic = true;
        break;
      }
      if (depth == 1 && t[j].text == ":" && !toks.is(
              static_cast<std::ptrdiff_t>(j) - 1, ":") &&
          !toks.is(static_cast<std::ptrdiff_t>(j) + 1, ":")) {
        colon = j;
        break;
      }
    }
    if (classic || colon == 0) continue;
    for (std::size_t j = colon + 1; j < close && j < t.size(); ++j) {
      if (t[j].kind != TokKind::kIdent) continue;
      if (unordered_names.count(t[j].text) != 0) {
        out.push_back(Finding{
            std::string(kRuleDeterminism), file.path, t[j].line,
            "iteration over unordered container `" + std::string(t[j].text) +
                "` in a reply-producing path; hash order is not "
                "deterministic -- iterate a sorted view or switch the "
                "container"});
      }
      break;  // root identifier only
    }
  }

  // Pass 3: randomness and wall clocks.
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::ptrdiff_t p = static_cast<std::ptrdiff_t>(i);
    const Token& tok = t[i];
    if (tok.kind != TokKind::kIdent) continue;
    if (is_member_access(toks, p)) continue;
    for (const std::string_view name : kRandomCalls) {
      if (tok.text != name || !toks.is(p + 1, "(")) continue;
      if (is_non_std_qualified(toks, p)) continue;
      out.push_back(Finding{std::string(kRuleDeterminism), file.path,
                            tok.line,
                            std::string(name) +
                                "() in a reply-producing path; replies "
                                "must be bit-identical across runs"});
    }
    for (const std::string_view name : kRandomTypes) {
      if (tok.text != name) continue;
      if (is_non_std_qualified(toks, p)) continue;
      out.push_back(Finding{std::string(kRuleDeterminism), file.path,
                            tok.line,
                            "std::" + std::string(name) +
                                " in a reply-producing path; replies must "
                                "be bit-identical across runs"});
    }
    // `std::chrono::system_clock` qualifies with `chrono`, not `std`.
    if (tok.text == "system_clock" &&
        (!is_non_std_qualified(toks, p) || toks.ident(p - 2, "chrono"))) {
      out.push_back(Finding{std::string(kRuleDeterminism), file.path,
                            tok.line,
                            "wall-clock read (system_clock) in a "
                            "reply-producing path; use steady_clock for "
                            "durations, and keep timestamps out of reply "
                            "bytes"});
    }
    for (const std::string_view name : kWallClockCalls) {
      if (tok.text != name || !toks.is(p + 1, "(")) continue;
      if (is_non_std_qualified(toks, p)) continue;
      out.push_back(Finding{std::string(kRuleDeterminism), file.path,
                            tok.line,
                            std::string(name) +
                                "() wall-clock read in a reply-producing "
                                "path"});
    }
    if (tok.text == "time" && toks.is(p + 1, "(") &&
        (toks.is(p - 1, "::") ? toks.ident(p - 2, "std") : true) &&
        !is_member_access(toks, p) &&
        toks.at(p - 1).kind != TokKind::kIdent) {
      out.push_back(Finding{std::string(kRuleDeterminism), file.path,
                            tok.line,
                            "time() wall-clock read in a reply-producing "
                            "path"});
    }
  }
}

}  // namespace

std::vector<Finding> run_rules(const LexedFile& file) {
  std::vector<Finding> out;
  rule_no_throw(file, out);
  rule_failpoint_seam(file, out);
  rule_finalizer_purity(file, out);
  rule_determinism(file, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

// --- suppressions ----------------------------------------------------

namespace {

struct Allow {
  std::string_view rule;
  std::uint32_t line = 0;   // effective line (0 = whole file)
  bool justified = false;
  std::uint32_t at_line = 0;  // where the annotation itself sits
};

/// Parse `lint: allow(rule) why` / `lint: allow-file(rule) why` out of
/// one comment. Returns true when the comment is a lint annotation at
/// all (even a malformed one).
bool parse_allow(std::string_view text, bool trailing, Allow& out,
                 bool& file_scope) {
  // Annotations start the comment (`// lint: allow(...) why`); a
  // mid-comment mention is prose about the syntax, not a suppression.
  const std::string_view tag = "lint:";
  if (!starts_with(text, tag)) return false;
  std::string_view rest = text.substr(tag.size());
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  file_scope = false;
  if (starts_with(rest, "allow-file(")) {
    file_scope = true;
    rest.remove_prefix(std::string_view("allow-file(").size());
  } else if (starts_with(rest, "allow(")) {
    rest.remove_prefix(std::string_view("allow(").size());
  } else {
    return false;
  }
  const std::size_t close = rest.find(')');
  if (close == std::string_view::npos) {
    out.rule = std::string_view();
    return true;
  }
  out.rule = rest.substr(0, close);
  std::string_view why = rest.substr(close + 1);
  while (!why.empty() && (why.front() == ' ' || why.front() == '-'))
    why.remove_prefix(1);
  out.justified = !why.empty();
  (void)trailing;
  return true;
}

}  // namespace

std::vector<Finding> apply_suppressions(const LexedFile& file,
                                        std::vector<Finding> findings) {
  std::vector<Allow> line_allows;
  std::vector<Allow> file_allows;
  std::vector<Finding> extra;

  // Map a whole-line comment to the next line holding a token.
  auto next_code_line = [&](std::uint32_t after) -> std::uint32_t {
    for (const Token& t : file.tokens) {
      if (t.line > after) return t.line;
    }
    return 0;
  };

  for (const Comment& c : file.comments) {
    Allow a;
    bool file_scope = false;
    if (!parse_allow(c.text, c.trailing, a, file_scope)) continue;
    a.at_line = c.line;
    bool known = false;
    for (const std::string_view r : all_rules()) known = known || r == a.rule;
    if (!known) {
      extra.push_back(Finding{
          std::string(kRuleAnnotation), file.path, c.line,
          "lint annotation names unknown rule `" + std::string(a.rule) +
              "`"});
      continue;
    }
    if (!a.justified) {
      extra.push_back(Finding{
          std::string(kRuleAnnotation), file.path, c.line,
          "lint: allow(" + std::string(a.rule) +
              ") without a justification; say why the site is exempt"});
      continue;
    }
    if (file_scope) {
      file_allows.push_back(a);
    } else {
      a.line = c.trailing ? c.line : next_code_line(c.line);
      if (a.line != 0) line_allows.push_back(a);
    }
  }

  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    bool allowed = false;
    for (const Allow& a : file_allows) {
      allowed = allowed || a.rule == f.rule;
    }
    for (const Allow& a : line_allows) {
      allowed = allowed || (a.rule == f.rule && a.line == f.line);
    }
    if (!allowed) kept.push_back(std::move(f));
  }
  kept.insert(kept.end(), extra.begin(), extra.end());
  return kept;
}

// --- format-version-discipline ---------------------------------------

std::vector<DiffTouch> parse_unified_diff(std::string_view diff) {
  std::vector<DiffTouch> out;
  DiffTouch* current = nullptr;
  std::uint32_t new_line = 0;
  bool hunk_had_add = false;
  bool hunk_had_remove = false;
  std::uint32_t hunk_start = 0;
  auto close_hunk = [&] {
    if (current != nullptr && hunk_had_remove && !hunk_had_add &&
        hunk_start != 0) {
      current->removal_positions.push_back(hunk_start);
    }
    hunk_had_add = false;
    hunk_had_remove = false;
    hunk_start = 0;
  };

  std::size_t pos = 0;
  while (pos <= diff.size()) {
    const std::size_t eol = diff.find('\n', pos);
    const std::string_view line =
        diff.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? diff.size() + 1 : eol + 1;

    if (starts_with(line, "+++ ")) {
      close_hunk();
      std::string_view path = line.substr(4);
      if (starts_with(path, "b/")) path.remove_prefix(2);
      const std::size_t tab = path.find('\t');
      if (tab != std::string_view::npos) path = path.substr(0, tab);
      out.push_back(DiffTouch{std::string(path), {}, {}, {}});
      current = &out.back();
      new_line = 0;
      continue;
    }
    if (starts_with(line, "@@")) {
      close_hunk();
      // @@ -a,b +c,d @@
      const std::size_t plus = line.find('+');
      new_line = 0;
      if (plus != std::string_view::npos) {
        std::size_t q = plus + 1;
        while (q < line.size() &&
               std::isdigit(static_cast<unsigned char>(line[q]))) {
          new_line = new_line * 10 + static_cast<std::uint32_t>(line[q] - '0');
          ++q;
        }
      }
      hunk_start = new_line == 0 ? 1 : new_line;
      continue;
    }
    if (current == nullptr || hunk_start == 0) continue;
    if (starts_with(line, "+") && !starts_with(line, "+++")) {
      current->added.push_back(
          DiffTouch::AddedLine{new_line, std::string(line.substr(1))});
      current->changed_texts.emplace_back(line.substr(1));
      hunk_had_add = true;
      ++new_line;
      continue;
    }
    if (starts_with(line, "-") && !starts_with(line, "---")) {
      current->changed_texts.emplace_back(line.substr(1));
      hunk_had_remove = true;
      continue;
    }
    if (starts_with(line, " ")) {
      ++new_line;
      continue;
    }
    // Headers, `\ No newline`, fixture `#` comments: skipped.
  }
  close_hunk();
  return out;
}

namespace {

/// A changed line that is blank or a pure comment cannot change
/// serialization behavior; annotation-only edits must not demand a
/// version bump.
bool comment_only_line(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  if (i >= text.size()) return true;
  const std::string_view rest = text.substr(i);
  return starts_with(rest, "//") || starts_with(rest, "*") ||
         starts_with(rest, "/*");
}

struct VersionedArea {
  std::string_view file;
  std::vector<std::string_view> constants;
};

const std::vector<VersionedArea>& versioned_areas() {
  static const std::vector<VersionedArea> areas = {
      {"src/cpg/serialize.cpp", {"kCpgFormatVersion"}},
      {"src/cpg/serialize.h", {"kCpgFormatVersion"}},
      {"src/shard/format.cpp",
       {"kShardFormatVersion", "kManifestFormatVersion"}},
      {"src/shard/format.h",
       {"kShardFormatVersion", "kManifestFormatVersion"}},
  };
  return areas;
}

}  // namespace

std::vector<Finding> check_format_version(
    const std::vector<DiffTouch>& diff,
    const std::function<const LexedFile*(const std::string&)>& lookup) {
  std::vector<Finding> out;
  for (const DiffTouch& touch : diff) {
    const VersionedArea* area = nullptr;
    for (const VersionedArea& a : versioned_areas()) {
      if (a.file == touch.path) area = &a;
    }
    if (area == nullptr) continue;

    const LexedFile* lexed = lookup(touch.path);
    if (lexed == nullptr) continue;
    const std::vector<FunctionExtent> funcs = function_extents(*lexed);

    // Which touched lines land inside a serialize/deserialize function
    // and are not comment-only?
    std::uint32_t first_hit = 0;
    std::string hit_function;
    auto consider = [&](std::uint32_t line, std::string_view text) {
      if (!text.empty() && comment_only_line(text)) return;
      for (const FunctionExtent& f : funcs) {
        if (line < f.begin_line || line > f.end_line) continue;
        if (!contains_ci(f.name, "serialize")) continue;  // covers de-
        if (first_hit == 0 || line < first_hit) {
          first_hit = line;
          hit_function = f.name;
        }
      }
    };
    for (const DiffTouch::AddedLine& a : touch.added) consider(a.line, a.text);
    for (const std::uint32_t line : touch.removal_positions)
      consider(line, std::string_view());
    if (first_hit == 0) continue;

    // Does a ± code line in one of the versioned files touch one of the
    // area's version constants? A mention in prose -- a README line, a
    // comment -- is not a bump.
    bool bumped = false;
    for (const DiffTouch& other : diff) {
      bool versioned = false;
      for (const VersionedArea& a : versioned_areas()) {
        versioned = versioned || a.file == other.path;
      }
      if (!versioned) continue;
      for (const std::string& text : other.changed_texts) {
        if (comment_only_line(text)) continue;
        for (const std::string_view constant : area->constants) {
          bumped = bumped || text.find(constant) != std::string::npos;
        }
      }
    }
    if (bumped) continue;

    std::string constants;
    for (const std::string_view c : area->constants) {
      if (!constants.empty()) constants += " / ";
      constants += c;
    }
    out.push_back(Finding{
        std::string(kRuleFormatVersion), touch.path, first_hit,
        "diff changes `" + hit_function + "` but does not touch " +
            constants +
            "; format changes must bump (or deliberately annotate) the "
            "version constant"});
  }
  return out;
}

}  // namespace inspector::lint
