// The contract rules inspector_lint enforces, over lexed token streams.
//
// Each rule is named, path-scoped, and individually suppressible with
// an in-source annotation carrying a justification:
//
//   // lint: allow(rule-name) why this site is exempt
//
// A trailing annotation exempts its own line; a whole-line annotation
// exempts the next line of code. A file-wide exemption is
//
//   // lint: allow-file(rule-name) why this whole file is exempt
//
// An annotation without a justification is itself a finding -- the
// point is an *annotated* allowlist, not silent suppression. Residue
// that predates the linter lives in the checked-in baseline file
// (tools/lint_baseline.txt) keyed by (rule, path, normalized line
// text) so entries survive unrelated line drift.
//
// The rule families (see README "Static analysis" for the table):
//
//   no-throw-across-boundary   `throw` in src/{query,shard,net,obs,perf}/
//   failpoint-seam             raw ::open/::read/::write/::fsync/
//                              rename/fopen/fstream IO in
//                              src/{shard,snapshot}/ outside the
//                              util::failpoint-instrumented helpers
//   finalizer-purity           stdout writes anywhere in src/, and
//                              blocking trace/metric emission inside
//                              finalizer-phase functions
//   determinism-hygiene        unordered_{map,set} iteration, rand(),
//                              and wall-clock reads in reply-producing
//                              paths (src/query/, src/net/,
//                              src/shard/engine.*, and the query
//                              kernels in src/analysis/kernels.h)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace inspector::lint {

inline constexpr std::string_view kRuleNoThrow = "no-throw-across-boundary";
inline constexpr std::string_view kRuleFailpointSeam = "failpoint-seam";
inline constexpr std::string_view kRuleFinalizerPurity = "finalizer-purity";
inline constexpr std::string_view kRuleDeterminism = "determinism-hygiene";
inline constexpr std::string_view kRuleAnnotation = "lint-annotation";

/// Every enforced rule name, for --list-rules and fixture validation.
[[nodiscard]] const std::vector<std::string_view>& all_rules();

struct Finding {
  std::string rule;
  std::string path;
  std::uint32_t line = 0;
  std::string message;
};

/// A function definition's extent, for rules that reason about which
/// function a line lives in (finalizer purity).
struct FunctionExtent {
  /// Qualified as spelled at the definition: `Dispatcher::write_loop`.
  std::string name;
  std::uint32_t begin_line = 0;  // line of the body's `{`
  std::uint32_t end_line = 0;    // line of the matching `}`
};

/// Best-effort extraction of function-definition extents from the
/// token stream (brace matching + signature heuristics; lambdas
/// attribute to their enclosing named function). Good enough to ask
/// "is line L inside a function whose name matches X".
[[nodiscard]] std::vector<FunctionExtent> function_extents(
    const LexedFile& file);

/// Run every rule family against one file. Scoping is decided from
/// file.path, so fixtures can opt into any rule by declaring a pretend
/// path. Suppressions are NOT applied here; see apply_suppressions.
[[nodiscard]] std::vector<Finding> run_rules(const LexedFile& file);

/// Drop findings covered by `lint: allow(...)` / `allow-file(...)`
/// annotations in the file's comments. Malformed annotations (unknown
/// rule, missing justification) are appended as lint-annotation
/// findings -- a suppression must say why.
[[nodiscard]] std::vector<Finding> apply_suppressions(
    const LexedFile& file, std::vector<Finding> findings);

}  // namespace inspector::lint
