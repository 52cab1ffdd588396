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
//   format-version-discipline  a diff touching serialize/deserialize
//                              code in cpg/ or shard/format.cpp must
//                              also touch the matching k*FormatVersion
//                              constant (CI mode only)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace inspector::lint {

inline constexpr std::string_view kRuleNoThrow = "no-throw-across-boundary";
inline constexpr std::string_view kRuleFailpointSeam = "failpoint-seam";
inline constexpr std::string_view kRuleFinalizerPurity = "finalizer-purity";
inline constexpr std::string_view kRuleDeterminism = "determinism-hygiene";
inline constexpr std::string_view kRuleFormatVersion =
    "format-version-discipline";
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
/// function a line lives in (finalizer purity, format versioning).
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

/// Run the token-pattern rule families (everything except
/// format-version-discipline, which needs a diff) against one file.
/// Scoping is decided from file.path, so fixtures can opt into any
/// rule by declaring a pretend path. Suppressions are NOT applied
/// here; see apply_suppressions.
[[nodiscard]] std::vector<Finding> run_rules(const LexedFile& file);

/// Drop findings covered by `lint: allow(...)` / `allow-file(...)`
/// annotations in the file's comments. Malformed annotations (unknown
/// rule, missing justification) are appended as lint-annotation
/// findings -- a suppression must say why.
[[nodiscard]] std::vector<Finding> apply_suppressions(
    const LexedFile& file, std::vector<Finding> findings);

// --- format-version-discipline (diff-driven, CI mode) ---------------

/// One file's worth of touched lines from a unified diff.
struct DiffTouch {
  std::string path;  // new-side path, `b/` prefix stripped
  struct AddedLine {
    std::uint32_t line = 0;  // new-side line number
    std::string text;        // without the leading `+`
  };
  std::vector<AddedLine> added;
  /// New-side positions that removal-only hunks collapsed to (the
  /// removed code is gone from the new file; its neighborhood still
  /// counts as touched).
  std::vector<std::uint32_t> removal_positions;
  /// Raw text of every added and removed line, for the
  /// version-constant scan.
  std::vector<std::string> changed_texts;
};

/// Parse `git diff` unified output. Unknown lines are skipped, so the
/// parser tolerates headers, binary notices, and `#` comment lines in
/// fixture diffs.
[[nodiscard]] std::vector<DiffTouch> parse_unified_diff(
    std::string_view diff);

/// Check the version-bump discipline over a parsed diff. `lookup`
/// resolves a repo-relative path to its current lexed content (null if
/// unavailable -- the file is then skipped); the driver backs this
/// with the working tree, fixtures back it with pretend files.
[[nodiscard]] std::vector<Finding> check_format_version(
    const std::vector<DiffTouch>& diff,
    const std::function<const LexedFile*(const std::string&)>& lookup);

}  // namespace inspector::lint
