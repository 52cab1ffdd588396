// Tree scanning, baseline handling, and fixture checking for
// inspector_lint. The tool in tools/inspector_lint.cpp is a thin
// argument parser over this; tests drive it directly.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "lint/rules.h"

namespace inspector::lint {

struct RunOptions {
  /// Repository root; scan_dirs and finding paths are relative to it.
  std::string repo_root = ".";
  /// Directories (repo-relative) to scan for C++ sources.
  std::vector<std::string> scan_dirs = {"src", "tools"};
  /// Checked-in residue file; empty disables baseline matching.
  std::string baseline_path;
};

struct RunResult {
  /// Actionable findings: not suppressed, not in the baseline.
  std::vector<Finding> findings;
  /// Baseline lines for `findings`, index-aligned, ready to append to
  /// tools/lint_baseline.txt (used by --write-baseline).
  std::vector<std::string> finding_keys;
  /// Findings absorbed by the baseline file.
  std::size_t baselined = 0;
  /// Baseline entries that matched nothing (stale; worth pruning).
  std::vector<std::string> stale_baseline;
  std::size_t files_scanned = 0;
};

/// Lint the tree. Never throws; unreadable files are skipped.
[[nodiscard]] RunResult run_tree(const RunOptions& options);

/// Collapse whitespace runs and trim -- the baseline keys findings by
/// (rule, path, normalized source line) so entries survive reindents
/// and line drift.
[[nodiscard]] std::string normalize_line(std::string_view line);

/// The baseline line for a finding against the given lexed file, in
/// the exact format tools/lint_baseline.txt stores.
[[nodiscard]] std::string baseline_key(const Finding& finding,
                                       const LexedFile& file);

/// Render findings as `path:line: [rule] message` lines.
void print_findings(const std::vector<Finding>& findings, std::ostream& os);

/// Self-test the rule engine against the checked-in fixture corpus
/// (tests/data/lint): every `*.cc` fixture declares a pretend path
/// (`// LINT-PATH: src/...`) and marks expected findings with
/// `// EXPECT: rule-name` comments. Returns the number of fixture
/// failures, logging each to `log`.
[[nodiscard]] int check_fixtures(const std::string& fixtures_dir,
                                 std::ostream& log);

}  // namespace inspector::lint
