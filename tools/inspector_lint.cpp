// inspector_lint -- contract-enforcing static analysis for this tree.
//
// The project's hard invariants (ROADMAP.md) are enforced here as
// named, individually-suppressible rules over a comment/string-aware
// token stream; see src/lint/rules.h for the rule table and the
// suppression syntax, and README.md "Static analysis" for usage.
//
//   inspector_lint                      lint src/ under the repo root
//   inspector_lint --check-fixtures D   self-test against the fixture
//                                         corpus (tier-1 ctest)
//   inspector_lint --write-baseline     emit baseline lines for the
//                                         current findings
//
// Exit status: 0 clean, 1 findings, 2 usage or IO error.
//
// lint: allow-file(finalizer-purity) findings print to stdout by design; this tool is not a serving path
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/driver.h"

namespace {

int usage() {
  std::cerr
      << "usage: inspector_lint [options]\n"
         "  --root DIR          repository root (default: .)\n"
         "  --scan DIR          repo-relative directory to scan\n"
         "                      (repeatable; default: src)\n"
         "  --baseline FILE     residue baseline (default:\n"
         "                      <root>/tools/lint_baseline.txt if present)\n"
         "  --no-baseline       ignore the baseline file\n"
         "  --check-fixtures D  self-test the rules against fixture dir D\n"
         "  --write-baseline    print baseline lines for current findings\n"
         "  --list-rules        print the enforced rule names\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  inspector::lint::RunOptions options;
  options.scan_dirs.clear();
  bool write_baseline = false;
  bool no_baseline = false;
  std::string fixtures_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "inspector_lint: " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const char* v = value();
      if (!v) return usage();
      options.repo_root = v;
    } else if (arg == "--scan") {
      const char* v = value();
      if (!v) return usage();
      options.scan_dirs.push_back(v);
    } else if (arg == "--baseline") {
      const char* v = value();
      if (!v) return usage();
      options.baseline_path = v;
    } else if (arg == "--no-baseline") {
      no_baseline = true;
    } else if (arg == "--check-fixtures") {
      const char* v = value();
      if (!v) return usage();
      fixtures_dir = v;
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--list-rules") {
      for (const std::string_view rule : inspector::lint::all_rules()) {
        std::cout << rule << "\n";
      }
      return 0;
    } else {
      std::cerr << "inspector_lint: unknown option " << arg << "\n";
      return usage();
    }
  }

  if (!fixtures_dir.empty()) {
    const int failures = inspector::lint::check_fixtures(fixtures_dir,
                                                         std::cerr);
    if (failures == 0) {
      std::cerr << "inspector_lint: fixture corpus clean\n";
      return 0;
    }
    std::cerr << "inspector_lint: " << failures << " fixture failure(s)\n";
    return 1;
  }

  if (options.scan_dirs.empty()) options.scan_dirs = {"src", "tools"};
  if (options.baseline_path.empty() && !no_baseline) {
    const std::string candidate =
        options.repo_root + "/tools/lint_baseline.txt";
    if (std::ifstream(candidate).good()) options.baseline_path = candidate;
  }
  if (no_baseline) options.baseline_path.clear();

  const inspector::lint::RunResult result = inspector::lint::run_tree(options);
  if (result.files_scanned == 0) {
    std::cerr << "inspector_lint: nothing to scan under "
              << options.repo_root << "\n";
    return 2;
  }

  if (write_baseline) {
    for (const std::string& key : result.finding_keys) {
      std::cout << key << "\n";
    }
    return result.findings.empty() ? 0 : 1;
  }

  inspector::lint::print_findings(result.findings, std::cout);
  for (const std::string& stale : result.stale_baseline) {
    std::cerr << "inspector_lint: stale baseline entry (prune it): " << stale
              << "\n";
  }
  std::cerr << "inspector_lint: " << result.files_scanned << " files, "
            << result.findings.size() << " finding(s), " << result.baselined
            << " baselined\n";
  return result.findings.empty() ? 0 : 1;
}
