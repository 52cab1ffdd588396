#include "lint/driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

namespace inspector::lint {
namespace {

namespace fs = std::filesystem;

bool has_cpp_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".cc" || ext == ".hpp";
}

/// Read a whole file; empty optional-style flag via `ok`.
std::string read_file(const fs::path& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ok = true;
  return std::move(buf).str();
}

/// Repo-relative path with forward slashes, for stable finding paths.
std::string relative_path(const fs::path& root, const fs::path& file) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  if (ec) rel = file;
  return rel.generic_string();
}

std::string_view source_line(const LexedFile& file, std::uint32_t line) {
  std::uint32_t current = 1;
  std::size_t begin = 0;
  const std::string& s = file.content;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == '\n') {
      if (current == line) {
        return std::string_view(s.data() + begin, i - begin);
      }
      ++current;
      begin = i + 1;
    }
  }
  return std::string_view();
}

/// The format-version findings over a diff, less those whose own file
/// carries a justified `lint: allow(format-version-discipline)` on the
/// finding's line (the first touched line of the file's serialize
/// functions). An annotation's own faults were already reported when
/// the file was scanned, so only the version findings come back.
std::vector<Finding> version_findings(
    const std::vector<DiffTouch>& diff,
    const std::function<const LexedFile*(const std::string&)>& lookup) {
  std::vector<Finding> out;
  for (Finding& f : check_format_version(diff, lookup)) {
    const LexedFile* lexed = lookup(f.path);
    bool kept = lexed == nullptr;
    if (lexed != nullptr) {
      for (const Finding& k : apply_suppressions(*lexed, {f})) {
        kept = kept || k.rule == f.rule;
      }
    }
    if (kept) out.push_back(std::move(f));
  }
  return out;
}

}  // namespace

std::string normalize_line(std::string_view line) {
  std::string out;
  bool in_space = true;  // leading whitespace trims
  for (const char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string baseline_key(const Finding& finding, const LexedFile& file) {
  return finding.rule + "\t" + finding.path + "\t" +
         normalize_line(source_line(file, finding.line));
}

void print_findings(const std::vector<Finding>& findings, std::ostream& os) {
  for (const Finding& f : findings) {
    os << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  }
}

RunResult run_tree(const RunOptions& options) {
  RunResult result;

  // Baseline: multiset of keys; one finding consumes one entry.
  std::multiset<std::string> baseline;
  if (!options.baseline_path.empty()) {
    std::ifstream in(options.baseline_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      baseline.insert(line);
    }
  }

  std::vector<fs::path> files;
  for (const std::string& dir : options.scan_dirs) {
    const fs::path root = fs::path(options.repo_root) / dir;
    std::error_code ec;
    fs::recursive_directory_iterator it(root, ec);
    const fs::recursive_directory_iterator end;
    for (; !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file(ec) && has_cpp_extension(it->path())) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());

  // Lexed files are kept for the diff rule's working-tree lookup.
  std::map<std::string, LexedFile> lexed_by_path;
  for (const fs::path& file : files) {
    bool ok = false;
    std::string content = read_file(file, ok);
    if (!ok) continue;
    const std::string rel = relative_path(options.repo_root, file);
    LexedFile lexed = lex(rel, std::move(content));
    ++result.files_scanned;

    std::vector<Finding> findings =
        apply_suppressions(lexed, run_rules(lexed));
    for (Finding& f : findings) {
      std::string key = baseline_key(f, lexed);
      const auto hit = baseline.find(key);
      if (hit != baseline.end()) {
        baseline.erase(hit);
        ++result.baselined;
        continue;
      }
      result.findings.push_back(std::move(f));
      result.finding_keys.push_back(std::move(key));
    }
    lexed_by_path.emplace(rel, std::move(lexed));
  }

  if (!options.diff_text.empty()) {
    const std::vector<DiffTouch> diff = parse_unified_diff(options.diff_text);
    auto lookup = [&](const std::string& path) -> const LexedFile* {
      const auto it = lexed_by_path.find(path);
      if (it != lexed_by_path.end()) return &it->second;
      // The diff may touch a file outside scan_dirs; load it directly.
      bool ok = false;
      std::string content =
          read_file(fs::path(options.repo_root) / path, ok);
      if (!ok) return nullptr;
      const auto inserted =
          lexed_by_path.emplace(path, lex(path, std::move(content)));
      return &inserted.first->second;
    };
    for (Finding& f : version_findings(diff, lookup)) {
      const auto lexed_it = lexed_by_path.find(f.path);
      result.finding_keys.push_back(
          lexed_it == lexed_by_path.end()
              ? f.rule + "\t" + f.path + "\t"
              : baseline_key(f, lexed_it->second));
      result.findings.push_back(std::move(f));
    }
  }

  result.stale_baseline.assign(baseline.begin(), baseline.end());
  // Sort findings (and their baseline keys, index-aligned) by location.
  std::vector<std::size_t> order(result.findings.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Finding& fa = result.findings[a];
    const Finding& fb = result.findings[b];
    if (fa.path != fb.path) return fa.path < fb.path;
    if (fa.line != fb.line) return fa.line < fb.line;
    return fa.rule < fb.rule;
  });
  std::vector<Finding> sorted_findings;
  std::vector<std::string> sorted_keys;
  sorted_findings.reserve(order.size());
  sorted_keys.reserve(order.size());
  for (const std::size_t i : order) {
    sorted_findings.push_back(std::move(result.findings[i]));
    sorted_keys.push_back(std::move(result.finding_keys[i]));
  }
  result.findings = std::move(sorted_findings);
  result.finding_keys = std::move(sorted_keys);
  return result;
}

// --- fixtures ---------------------------------------------------------

namespace {

/// Pull `TAG: value` out of a fixture's comments (first match).
std::string comment_value(const LexedFile& file, std::string_view tag) {
  for (const Comment& c : file.comments) {
    const std::size_t at = c.text.find(tag);
    if (at == std::string_view::npos) continue;
    std::string_view rest = c.text.substr(at + tag.size());
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == ':'))
      rest.remove_prefix(1);
    const std::size_t end = rest.find(' ');
    return std::string(end == std::string_view::npos ? rest
                                                     : rest.substr(0, end));
  }
  return {};
}

/// Expected findings: `EXPECT: rule` comments, trailing = same line,
/// whole-line = next code line (mirrors the allow() annotation scope).
std::multiset<std::pair<std::uint32_t, std::string>> expected_findings(
    const LexedFile& file) {
  std::multiset<std::pair<std::uint32_t, std::string>> out;
  auto next_code_line = [&](std::uint32_t after) -> std::uint32_t {
    for (const Token& t : file.tokens) {
      if (t.line > after) return t.line;
    }
    return 0;
  };
  for (const Comment& c : file.comments) {
    const std::string_view tag = "EXPECT:";
    const std::size_t at = c.text.find(tag);
    if (at == std::string_view::npos) continue;
    std::string_view rest = c.text.substr(at + tag.size());
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    const std::size_t end = rest.find(' ');
    const std::string rule(end == std::string_view::npos ? rest
                                                         : rest.substr(0, end));
    const std::uint32_t line = c.trailing ? c.line : next_code_line(c.line);
    if (line != 0 && !rule.empty()) out.emplace(line, rule);
  }
  return out;
}

}  // namespace

int check_fixtures(const std::string& fixtures_dir, std::ostream& log) {
  namespace fs = std::filesystem;
  int failures = 0;

  std::vector<fs::path> sources;
  std::vector<fs::path> diffs;
  std::error_code ec;
  fs::directory_iterator it(fixtures_dir, ec);
  if (ec) {
    log << "lint fixtures: cannot open " << fixtures_dir << "\n";
    return 1;
  }
  const fs::directory_iterator end;
  for (; it != end; it.increment(ec)) {
    const fs::path& p = it->path();
    if (p.extension() == ".diff") {
      diffs.push_back(p);
    } else if (p.extension() == ".cc") {
      sources.push_back(p);
    }
  }
  std::sort(sources.begin(), sources.end());
  std::sort(diffs.begin(), diffs.end());
  if (sources.empty()) {
    log << "lint fixtures: no *.cc fixtures in " << fixtures_dir << "\n";
    return 1;
  }

  // Pretend files double as the diff rule's working tree.
  std::map<std::string, LexedFile> pretend;
  for (const fs::path& path : sources) {
    bool ok = false;
    std::string content = read_file(path, ok);
    if (!ok) {
      log << "lint fixtures: cannot read " << path.string() << "\n";
      ++failures;
      continue;
    }
    LexedFile probe = lex(path.filename().string(), std::move(content));
    std::string pretend_path = comment_value(probe, "LINT-PATH");
    if (pretend_path.empty()) {
      log << "lint fixtures: " << path.string()
          << " has no `LINT-PATH:` declaration\n";
      ++failures;
      continue;
    }
    LexedFile lexed = lex(pretend_path, std::move(probe.content));

    const auto expected = expected_findings(lexed);
    std::multiset<std::pair<std::uint32_t, std::string>> actual;
    for (const Finding& f : apply_suppressions(lexed, run_rules(lexed))) {
      actual.emplace(f.line, f.rule);
    }
    if (expected != actual) {
      ++failures;
      log << "lint fixtures: " << path.filename().string() << " (as "
          << pretend_path << ") mismatch\n";
      for (const auto& [line, rule] : expected) {
        if (actual.count({line, rule}) < expected.count({line, rule})) {
          log << "  expected but not found: line " << line << " [" << rule
              << "]\n";
        }
      }
      for (const auto& [line, rule] : actual) {
        if (expected.count({line, rule}) < actual.count({line, rule})) {
          log << "  found but not expected: line " << line << " [" << rule
              << "]\n";
        }
      }
    }
    pretend.emplace(pretend_path, std::move(lexed));
  }

  for (const fs::path& path : diffs) {
    bool ok = false;
    const std::string content = read_file(path, ok);
    if (!ok) {
      log << "lint fixtures: cannot read " << path.string() << "\n";
      ++failures;
      continue;
    }
    // `# EXPECT: rule` lines declare how many findings the diff earns.
    std::size_t expected = 0;
    std::istringstream lines(content);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("# EXPECT:", 0) == 0) ++expected;
    }
    auto lookup = [&](const std::string& p) -> const LexedFile* {
      const auto found = pretend.find(p);
      return found == pretend.end() ? nullptr : &found->second;
    };
    const std::vector<Finding> findings =
        version_findings(parse_unified_diff(content), lookup);
    if (findings.size() != expected) {
      ++failures;
      log << "lint fixtures: " << path.filename().string() << " expected "
          << expected << " format-version finding(s), got " << findings.size()
          << "\n";
      print_findings(findings, log);
    }
  }
  return failures;
}

}  // namespace inspector::lint
