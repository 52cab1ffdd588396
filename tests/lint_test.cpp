// inspector_lint internals: the lexer's comment/string/preprocessor
// handling (the property that separates token-pattern linting from
// regex-over-text), function-extent extraction, each rule family on
// inline sources, the suppression annotations, and the baseline
// machinery via run_tree over a temp tree. The checked-in fixture
// corpus (tests/data/lint, ctest `lint_fixtures`) covers the
// end-to-end rule behavior; these tests pin the pieces.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/driver.h"
#include "lint/lexer.h"
#include "lint/rules.h"

namespace {

using namespace inspector::lint;

std::vector<Finding> lint(const std::string& path, const std::string& src) {
  const LexedFile lexed = lex(path, src);
  return apply_suppressions(lexed, run_rules(lexed));
}

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  for (const Finding& f : findings) out.push_back(f.rule);
  return out;
}

// --- lexer -----------------------------------------------------------

TEST(LintLexer, SeparatesCommentsFromTokens) {
  const LexedFile f = lex("x.cpp",
                          "int a = 1;  // trailing note\n"
                          "// whole-line note\n"
                          "int b = 2;\n");
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_EQ(f.comments[0].text, "trailing note");
  EXPECT_TRUE(f.comments[0].trailing);
  EXPECT_EQ(f.comments[0].line, 1u);
  EXPECT_EQ(f.comments[1].text, "whole-line note");
  EXPECT_FALSE(f.comments[1].trailing);
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text.find("note"), 0u);
  }
}

TEST(LintLexer, StringsAndCharsAreOpaque) {
  const LexedFile f = lex("x.cpp",
                          "const char* s = \"throw ::open(\";\n"
                          "char q = '\\'';\n");
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kIdent) {
      EXPECT_NE(t.text, "throw");
      EXPECT_NE(t.text, "open");
    }
  }
  const auto str = std::find_if(f.tokens.begin(), f.tokens.end(),
                                [](const Token& t) {
                                  return t.kind == TokKind::kString;
                                });
  ASSERT_NE(str, f.tokens.end());
  EXPECT_EQ(str->text, "\"throw ::open(\"");
}

TEST(LintLexer, RawStringsWithDelimiters) {
  const LexedFile f = lex("x.cpp",
                          "auto s = R\"delim(contains )\" and ::fsync(fd) "
                          "and\nnewlines)delim\";\nint after = 3;\n");
  bool saw_fsync = false;
  bool saw_after = false;
  for (const Token& t : f.tokens) {
    if (t.kind != TokKind::kIdent) continue;
    saw_fsync = saw_fsync || t.text == "fsync";
    if (t.text == "after") {
      saw_after = true;
      EXPECT_EQ(t.line, 3u);  // the raw string spanned lines 1-2
    }
  }
  EXPECT_FALSE(saw_fsync);
  EXPECT_TRUE(saw_after);
}

TEST(LintLexer, PreprocessorLinesAreOneOpaqueToken) {
  const LexedFile f = lex("x.cpp",
                          "#define WRAP(x) \\\n  ::open(x)\n"
                          "int y = 0;\n");
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens[0].kind, TokKind::kPreprocessor);
  // The continuation folded into the directive; `open` never tokenizes.
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kIdent) EXPECT_NE(t.text, "open");
  }
}

TEST(LintLexer, DigitSeparatorsStayOneNumber) {
  const LexedFile f = lex("x.cpp", "long n = 1'000'000;\n");
  const auto num = std::find_if(f.tokens.begin(), f.tokens.end(),
                                [](const Token& t) {
                                  return t.kind == TokKind::kNumber;
                                });
  ASSERT_NE(num, f.tokens.end());
  EXPECT_EQ(num->text, "1'000'000");
}

TEST(LintLexer, DocCommentExamplesKeepTheirSlashes) {
  // `/// // lint: ...` must not strip down to a live annotation.
  const LexedFile f = lex("x.cpp", "/// // lint: allow(x) example\nint a;\n");
  ASSERT_EQ(f.comments.size(), 1u);
  EXPECT_EQ(f.comments[0].text.substr(0, 2), "//");
}

// --- function extents ------------------------------------------------

TEST(LintExtents, QualifiedNamesAndBodies) {
  const LexedFile f = lex("x.cpp",
                          "void Dispatcher::write_loop(int n) {\n"
                          "  run(n);\n"
                          "}\n"
                          "int free_fn();\n"  // declaration: no extent
                          "int other() { return 2; }\n");
  const auto extents = function_extents(f);
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0].name, "Dispatcher::write_loop");
  EXPECT_EQ(extents[0].begin_line, 1u);
  EXPECT_EQ(extents[0].end_line, 3u);
  EXPECT_EQ(extents[1].name, "other");
}

TEST(LintExtents, ConstructorInitializerList) {
  const LexedFile f = lex("x.cpp",
                          "Worker::Worker(int n)\n"
                          "    : count_(n), name_{\"w\"} {\n"
                          "  start();\n"
                          "}\n");
  const auto extents = function_extents(f);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].name, "Worker::Worker");
  EXPECT_EQ(extents[0].end_line, 4u);
}

// --- rules on inline sources ----------------------------------------

TEST(LintRules, ThrowOnlyInsideBoundaryDirs) {
  const std::string src = "void f(){ throw 1; }\n";
  EXPECT_EQ(rules_of(lint("src/query/x.cpp", src)),
            std::vector<std::string>{std::string(kRuleNoThrow)});
  EXPECT_TRUE(lint("src/cpg/x.cpp", src).empty());
}

TEST(LintRules, ReturnGlobalQualifiedCallIsStillRaw) {
  const auto findings = lint("src/shard/x.cpp",
                             "int f(const char* p){ return ::open(p, 0); }\n");
  EXPECT_EQ(rules_of(findings),
            std::vector<std::string>{std::string(kRuleFailpointSeam)});
}

TEST(LintRules, MethodNamedOpenIsNotASyscall) {
  EXPECT_TRUE(lint("src/shard/x.cpp",
                   "void f(Store& s, const char* p){ s.open(p); "
                   "Store::open(p); }\n")
                  .empty());
}

TEST(LintRules, ChronoSystemClockIsWallClock) {
  const auto findings =
      lint("src/query/x.cpp",
           "auto f(){ return std::chrono::system_clock::now(); }\n");
  EXPECT_EQ(rules_of(findings),
            std::vector<std::string>{std::string(kRuleDeterminism)});
  EXPECT_TRUE(lint("src/query/x.cpp",
                   "auto f(){ return std::chrono::steady_clock::now(); }\n")
                  .empty());
}

TEST(LintRules, UnorderedIterationNeedsDeclaredName) {
  const std::string src =
      "int f(){ std::unordered_map<int,int> m;\n"
      "int t = 0; for (const auto& kv : m) t += kv.second; return t; }\n";
  const auto findings = lint("src/query/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleDeterminism);
  EXPECT_EQ(findings[0].line, 2u);
  // A std::map with the same shape is fine.
  EXPECT_TRUE(lint("src/query/x.cpp",
                   "int f(){ std::map<int,int> m;\n"
                   "int t = 0; for (const auto& kv : m) t += kv.second; "
                   "return t; }\n")
                  .empty());
}

TEST(LintRules, EmissionOnlyFlaggedInFinalizerPhase) {
  const std::string in_loop =
      "void Dispatcher::write_loop(){ span->finish(); }\n";
  const std::string outside = "void Dispatcher::teardown(){ span->finish(); }\n";
  EXPECT_EQ(rules_of(lint("src/net/x.cpp", in_loop)),
            std::vector<std::string>{std::string(kRuleFinalizerPurity)});
  EXPECT_TRUE(lint("src/net/x.cpp", outside).empty());
  // Outside src/net/ + src/query/ the finalizer scan does not apply.
  EXPECT_TRUE(lint("src/shard/x.cpp", in_loop).empty());
}

// --- suppressions ----------------------------------------------------

TEST(LintSuppress, TrailingAndWholeLineAllow) {
  EXPECT_TRUE(lint("src/query/x.cpp",
                   "void f(){ throw 1; }  "
                   "// lint: allow(no-throw-across-boundary) documented\n")
                  .empty());
  EXPECT_TRUE(lint("src/query/x.cpp",
                   "// lint: allow(no-throw-across-boundary) documented\n"
                   "void f(){ throw 1; }\n")
                  .empty());
}

TEST(LintSuppress, AllowOnWrongLineDoesNotSuppress) {
  const auto findings =
      lint("src/query/x.cpp",
           "// lint: allow(no-throw-across-boundary) too far away\n"
           "int unrelated = 0;\n"
           "void f(){ throw 1; }\n");
  EXPECT_EQ(rules_of(findings),
            std::vector<std::string>{std::string(kRuleNoThrow)});
}

TEST(LintSuppress, MissingJustificationIsAFinding) {
  const auto findings = lint(
      "src/query/x.cpp",
      "void f(){ throw 1; }  // lint: allow(no-throw-across-boundary)\n");
  auto rules = rules_of(findings);
  std::sort(rules.begin(), rules.end());
  EXPECT_EQ(rules, (std::vector<std::string>{std::string(kRuleAnnotation),
                                             std::string(kRuleNoThrow)}));
}

TEST(LintSuppress, UnknownRuleIsAFinding) {
  const auto findings =
      lint("src/cpg/x.cpp", "int a = 0;  // lint: allow(no-such-rule) why\n");
  EXPECT_EQ(rules_of(findings),
            std::vector<std::string>{std::string(kRuleAnnotation)});
}

TEST(LintSuppress, AllowFileCoversOneRuleOnly) {
  const auto findings =
      lint("src/shard/x.cpp",
           "// lint: allow-file(failpoint-seam) designated seam helper\n"
           "int f(const char* p){ return ::open(p, 0); }\n"
           "void g(){ throw 1; }\n");
  EXPECT_EQ(rules_of(findings),
            std::vector<std::string>{std::string(kRuleNoThrow)});
}

// --- baseline machinery via run_tree ---------------------------------

class LintTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("lint_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_ / "src" / "query");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) {
    std::ofstream out(root_ / rel, std::ios::trunc);
    out << content;
  }

  std::filesystem::path root_;
};

TEST_F(LintTreeTest, FindingsAndKeysStayAligned) {
  write("src/query/a.cpp", "void f(){ throw 1; }\n");
  RunOptions options;
  options.repo_root = root_.string();
  const RunResult result = run_tree(options);
  ASSERT_EQ(result.findings.size(), 1u);
  ASSERT_EQ(result.finding_keys.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, kRuleNoThrow);
  EXPECT_EQ(result.finding_keys[0],
            std::string(kRuleNoThrow) +
                "\tsrc/query/a.cpp\tvoid f(){ throw 1; }");
}

TEST_F(LintTreeTest, BaselineAbsorbsAndReportsStale) {
  write("src/query/a.cpp", "void f(){ throw 1; }\n");
  write("baseline.txt",
        "# residue, keyed by rule<TAB>path<TAB>normalized line\n" +
            std::string(kRuleNoThrow) +
            "\tsrc/query/a.cpp\tvoid f(){ throw 1; }\n" +
            std::string(kRuleNoThrow) + "\tsrc/query/gone.cpp\tthrow 2;\n");
  RunOptions options;
  options.repo_root = root_.string();
  options.baseline_path = (root_ / "baseline.txt").string();
  const RunResult result = run_tree(options);
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.baselined, 1u);
  ASSERT_EQ(result.stale_baseline.size(), 1u);
  EXPECT_NE(result.stale_baseline[0].find("gone.cpp"), std::string::npos);
}

TEST_F(LintTreeTest, BaselineSurvivesReindentation) {
  // The key normalizes whitespace, so a reindent does not invalidate it.
  write("src/query/a.cpp", "void f(){\n      throw 1;\n}\n");
  write("baseline.txt",
        std::string(kRuleNoThrow) + "\tsrc/query/a.cpp\tthrow 1;\n");
  RunOptions options;
  options.repo_root = root_.string();
  options.baseline_path = (root_ / "baseline.txt").string();
  const RunResult result = run_tree(options);
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.baselined, 1u);
  EXPECT_TRUE(result.stale_baseline.empty());
}

TEST(LintNormalize, CollapsesWhitespace) {
  EXPECT_EQ(normalize_line("  a \t b  "), "a b");
  EXPECT_EQ(normalize_line("\t"), "");
}

}  // namespace
