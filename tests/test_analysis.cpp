// Unit tests for the analyzer (tools/lint/) behind redund_lint. The
// linter's own --self-test pins end-to-end rule behaviour on fixture
// files; these tests pin the layers underneath — scrubber, tokenizer,
// function parser, call graph, attribute fixpoint — at API granularity,
// where a regression would otherwise only show up as a mysteriously
// silent rule.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/attributes.hpp"
#include "lint/callgraph.hpp"
#include "lint/parse.hpp"
#include "lint/project.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"

namespace redund::lint {
namespace {

// ---------------------------------------------------------------------
// Scrubber.

TEST(ScrubSource, StripsLineCommentsKeepsCodeColumns) {
  const auto lines = scrub_source("int x = 1;  // trailing note\n");
  ASSERT_EQ(lines.size(), 2U);  // Final newline yields an empty last line.
  // Code keeps its original columns; the comment text moves to `comment`.
  EXPECT_EQ(lines[0].code.substr(0, 10), "int x = 1;");
  EXPECT_EQ(lines[0].code.find("trailing"), std::string::npos);
  EXPECT_NE(lines[0].comment.find("trailing note"), std::string::npos);
}

TEST(ScrubSource, BlockCommentSpansLines) {
  const auto lines = scrub_source("int a; /* one\ntwo */ int b;\n");
  ASSERT_GE(lines.size(), 2U);
  EXPECT_EQ(lines[0].code.find("one"), std::string::npos);
  EXPECT_EQ(lines[1].code.find("two"), std::string::npos);
  EXPECT_NE(lines[1].code.find("int b;"), std::string::npos);
}

TEST(ScrubSource, StringLiteralsAreBlanked) {
  const auto lines = scrub_source(
      "const char* s = \"new int[4] // not code\"; int y;\n");
  EXPECT_EQ(lines[0].code.find("new int"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int y;"), std::string::npos);
  // A string is not a comment.
  EXPECT_EQ(lines[0].comment.find("not code"), std::string::npos);
}

TEST(ScrubSource, EscapedQuoteDoesNotEndString) {
  const auto lines = scrub_source("auto s = \"a\\\"b\"; f();\n");
  EXPECT_NE(lines[0].code.find("f();"), std::string::npos);
  EXPECT_EQ(lines[0].code.find("a\\"), std::string::npos);
}

TEST(ScrubSource, RawStringWithDelimiterSpansLines) {
  // The )x" inside the body must not terminate the raw string; only the
  // matching )delim" does.
  const auto lines = scrub_source(
      "auto s = R\"delim(line )x\" one\nline two)delim\"; g();\n");
  ASSERT_GE(lines.size(), 2U);
  EXPECT_EQ(lines[0].code.find("one"), std::string::npos);
  EXPECT_EQ(lines[1].code.find("two"), std::string::npos);
  EXPECT_NE(lines[1].code.find("g();"), std::string::npos);
}

TEST(ScrubSource, CharLiteralQuoteDoesNotOpenString) {
  const auto lines = scrub_source("char c = '\"'; h();\n");
  EXPECT_NE(lines[0].code.find("h();"), std::string::npos);
}

// ---------------------------------------------------------------------
// Annotation and suppression parsing.

TEST(HasAnnotation, MatchesStandaloneAnnotation) {
  EXPECT_TRUE(has_annotation(" redund: hot", "hot"));
  EXPECT_TRUE(has_annotation("redund: deterministic", "deterministic"));
  // Doc-comment decoration before the marker is fine.
  EXPECT_TRUE(has_annotation("/// redund: hot", "hot"));
  // Trailing prose after the kind is fine.
  EXPECT_TRUE(has_annotation(" redund: hot -- event loop body", "hot"));
}

TEST(HasAnnotation, RejectsMentionsAndPrefixes) {
  // A sentence that merely mentions the marker must not annotate.
  EXPECT_FALSE(has_annotation(" Maps `// redund: hot` comments onto fns", "hot"));
  // Kind must match as a whole word.
  EXPECT_FALSE(has_annotation(" redund: hotter", "hot"));
  EXPECT_FALSE(has_annotation(" redund: deterministically", "deterministic"));
  EXPECT_FALSE(has_annotation(" redund-lint: allow(hot-alloc)", "hot"));
}

TEST(AllowedRules, ParsesLists) {
  const auto rules = allowed_rules(" redund-lint: allow(hot-alloc, guarded-by)");
  ASSERT_EQ(rules.size(), 2U);
  EXPECT_EQ(rules[0], "hot-alloc");
  EXPECT_EQ(rules[1], "guarded-by");
  EXPECT_TRUE(allowed_rules("plain comment").empty());
}

TEST(SourceFile, AllowsOnLineAndLineAbove) {
  const SourceFile src = SourceFile::parse(
      "x.cpp",
      "// redund-lint: allow(hot-alloc)\n"
      "v.push_back(1);\n"
      "v.push_back(2);\n");
  EXPECT_TRUE(src.allows(1, "hot-alloc"));   // Line above carries it.
  EXPECT_FALSE(src.allows(2, "hot-alloc"));  // Two lines below does not.
  EXPECT_FALSE(src.allows(1, "guarded-by"));
}

// ---------------------------------------------------------------------
// Tokenizer.

std::vector<Token> tokens_of(const std::string& text) {
  return tokenize(scrub_source(text));
}

TEST(Tokenize, FusesScopeAndArrow) {
  const auto toks = tokens_of("a->b; std::vector<int> v;\n");
  auto has = [&](const std::string& t) {
    return std::any_of(toks.begin(), toks.end(),
                       [&](const Token& tok) { return tok.text == t; });
  };
  EXPECT_TRUE(has("->"));
  EXPECT_TRUE(has("::"));
  EXPECT_FALSE(has(":"));  // No stray half of the fused tokens.
}

TEST(Tokenize, SkipsPreprocessorLinesAndContinuations) {
  const auto toks = tokens_of(
      "#define GROW(v) \\\n"
      "  v.push_back(0)\n"
      "int after;\n");
  // Neither the directive nor its continuation line tokenizes.
  for (const Token& t : toks) {
    EXPECT_NE(t.text, "GROW");
    EXPECT_NE(t.text, "push_back");
  }
  ASSERT_GE(toks.size(), 2U);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].line, 2U);
}

TEST(Tokenize, BlankedRegionsYieldNoTokens) {
  const auto toks = tokens_of("f(\"ident_inside\"); // ident_in_comment\n");
  for (const Token& t : toks) {
    EXPECT_NE(t.text, "ident_inside");
    EXPECT_NE(t.text, "ident_in_comment");
  }
}

// ---------------------------------------------------------------------
// Function extraction.

TEST(ParseFile, ExtractsQualifiedNamesThroughScopes) {
  const ParsedFile pf = parse_file("x.cpp",
      "namespace outer {\n"
      "class Widget {\n"
      " public:\n"
      "  int size() const { return n_; }\n"
      " private:\n"
      "  int n_ = 0;\n"
      "};\n"
      "int free_fn(int a) { return a; }\n"
      "}  // namespace outer\n");
  ASSERT_EQ(pf.functions.size(), 2U);
  EXPECT_EQ(pf.functions[0].qualified, "outer::Widget::size");
  EXPECT_EQ(pf.functions[0].class_name, "Widget");
  EXPECT_EQ(pf.functions[1].qualified, "outer::free_fn");
  EXPECT_EQ(pf.functions[1].class_name, "");
}

TEST(ParseFile, TemplateHeaderAndTrailingReturnType) {
  const ParsedFile pf = parse_file("x.cpp",
      "template <typename T>\n"
      "auto twice(T v) -> decltype(v + v) {\n"
      "  return v + v;\n"
      "}\n");
  ASSERT_EQ(pf.functions.size(), 1U);
  EXPECT_EQ(pf.functions[0].name, "twice");
  EXPECT_TRUE(pf.functions[0].has_body);
}

TEST(ParseFile, OperatorOverload) {
  const ParsedFile pf = parse_file("x.cpp",
      "struct V {\n"
      "  V operator+(const V& o) const { return o; }\n"
      "  bool operator()(int a) const { return a > 0; }\n"
      "};\n");
  ASSERT_EQ(pf.functions.size(), 2U);
  EXPECT_EQ(pf.functions[0].name, "operator+");
  EXPECT_EQ(pf.functions[1].name, "operator()");
}

TEST(ParseFile, CtorWithInitListAndDtor) {
  const ParsedFile pf = parse_file("x.cpp",
      "class Pool {\n"
      " public:\n"
      "  Pool(int n) : n_(n), data_(nullptr) { open(); }\n"
      "  ~Pool() { close(); }\n"
      " private:\n"
      "  int n_; void* data_;\n"
      "};\n");
  ASSERT_EQ(pf.functions.size(), 2U);
  EXPECT_TRUE(pf.functions[0].is_ctor);
  EXPECT_TRUE(pf.functions[1].is_dtor);
}

TEST(ParseFile, NestedLambdaLinesBelongToEnclosingFunction) {
  const ParsedFile pf = parse_file("x.cpp",
      "void driver() {\n"
      "  auto task = [&](int i) {\n"
      "    auto inner = [&] { return i; };\n"
      "    inner();\n"
      "  };\n"
      "  task(1);\n"
      "}\n");
  ASSERT_EQ(pf.functions.size(), 1U);
  EXPECT_EQ(pf.functions[0].name, "driver");
  EXPECT_EQ(pf.tokens[pf.functions[0].body_open].line, 0U);
  EXPECT_EQ(pf.tokens[pf.functions[0].body_close].line, 6U);
}

TEST(ParseFile, HotAndDeterministicAnnotationsBind) {
  const ParsedFile pf = parse_file("x.cpp",
      "// redund: hot\n"
      "void loop() { step(); }\n"
      "// redund: deterministic\n"
      "void emit() { write(); }\n"
      "void plain() {}\n");
  ASSERT_EQ(pf.functions.size(), 3U);
  EXPECT_TRUE(pf.functions[0].hot);
  EXPECT_FALSE(pf.functions[0].deterministic);
  EXPECT_TRUE(pf.functions[1].deterministic);
  EXPECT_FALSE(pf.functions[2].hot);
  EXPECT_FALSE(pf.functions[2].deterministic);
}

TEST(ParseFile, QualifiedLockGuardOpensRegion) {
  const ParsedFile pf = parse_file("x.cpp",
      "void f() {\n"
      "  before();\n"
      "  {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    inside();\n"
      "  }\n"
      "  after();\n"
      "}\n");
  ASSERT_EQ(pf.functions.size(), 1U);
  const FunctionInfo& fn = pf.functions[0];
  ASSERT_EQ(fn.lock_regions.size(), 1U);
  EXPECT_EQ(fn.lock_regions[0].mutex, "mu_");
  EXPECT_TRUE(fn.holds_at("mu_", 4));    // inside()
  EXPECT_FALSE(fn.holds_at("mu_", 1));   // before()
  EXPECT_FALSE(fn.holds_at("mu_", 6));   // after() — scope closed.
  // The guard constructor itself must not be recorded as a call edge.
  for (const CallSite& c : fn.calls) EXPECT_EQ(c.name.find("lock_guard"),
                                               std::string::npos);
}

TEST(ParseFile, GuardArgumentLastComponent) {
  const ParsedFile pf = parse_file("x.cpp",
      "void f() {\n"
      "  std::unique_lock<std::mutex> lk(worker.mutex, std::try_to_lock);\n"
      "  g();\n"
      "}\n");
  ASSERT_EQ(pf.functions.size(), 1U);
  ASSERT_EQ(pf.functions[0].lock_regions.size(), 1U);
  // "worker.mutex" reduces to its last component; the lock tag is skipped.
  EXPECT_EQ(pf.functions[0].lock_regions[0].mutex, "mutex");
}

TEST(ParseFile, GuardedFieldMap) {
  const ParsedFile pf = parse_file("x.hpp",
      "struct Q {\n"
      "  std::mutex m;\n"
      "  std::deque<int> items REDUND_GUARDED_BY(m);\n"
      "};\n");
  ASSERT_EQ(pf.guarded_fields.size(), 1U);
  EXPECT_EQ(pf.guarded_fields[0].class_name, "Q");
  EXPECT_EQ(pf.guarded_fields[0].field, "items");
  EXPECT_EQ(pf.guarded_fields[0].mutex, "m");
}

TEST(ParseFile, CallSitesRecordLoopContext) {
  const ParsedFile pf = parse_file("x.cpp",
      "void f() {\n"
      "  setup();\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    body(i);\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(pf.functions.size(), 1U);
  bool saw_setup = false;
  bool saw_body = false;
  for (const CallSite& c : pf.functions[0].calls) {
    if (c.name == "setup") {
      saw_setup = true;
      EXPECT_FALSE(c.in_loop);
    }
    if (c.name == "body") {
      saw_body = true;
      EXPECT_TRUE(c.in_loop);
    }
  }
  EXPECT_TRUE(saw_setup);
  EXPECT_TRUE(saw_body);
}

// ---------------------------------------------------------------------
// Call graph.

TEST(QualifiedSuffixMatch, ComponentSuffixes) {
  EXPECT_TRUE(qualified_suffix_match("ns::Class::f", "f"));
  EXPECT_TRUE(qualified_suffix_match("ns::Class::f", "Class::f"));
  EXPECT_TRUE(qualified_suffix_match("ns::Class::f", "ns::Class::f"));
  EXPECT_FALSE(qualified_suffix_match("ns::Class::f", "Other::f"));
  // Whole-component semantics: "ss::f" is not a suffix of "Class::f".
  EXPECT_FALSE(qualified_suffix_match("ns::Class::f", "ss::f"));
}

TEST(CallGraph, ResolvesCrossFileCalls) {
  std::vector<ParsedFile> files;
  files.push_back(parse_file("a.cpp",
      "namespace app {\n"
      "void helper() { grow(); }\n"
      "}\n"));
  files.push_back(parse_file("b.cpp",
      "namespace app {\n"
      "void entry() { helper(); }\n"
      "}\n"));
  CallGraph graph;
  graph.build(files);
  const std::size_t entry = graph.find("entry");
  const std::size_t helper = graph.find("helper");
  ASSERT_NE(entry, CallGraph::npos);
  ASSERT_NE(helper, CallGraph::npos);
  ASSERT_EQ(graph.nodes()[entry].edges.size(), 1U);
  EXPECT_EQ(graph.nodes()[entry].edges[0].callee, helper);
}

TEST(CallGraph, AmbiguousCallProducesNoEdge) {
  std::vector<ParsedFile> files;
  files.push_back(parse_file("a.cpp", "void dup() { x(); }\n"));
  files.push_back(parse_file("b.cpp", "void dup() { y(); }\n"));
  files.push_back(parse_file("c.cpp", "void caller() { dup(); }\n"));
  CallGraph graph;
  graph.build(files);
  const std::size_t caller = graph.find("caller");
  ASSERT_NE(caller, CallGraph::npos);
  // Conservative resolution: two candidate definitions, no edge.
  EXPECT_TRUE(graph.nodes()[caller].edges.empty());
}

TEST(CallGraph, SameFileTieBreak) {
  std::vector<ParsedFile> files;
  files.push_back(parse_file("a.cpp",
      "void dup() { x(); }\n"
      "void caller() { dup(); }\n"));
  files.push_back(parse_file("b.cpp", "void dup() { y(); }\n"));
  CallGraph graph;
  graph.build(files);
  const std::size_t caller = graph.find("caller");
  ASSERT_NE(caller, CallGraph::npos);
  ASSERT_EQ(graph.nodes()[caller].edges.size(), 1U);
  // The ambiguity is broken in favour of the definition in the same file.
  EXPECT_EQ(graph.file_of(graph.nodes()[caller].edges[0].callee).source.path,
            "a.cpp");
}

TEST(CallGraph, DeclarationAnnotationsMergeIntoDefinition) {
  std::vector<ParsedFile> files;
  files.push_back(parse_file("w.hpp",
      "class W {\n"
      " public:\n"
      "  // redund: hot\n"
      "  void spin();\n"
      "};\n"));
  files.push_back(parse_file("w.cpp",
      "void W::spin() { work(); }\n"));
  CallGraph graph;
  graph.build(files);
  const std::size_t spin = graph.find("W::spin");
  ASSERT_NE(spin, CallGraph::npos);
  EXPECT_TRUE(graph.fn(spin).hot);
}

TEST(CallGraph, DumpDotEmitsAnnotatedNodes) {
  std::vector<ParsedFile> files;
  files.push_back(parse_file("x.cpp",
      "// redund: hot\n"
      "void loop() { helper(); }\n"
      "void helper() {}\n"));
  CallGraph graph;
  graph.build(files);
  std::ostringstream out;
  graph.dump_dot(out);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("[hot]"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

// ---------------------------------------------------------------------
// Attribute fixpoint.

struct Analyzed {
  std::vector<ParsedFile> files;
  CallGraph graph;
  AttributeMap attrs;
};

Analyzed analyze_one(const std::string& text) {
  Analyzed a;
  a.files.push_back(parse_file("x.cpp", text));
  a.graph.build(a.files);
  a.attrs.build(a.graph, a.files);
  return a;
}

TEST(AttributeMap, DirectDetection) {
  const Analyzed a = analyze_one(
      "void alloc_fn(std::vector<int>& v) { v.push_back(1); }\n"
      "void io_fn() { std::ofstream out(p); }\n"
      "void clock_fn() { auto t = std::chrono::steady_clock::now(); }\n"
      "void clean_fn(int x) { (void)x; }\n");
  EXPECT_NE(a.attrs.direct(a.graph.find("alloc_fn")) & kAllocates, 0U);
  EXPECT_NE(a.attrs.direct(a.graph.find("io_fn")) & kBlocksIo, 0U);
  EXPECT_NE(a.attrs.direct(a.graph.find("clock_fn")) & kReadsClock, 0U);
  EXPECT_EQ(a.attrs.direct(a.graph.find("clean_fn")), 0U);
}

TEST(AttributeMap, PropagatesThroughChainToFixpoint) {
  const Analyzed a = analyze_one(
      "void leaf(std::vector<int>& v) { v.push_back(1); }\n"
      "void mid(std::vector<int>& v) { leaf(v); }\n"
      "void top(std::vector<int>& v) { mid(v); }\n");
  const std::size_t top = a.graph.find("top");
  const std::size_t mid = a.graph.find("mid");
  ASSERT_NE(top, CallGraph::npos);
  // mid and top allocate only transitively.
  EXPECT_EQ(a.attrs.direct(top) & kAllocates, 0U);
  EXPECT_NE(a.attrs.effective(top) & kAllocates, 0U);
  EXPECT_NE(a.attrs.effective(mid) & kAllocates, 0U);
  // The powerset lattice converges in a handful of sweeps.
  EXPECT_GE(a.attrs.sweeps(), 1U);
  EXPECT_LE(a.attrs.sweeps(), 8U);
  // The witness chain names every hop down to the offending token.
  const std::string chain = a.attrs.chain(top, kAllocates, a.graph);
  EXPECT_NE(chain.find("top"), std::string::npos);
  EXPECT_NE(chain.find("mid"), std::string::npos);
  EXPECT_NE(chain.find("leaf"), std::string::npos);
  EXPECT_NE(chain.find("push_back"), std::string::npos);
}

TEST(AttributeMap, RecursionConverges) {
  const Analyzed a = analyze_one(
      "void ping(int n) { if (n > 0) pong(n - 1); }\n"
      "void pong(int n) { q.push_back(n); ping(n); }\n");
  const std::size_t ping = a.graph.find("ping");
  ASSERT_NE(ping, CallGraph::npos);
  // Mutual recursion must still settle, with the attribute visible on
  // both participants.
  EXPECT_NE(a.attrs.effective(ping) & kAllocates, 0U);
  EXPECT_NE(a.attrs.effective(a.graph.find("pong")) & kAllocates, 0U);
  // chain() must terminate on the cyclic witness graph.
  const std::string chain = a.attrs.chain(ping, kAllocates, a.graph);
  EXPECT_FALSE(chain.empty());
}

TEST(AttributeMap, AllowSuppressesDirectAttribute) {
  const Analyzed a = analyze_one(
      "void audited(std::vector<int>& v) {\n"
      "  v.push_back(1);  // redund-lint: allow(hot-alloc)\n"
      "}\n"
      "void caller(std::vector<int>& v) { audited(v); }\n");
  // The audited allocation contributes no attribute, so it cannot
  // resurface transitively in callers.
  EXPECT_EQ(a.attrs.effective(a.graph.find("audited")) & kAllocates, 0U);
  EXPECT_EQ(a.attrs.effective(a.graph.find("caller")) & kAllocates, 0U);
}

TEST(AttributeMap, EffectiveExcludesPropagates) {
  const Analyzed a = analyze_one(
      "void locker() {\n"
      "  std::lock_guard<std::mutex> lock(mu_);\n"
      "  work();\n"
      "}\n"
      "void wrapper() { locker(); }\n");
  const std::size_t wrapper = a.graph.find("wrapper");
  ASSERT_NE(wrapper, CallGraph::npos);
  const std::vector<std::string>& excl = a.attrs.effective_excludes(wrapper);
  EXPECT_NE(std::find(excl.begin(), excl.end(), "mu_"), excl.end());
  const std::string chain = a.attrs.exclude_chain(wrapper, "mu_", a.graph);
  EXPECT_NE(chain.find("locker"), std::string::npos);
}

// ---------------------------------------------------------------------
// Rule plumbing.

TEST(MutexMatches, LastComponentLeniency) {
  EXPECT_TRUE(mutex_matches("mutex_", "mutex_"));
  EXPECT_TRUE(mutex_matches("own.mutex", "mutex"));
  EXPECT_TRUE(mutex_matches("mutex", "own.mutex"));
  EXPECT_FALSE(mutex_matches("victim.mutex", "own.other"));
  EXPECT_FALSE(mutex_matches("a_mutex", "mutex"));
}

TEST(OptionsFor, PathScoping) {
  EXPECT_TRUE(options_for("src/runtime/event_queue.hpp").runtime_rules);
  EXPECT_TRUE(options_for("src/runtime/event_queue.hpp").header);
  EXPECT_TRUE(options_for("src/sim/wave.cpp").wave_rules);
  EXPECT_FALSE(options_for("src/math/poly.cpp").runtime_rules);
  EXPECT_FALSE(options_for("src/math/poly.cpp").header);
}

// ---------------------------------------------------------------------
// Project end-to-end: an allocation one call away from a hot function.

TEST(Project, TransitiveHotAllocAcrossFiles) {
  Project project;
  project.add_file("helper.cpp",
      "namespace app {\n"
      "void record(std::vector<int>& v, int x) { v.push_back(x); }\n"
      "}\n");
  project.add_file("loop.cpp",
      "namespace app {\n"
      "// redund: hot\n"
      "void spin(std::vector<int>& v) { record(v, 1); }\n"
      "}\n");
  project.analyze();
  bool found = false;
  for (const Finding& f : project.findings()) {
    if (f.rule == "transitive-hot-alloc" && f.path == "loop.cpp") {
      found = true;
      // The diagnostic carries the full chain to the offending token.
      EXPECT_NE(f.message.find("record"), std::string::npos);
      EXPECT_NE(f.message.find("push_back"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Project, FindingsSortedAndSuppressible) {
  Project project;
  project.add_file("loop.cpp",
      "void helper(std::vector<int>& v) { v.push_back(1); }\n"
      "// redund: hot\n"
      "void spin(std::vector<int>& v) {\n"
      "  helper(v);  // redund-lint: allow(transitive-hot-alloc)\n"
      "}\n");
  project.analyze();
  for (const Finding& f : project.findings()) {
    EXPECT_NE(f.rule, "transitive-hot-alloc");
  }
}

}  // namespace
}  // namespace redund::lint
