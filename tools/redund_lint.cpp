// redund_lint — project-specific static checker for the redundancy
// simulator: a thin CLI over the analyzer in tools/lint/ (tokenizer,
// function extractor, project-wide call graph, one pattern table,
// attribute fixpoint).
//
// One pass. Each pattern-table hit gives its function an attribute and
// raises its local rule where that rule applies; the attributes then
// propagate over the call graph to the interprocedural rules.
//   local (depth 0)    nondeterministic-rng, unordered-iteration,
//                      hot-alloc, hot-per-element-insert,
//                      blocking-io-in-hot, scalar-draw-in-wave
//   directives         include-c-header, include-iostream, using-namespace
//   interprocedural    transitive-hot-alloc, transitive-blocking-io-in-hot,
//                      determinism-taint; the diagnostic prints the whole
//                      call chain down to the offending line
//   lock annotations   guarded-by, lock-requires, lock-excludes
//                      (REDUND_GUARDED_BY / REQUIRES / EXCLUDES from
//                      src/core/thread_annotations.hpp)
// See docs/correctness.md for the rule table and docs/analysis.md for
// the analyzer.
//
// Suppression: `// redund-lint: allow(rule)` (comma list or `all`) on the
// reported line or the line directly above — for interprocedural rules
// the reported line is the call/access site in the caller.
//
// `--self-test` runs embedded fixtures (single- and multi-file) proving
// each rule fires and that allow() suppresses it. `--dump-callgraph`
// emits the resolved call graph as GraphViz DOT.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/project.hpp"

namespace {

using redund::lint::Finding;
using redund::lint::Project;

bool is_source_path(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

// --------------------------------------------------------------- self-test

struct Fixture {
  const char* name;
  const char* path;          // Decides path-scoped rules.
  const char* source;
  const char* expect_rule;   // nullptr: expect clean.
  std::size_t expect_line;   // 1-based in `path`; 0 with expect_rule: any.
  const char* path2 = nullptr;   // Optional second file (cross-file rules).
  const char* source2 = nullptr;
};

const Fixture kFixtures[] = {
    // ------------------------------------------------- local rules.
    {"rng-fires", "src/math/x.cpp",
     "int f() {\n  return rand() % 6;\n}\n", "nondeterministic-rng", 2},
    {"rng-std-time-fires", "src/core/x.cpp",
     "long f() {\n  return std::time(nullptr);\n}\n",
     "nondeterministic-rng", 2},
    {"rng-random-device-fires", "src/rng/x.cpp",
     "unsigned f() {\n  std::random_device rd;\n  return rd();\n}\n",
     "nondeterministic-rng", 2},
    {"rng-allow-suppresses", "src/math/x.cpp",
     "int f() {\n"
     "  return rand() % 6;  // redund-lint: allow(nondeterministic-rng)\n"
     "}\n",
     nullptr, 0},
    {"rng-in-comment-ignored", "src/math/x.cpp",
     "// rand() is banned here\nint f() { return 4; }\n", nullptr, 0},
    {"rng-in-string-ignored", "src/math/x.cpp",
     "const char* k = \"rand()\";\n", nullptr, 0},
    {"rng-std-time-zero-fires", "src/core/x.cpp",
     "long f() {\n  return std::time(0);\n}\n", "nondeterministic-rng", 2},
    {"rng-time-null-fires", "src/core/x.cpp",
     "long f() {\n  return time(NULL);\n}\n", "nondeterministic-rng", 2},
    {"rng-qualified-time-clean", "src/core/x.cpp",
     "long f() {\n  return Clock::time();\n}\n", nullptr, 0},
    {"rng-member-time-clean", "src/core/x.cpp",
     "double f(const Event& e) {\n  return e.time();\n}\n", nullptr, 0},
    {"rng-arrow-time-clean", "src/core/x.cpp",
     "double f(const Event* e) {\n  return e->time();\n}\n", nullptr, 0},
    {"rng-allow-spaced-list-suppresses", "src/math/x.cpp",
     "int f() {\n"
     "  return rand() % 6;  // redund-lint: allow( nondeterministic-rng , all )\n"
     "}\n",
     nullptr, 0},
    {"unordered-range-for-fires", "src/runtime/x.cpp",
     "std::unordered_map<int, int> table_;\n"
     "void f() {\n"
     "  for (const auto& kv : table_) { use(kv); }\n"
     "}\n",
     "unordered-iteration", 3},
    {"unordered-begin-fires", "src/sim/x.cpp",
     "std::unordered_set<int> seen;\n"
     "auto f() { return seen.begin(); }\n",
     "unordered-iteration", 2},
    {"unordered-control-fires", "src/control/x.cpp",
     "std::unordered_map<int, int> table_;\n"
     "void f() {\n"
     "  for (const auto& kv : table_) { use(kv); }\n"
     "}\n",
     "unordered-iteration", 3},
    {"unordered-reference-param-fires", "src/runtime/x.cpp",
     "void f(const std::unordered_map<int, int>& table) {\n"
     "  for (const auto& kv : table) { use(kv); }\n"
     "}\n",
     "unordered-iteration", 2},
    {"unordered-allow-suppresses", "src/runtime/x.cpp",
     "std::unordered_map<int, int> table_;\n"
     "void f() {\n"
     "  // redund-lint: allow(unordered-iteration)\n"
     "  for (const auto& kv : table_) { use(kv); }\n"
     "}\n",
     nullptr, 0},
    {"unordered-outside-scope-clean", "src/core/x.cpp",
     "std::unordered_map<int, int> table_;\n"
     "void f() {\n"
     "  for (const auto& kv : table_) { use(kv); }\n"
     "}\n",
     nullptr, 0},
    {"unordered-lookup-clean", "src/runtime/x.cpp",
     "std::unordered_map<int, int> table_;\n"
     "int f(int k) { return table_.at(k); }\n",
     nullptr, 0},
    {"unordered-nested-pointer-fires", "src/runtime/x.cpp",
     "void f(std::unordered_map<int, std::vector<int>>* ptr) {\n"
     "  for (const auto& kv : *ptr) { use(kv); }\n"
     "}\n",
     "unordered-iteration", 2},
    {"unordered-index-loop-clean", "src/runtime/x.cpp",
     "std::unordered_map<int, int> table_;\n"
     "void f() {\n"
     "  for (std::size_t i = 0; i < table_.size(); ++i) use(i);\n"
     "}\n",
     nullptr, 0},
    {"hot-alloc-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v) {\n"
     "  v.push_back(1);\n"
     "}\n",
     "hot-alloc", 3},
    {"hot-alloc-new-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "int* f() {\n"
     "  return new int(4);\n"
     "}\n",
     "hot-alloc", 3},
    {"hot-alloc-allow-suppresses", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v) {\n"
     "  v.push_back(1);  // redund-lint: allow(hot-alloc)\n"
     "}\n",
     nullptr, 0},
    {"hot-alloc-unannotated-clean", "src/runtime/x.cpp",
     "void f(std::vector<int>& v) {\n  v.push_back(1);\n}\n", nullptr, 0},
    {"hot-alloc-ends-at-brace", "src/runtime/x.cpp",
     "// redund: hot\n"
     "int f() {\n"
     "  return 4;\n"
     "}\n"
     "void g(std::vector<int>& v) {\n"
     "  v.push_back(1);\n"
     "}\n",
     nullptr, 0},
    {"hot-alloc-make-unique-template-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::unique_ptr<int>& p) {\n"
     "  p = std::make_unique<int>(4);\n"
     "}\n",
     "hot-alloc", 3},
    {"hot-alloc-make-shared-nested-template-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::shared_ptr<std::vector<int>>& p) {\n"
     "  p = std::make_shared<std::vector<int>>(4);\n"
     "}\n",
     "hot-alloc", 3},
    {"hot-alloc-make-unique-for-overwrite-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::unique_ptr<int[]>& p, std::size_t n) {\n"
     "  p = std::make_unique_for_overwrite<int[]>(n);\n"
     "}\n",
     "hot-alloc", 3},
    {"hot-alloc-comparison-clean", "src/runtime/x.cpp",
     "// redund: hot\n"
     "bool f(int reserve, int cap) {\n"
     "  return reserve < cap;\n"
     "}\n",
     nullptr, 0},
    {"hot-alloc-placement-new-clean", "src/runtime/x.cpp",
     "// redund: hot\n"
     "int* f(void* slot) {\n"
     "  return ::new (slot) int(4);\n"
     "}\n",
     nullptr, 0},
    {"hot-alloc-new-prefixed-name-clean", "src/runtime/x.cpp",
     "// redund: hot\n"
     "int f(int new_size) {\n"
     "  return new_size + 1;\n"
     "}\n",
     nullptr, 0},
    // The line that opens a hot body is part of it.
    {"hot-alloc-one-line-body-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v) { v.push_back(1); }\n",
     "hot-alloc", 2},
    {"hot-alloc-brace-line-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v)\n"
     "{ v.push_back(1);\n"
     "}\n",
     "hot-alloc", 3},
    {"hot-loop-one-line-body-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v, int n) { for (int i = 0; i < n; ++i) "
     "v.push_back(i); }\n",
     "hot-per-element-insert", 2},
    {"hot-loop-push-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v, int n) {\n"
     "  for (int i = 0; i < n; ++i) {\n"
     "    v.push_back(i);  // redund-lint: allow(hot-alloc)\n"
     "  }\n"
     "}\n",
     "hot-per-element-insert", 4},
    {"hot-loop-map-insert-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::map<int, int>& m, int n) {\n"
     "  while (n-- > 0) {\n"
     "    m.insert({n, n});  // redund-lint: allow(hot-alloc)\n"
     "  }\n"
     "}\n",
     "hot-per-element-insert", 4},
    {"hot-loop-braceless-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v, int n) {\n"
     "  for (int i = 0; i < n; ++i) v.push_back(i);  "
     "// redund-lint: allow(hot-alloc)\n"
     "}\n",
     "hot-per-element-insert", 3},
    {"hot-loop-allow-suppresses", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v, int n) {\n"
     "  for (int i = 0; i < n; ++i) {\n"
     "    // redund-lint: allow(hot-alloc, hot-per-element-insert)\n"
     "    v.push_back(i);\n"
     "  }\n"
     "}\n",
     nullptr, 0},
    {"hot-push-outside-loop-only-hot-alloc", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v) {\n"
     "  v.push_back(1);  // redund-lint: allow(hot-alloc)\n"
     "}\n",
     nullptr, 0},
    {"hot-do-while-tail-not-a-loop-opener", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v, int n) {\n"
     "  do {\n"
     "    --n;\n"
     "  } while (n > 0);\n"
     "  v.push_back(n);  // redund-lint: allow(hot-alloc)\n"
     "}\n",
     nullptr, 0},
    {"blocking-io-fsync-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(int fd) {\n"
     "  fsync(fd);\n"
     "}\n",
     "blocking-io-in-hot", 3},
    {"blocking-io-flush-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::ostream& out) {\n"
     "  out.flush();\n"
     "}\n",
     "blocking-io-in-hot", 3},
    {"blocking-io-ofstream-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f() {\n"
     "  std::ofstream out(path_);\n"
     "}\n",
     "blocking-io-in-hot", 3},
    {"blocking-io-allow-suppresses", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(int fd) {\n"
     "  fsync(fd);  // redund-lint: allow(blocking-io-in-hot)\n"
     "}\n",
     nullptr, 0},
    {"blocking-io-unannotated-clean", "src/runtime/x.cpp",
     "void f(int fd) {\n  fsync(fd);\n}\n", nullptr, 0},
    {"blocking-io-outside-body-clean", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void f(std::vector<int>& v);\n"
     "void g(int fd) {\n"
     "  fsync(fd);\n"
     "}\n",
     nullptr, 0},
    {"wave-draw-in-loop-fires", "src/sim/x.cpp",
     "double f(std::uint64_t seed, std::size_t n) {\n"
     "  double sum = 0.0;\n"
     "  for (std::size_t r = 0; r < n; ++r) {\n"
     "    auto engine = rng::make_stream(seed, r);\n"
     "    sum += rng::uniform01(engine);\n"
     "  }\n"
     "  return sum;\n"
     "}\n",
     "scalar-draw-in-wave", 4},
    {"wave-draw-braceless-fires", "src/sim/x.cpp",
     "void f(std::uint64_t seed, std::size_t n, double* out) {\n"
     "  for (std::size_t r = 0; r < n; ++r)\n"
     "    out[r] = rng::uniform01(rng::make_stream(seed, r));\n"
     "}\n",
     "scalar-draw-in-wave", 3},
    {"wave-draw-allow-suppresses", "src/sim/x.cpp",
     "double f(std::uint64_t seed, std::size_t n) {\n"
     "  double sum = 0.0;\n"
     "  for (std::size_t r = 0; r < n; ++r) {\n"
     "    // Draw count varies per replica: not wave-able.\n"
     "    // redund-lint: allow(scalar-draw-in-wave)\n"
     "    auto engine = rng::make_stream(seed, r);\n"
     "    sum += rng::uniform01(engine);\n"
     "  }\n"
     "  return sum;\n"
     "}\n",
     nullptr, 0},
    {"wave-draw-outside-loop-clean", "src/sim/x.cpp",
     "double f(std::uint64_t seed) {\n"
     "  auto engine = rng::make_stream(seed, 0);\n"
     "  double sum = 0.0;\n"
     "  for (int i = 0; i < 4; ++i) sum += rng::uniform01(engine);\n"
     "  return sum;\n"
     "}\n",
     nullptr, 0},
    {"wave-draw-outside-sim-clean", "src/runtime/x.cpp",
     "void f(std::uint64_t seed, std::size_t n, double* out) {\n"
     "  for (std::size_t r = 0; r < n; ++r)\n"
     "    out[r] = rng::uniform01(rng::make_stream(seed, r));\n"
     "}\n",
     nullptr, 0},
    {"c-header-fires", "src/core/x.cpp",
     "#include <stdio.h>\n", "include-c-header", 1},
    {"c-header-allow-suppresses", "src/core/x.cpp",
     "#include <stdio.h>  // redund-lint: allow(include-c-header)\n",
     nullptr, 0},
    {"c-header-spaced-directive-fires", "src/core/x.cpp",
     "#  include <stdio.h>\n", "include-c-header", 1},
    {"iostream-header-fires", "src/core/x.hpp",
     "#include <iostream>\n", "include-iostream", 1},
    {"iostream-in-cpp-clean", "src/core/x.cpp",
     "#include <iostream>\n", nullptr, 0},
    {"using-namespace-header-fires", "src/core/x.hpp",
     "using namespace std;\n", "using-namespace", 1},
    {"using-namespace-cpp-clean", "src/core/x.cpp",
     "using namespace std::chrono_literals;\n", nullptr, 0},

    // ------------------------------------- transitive hot-path rules.
    //
    // The hot function's own body is clean: the allocation hides one call
    // away, where no local rule can see it.
    {"transitive-alloc-one-hop-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void tick(std::vector<int>& v) {\n"
     "  record(v);\n"
     "}\n"
     "void record(std::vector<int>& v) {\n"
     "  v.push_back(1);\n"
     "}\n",
     "transitive-hot-alloc", 3},
    {"transitive-alloc-two-hops-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void tick(std::vector<int>& v) {\n"
     "  stage(v);\n"
     "}\n"
     "void stage(std::vector<int>& v) {\n"
     "  record(v);\n"
     "}\n"
     "void record(std::vector<int>& v) {\n"
     "  v.push_back(1);\n"
     "}\n",
     "transitive-hot-alloc", 3},
    {"transitive-alloc-cross-file-fires", "src/runtime/a.cpp",
     "// redund: hot\n"
     "void tick(std::vector<int>& v) {\n"
     "  record(v);\n"
     "}\n",
     "transitive-hot-alloc", 3, "src/runtime/b.cpp",
     "void record(std::vector<int>& v) {\n"
     "  v.push_back(1);\n"
     "}\n"},
    {"transitive-alloc-allow-suppresses", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void tick(std::vector<int>& v) {\n"
     "  record(v);  // redund-lint: allow(transitive-hot-alloc)\n"
     "}\n"
     "void record(std::vector<int>& v) {\n"
     "  v.push_back(1);\n"
     "}\n",
     nullptr, 0},
    {"transitive-alloc-clean-helper-clean", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void tick(int* slots, int n) {\n"
     "  record(slots, n);\n"
     "}\n"
     "void record(int* slots, int n) {\n"
     "  slots[n] = n;\n"
     "}\n",
     nullptr, 0},
    // An audited, allow()-annotated allocation in the helper does not
    // resurface transitively in its callers.
    {"transitive-alloc-audited-helper-clean", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void tick(std::vector<int>& v) {\n"
     "  record(v);\n"
     "}\n"
     "void record(std::vector<int>& v) {\n"
     "  v.push_back(1);  // redund-lint: allow(hot-alloc, transitive-hot-alloc)\n"
     "}\n",
     nullptr, 0},
    {"transitive-blocking-io-fires", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void tick(int fd) {\n"
     "  persist(fd);\n"
     "}\n"
     "void persist(int fd) {\n"
     "  fsync(fd);\n"
     "}\n",
     "transitive-blocking-io-in-hot", 3},
    {"transitive-blocking-io-allow-suppresses", "src/runtime/x.cpp",
     "// redund: hot\n"
     "void tick(int fd) {\n"
     "  persist(fd);  // redund-lint: allow(transitive-blocking-io-in-hot)\n"
     "}\n"
     "void persist(int fd) {\n"
     "  fsync(fd);\n"
     "}\n",
     nullptr, 0},

    // ----------------------------------------- determinism taint.
    {"det-taint-clock-via-helper-fires", "src/report/x.cpp",
     "// redund: deterministic\n"
     "void write_report(std::ostream& out) {\n"
     "  out << stamp();\n"
     "}\n"
     "long stamp() {\n"
     "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
     "}\n",
     "determinism-taint", 3},
    {"det-taint-unordered-via-helper-fires", "src/report/x.cpp",
     "std::unordered_map<int, int> table_;\n"
     "// redund: deterministic\n"
     "void write_report(std::ostream& out) {\n"
     "  emit_rows(out);\n"
     "}\n"
     "void emit_rows(std::ostream& out) {\n"
     "  for (const auto& kv : table_) { out << kv.second; }\n"
     "}\n",
     "determinism-taint", 4},
    {"det-taint-address-direct-fires", "src/report/x.cpp",
     "// redund: deterministic\n"
     "void write_report(std::ostream& out, const void* p) {\n"
     "  out << reinterpret_cast<std::uintptr_t>(p);\n"
     "}\n",
     "determinism-taint", 3},
    {"det-taint-random-device-fires", "src/report/x.cpp",
     "// redund: deterministic\n"
     "void write_report(std::ostream& out) {\n"
     "  out << salt();\n"
     "}\n"
     "unsigned salt() {\n"
     "  std::random_device rd;\n"
     "  return rd();\n"
     "}\n",
     "determinism-taint", 3},
    {"det-taint-allow-suppresses", "src/report/x.cpp",
     "// redund: deterministic\n"
     "void write_report(std::ostream& out) {\n"
     "  out << stamp();  // redund-lint: allow(determinism-taint)\n"
     "}\n"
     "long stamp() {\n"
     "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
     "}\n",
     nullptr, 0},
    {"det-taint-unannotated-clean", "src/report/x.cpp",
     "void write_report(std::ostream& out) {\n"
     "  out << stamp();\n"
     "}\n"
     "long stamp() {\n"
     "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
     "}\n",
     nullptr, 0},

    // ------------------------------------ thread-safety annotations.
    {"guarded-by-fires", "src/parallel/x.cpp",
     "struct Q {\n"
     "  std::mutex mutex_;\n"
     "  int depth REDUND_GUARDED_BY(mutex_);\n"
     "};\n"
     "int peek(Q& q) {\n"
     "  return q.depth;\n"
     "}\n",
     "guarded-by", 6},
    {"guarded-by-function-pointer-fires", "src/parallel/x.cpp",
     "struct Q {\n"
     "  std::mutex mutex_;\n"
     "  int (*hook)(int) REDUND_GUARDED_BY(mutex_);\n"
     "};\n"
     "int peek(Q& q) {\n"
     "  return q.hook(1);\n"
     "}\n",
     "guarded-by", 6},
    {"guarded-by-array-fires", "src/parallel/x.cpp",
     "constexpr int kN = 4;\n"
     "struct Q {\n"
     "  std::mutex mutex_;\n"
     "  int slots[kN] REDUND_GUARDED_BY(mutex_);\n"
     "};\n"
     "int peek(Q& q) {\n"
     "  return q.slots[kN - 1];\n"
     "}\n",
     "guarded-by", 7},
    {"guarded-by-lock-clean", "src/parallel/x.cpp",
     "struct Q {\n"
     "  std::mutex mutex_;\n"
     "  int depth REDUND_GUARDED_BY(mutex_);\n"
     "};\n"
     "int peek(Q& q) {\n"
     "  std::lock_guard<std::mutex> lock(q.mutex_);\n"
     "  return q.depth;\n"
     "}\n",
     nullptr, 0},
    {"guarded-by-requires-clean", "src/parallel/x.cpp",
     "struct Q {\n"
     "  std::mutex mutex_;\n"
     "  int depth REDUND_GUARDED_BY(mutex_);\n"
     "  int peek() REDUND_REQUIRES(mutex_) { return depth; }\n"
     "};\n",
     nullptr, 0},
    {"guarded-by-ctor-clean", "src/parallel/x.cpp",
     "struct Q {\n"
     "  std::mutex mutex_;\n"
     "  int depth REDUND_GUARDED_BY(mutex_);\n"
     "  Q() { depth = 0; }\n"
     "};\n",
     nullptr, 0},
    {"guarded-by-allow-suppresses", "src/parallel/x.cpp",
     "struct Q {\n"
     "  std::mutex mutex_;\n"
     "  int depth REDUND_GUARDED_BY(mutex_);\n"
     "};\n"
     "int peek(Q& q) {\n"
     "  return q.depth;  // redund-lint: allow(guarded-by)\n"
     "}\n",
     nullptr, 0},
    {"lock-requires-fires", "src/parallel/x.cpp",
     "struct W {\n"
     "  std::mutex mutex_;\n"
     "  void drain_locked() REDUND_REQUIRES(mutex_);\n"
     "  void poke();\n"
     "};\n"
     "void W::drain_locked() {}\n"
     "void W::poke() {\n"
     "  drain_locked();\n"
     "}\n",
     "lock-requires", 8},
    {"lock-requires-held-clean", "src/parallel/x.cpp",
     "struct W {\n"
     "  std::mutex mutex_;\n"
     "  void drain_locked() REDUND_REQUIRES(mutex_);\n"
     "  void poke();\n"
     "};\n"
     "void W::drain_locked() {}\n"
     "void W::poke() {\n"
     "  std::lock_guard<std::mutex> lock(mutex_);\n"
     "  drain_locked();\n"
     "}\n",
     nullptr, 0},
    {"lock-requires-allow-suppresses", "src/parallel/x.cpp",
     "struct W {\n"
     "  std::mutex mutex_;\n"
     "  void drain_locked() REDUND_REQUIRES(mutex_);\n"
     "  void poke();\n"
     "};\n"
     "void W::drain_locked() {}\n"
     "void W::poke() {\n"
     "  drain_locked();  // redund-lint: allow(lock-requires)\n"
     "}\n",
     nullptr, 0},
    {"lock-excludes-one-hop-fires", "src/parallel/x.cpp",
     "struct W {\n"
     "  std::mutex mutex_;\n"
     "  void enqueue();\n"
     "  void poke();\n"
     "};\n"
     "void W::enqueue() {\n"
     "  std::lock_guard<std::mutex> lock(mutex_);\n"
     "}\n"
     "void W::poke() {\n"
     "  std::lock_guard<std::mutex> lock(mutex_);\n"
     "  enqueue();\n"
     "}\n",
     "lock-excludes", 11},
    {"lock-excludes-transitive-fires", "src/parallel/x.cpp",
     "struct W {\n"
     "  std::mutex mutex_;\n"
     "  void enqueue();\n"
     "  void stage();\n"
     "  void poke();\n"
     "};\n"
     "void W::enqueue() {\n"
     "  std::lock_guard<std::mutex> lock(mutex_);\n"
     "}\n"
     "void W::stage() {\n"
     "  enqueue();\n"
     "}\n"
     "void W::poke() {\n"
     "  std::lock_guard<std::mutex> lock(mutex_);\n"
     "  stage();\n"
     "}\n",
     "lock-excludes", 15},
    // The guard lives in an inner scope and is released before the
    // call — no deadlock, and the scope-precise hold regions know it.
    {"lock-excludes-scope-release-clean", "src/parallel/x.cpp",
     "struct W {\n"
     "  std::mutex mutex_;\n"
     "  int depth;\n"
     "  void enqueue();\n"
     "  void poke();\n"
     "};\n"
     "void W::enqueue() {\n"
     "  std::lock_guard<std::mutex> lock(mutex_);\n"
     "}\n"
     "void W::poke() {\n"
     "  {\n"
     "    std::lock_guard<std::mutex> lock(mutex_);\n"
     "    depth = 1;\n"
     "  }\n"
     "  enqueue();\n"
     "}\n",
     nullptr, 0},
    {"lock-excludes-annotated-fires", "src/parallel/x.cpp",
     "struct W {\n"
     "  std::mutex mutex_;\n"
     "  void wait_idle() REDUND_EXCLUDES(mutex_);\n"
     "  void poke();\n"
     "};\n"
     "void W::wait_idle() {}\n"
     "void W::poke() {\n"
     "  std::lock_guard<std::mutex> lock(mutex_);\n"
     "  wait_idle();\n"
     "}\n",
     "lock-excludes", 9},
    {"lock-excludes-allow-suppresses", "src/parallel/x.cpp",
     "struct W {\n"
     "  std::mutex mutex_;\n"
     "  void enqueue();\n"
     "  void poke();\n"
     "};\n"
     "void W::enqueue() {\n"
     "  std::lock_guard<std::mutex> lock(mutex_);\n"
     "}\n"
     "void W::poke() {\n"
     "  std::lock_guard<std::mutex> lock(mutex_);\n"
     "  enqueue();  // redund-lint: allow(lock-excludes)\n"
     "}\n",
     nullptr, 0},
};

int run_self_test() {
  int failures = 0;
  for (const Fixture& fixture : kFixtures) {
    Project project;
    project.add_file(fixture.path, fixture.source);
    if (fixture.path2 != nullptr) {
      project.add_file(fixture.path2, fixture.source2);
    }
    project.analyze();
    const std::vector<Finding>& findings = project.findings();
    bool ok;
    if (fixture.expect_rule == nullptr) {
      ok = findings.empty();
    } else {
      ok = std::any_of(findings.begin(), findings.end(),
                       [&](const Finding& f) {
                         return f.rule == fixture.expect_rule &&
                                f.path == fixture.path &&
                                (fixture.expect_line == 0 ||
                                 f.line == fixture.expect_line);
                       });
    }
    if (!ok) {
      ++failures;
      std::cerr << "self-test FAIL: " << fixture.name << " (expected ";
      if (fixture.expect_rule == nullptr) {
        std::cerr << "clean";
      } else {
        std::cerr << fixture.expect_rule << " at line " << fixture.expect_line;
      }
      std::cerr << ", got " << findings.size() << " finding(s)";
      for (const Finding& f : findings) {
        std::cerr << " [" << f.rule << "@" << f.line << "]";
      }
      std::cerr << ")\n";
    }
  }

  // --dump-callgraph smoke: the one-hop fixture must produce an edge.
  {
    Project project;
    project.add_file(kFixtures[0].path, kFixtures[0].source);
    project.add_file("src/runtime/x.cpp",
                     "// redund: hot\n"
                     "void tick(std::vector<int>& v) {\n"
                     "  record(v);\n"
                     "}\n"
                     "void record(std::vector<int>& v) {\n"
                     "  v.push_back(1);\n"
                     "}\n");
    project.analyze();
    std::ostringstream dot;
    project.graph().dump_dot(dot);
    const std::string text = dot.str();
    if (text.find("digraph") == std::string::npos ||
        text.find("->") == std::string::npos ||
        text.find("[hot]") == std::string::npos) {
      ++failures;
      std::cerr << "self-test FAIL: dump-callgraph (missing digraph/edge/"
                   "hot label)\n";
    }
  }

  const std::size_t total = std::size(kFixtures) + 1;
  if (failures == 0) {
    std::cout << "redund_lint self-test: " << total << "/" << total
              << " fixtures passed\n";
    return 0;
  }
  std::cerr << "redund_lint self-test: " << failures << "/" << total
            << " fixtures FAILED\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> inputs;
  bool self_test = false;
  bool dump_callgraph = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--dump-callgraph") {
      dump_callgraph = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: redund_lint [--self-test] [--dump-callgraph] "
             "<file-or-dir>...\n"
             "Scans C++ sources for redundancy-project rule violations\n"
             "(see docs/correctness.md and docs/analysis.md).\n"
             "  --self-test       run the embedded rule fixtures\n"
             "  --dump-callgraph  emit the resolved call graph as DOT\n"
             "Exit 0 clean, 1 findings, 2 usage.\n";
      return 0;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (self_test) return run_self_test();
  if (inputs.empty()) {
    std::cerr << "redund_lint: no inputs (try --help)\n";
    return 2;
  }

  std::vector<std::filesystem::path> files;
  for (const std::filesystem::path& input : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(input, ec)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(input)) {
        if (entry.is_regular_file() && is_source_path(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else if (std::filesystem::is_regular_file(input, ec)) {
      files.push_back(input);
    } else {
      std::cerr << "redund_lint: no such file or directory: "
                << input.string() << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  Project project;
  std::size_t loaded = 0;
  std::size_t io_errors = 0;
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cout << file.string() << ":0: [io-error] cannot open file\n";
      ++io_errors;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    project.add_file(file.generic_string(), buffer.str());
    ++loaded;
  }
  project.analyze();

  if (dump_callgraph) {
    project.graph().dump_dot(std::cout);
    return 0;
  }

  std::size_t finding_count = io_errors;
  for (const Finding& finding : project.findings()) {
    ++finding_count;
    std::cout << finding.path << ":" << finding.line << ": ["
              << finding.rule << "] " << finding.message << "\n";
  }
  if (finding_count != 0) {
    std::cerr << "redund_lint: " << finding_count << " finding(s) in "
              << files.size() << " file(s)\n";
    return 1;
  }
  std::cout << "redund_lint: " << loaded << " file(s) clean\n";
  return 0;
}
