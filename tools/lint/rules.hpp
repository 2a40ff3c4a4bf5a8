// Lint rules over the analyzer.
//
//  * Local rules, the depth-0 case of the attribute pass: a hit of the
//    pattern table (attributes.hpp) raises its entry's rule where that
//    rule applies. nondeterministic-rng, unordered-iteration,
//    hot-alloc, hot-per-element-insert, blocking-io-in-hot,
//    scalar-draw-in-wave.
//
//  * Directive rules, on the scrubbed line text: include-c-header,
//    include-iostream, using-namespace.
//
//  * Interprocedural rules, which need the call graph and the attribute
//    fixpoint:
//      transitive-hot-alloc            hot fn calls an (transitively)
//                                      allocating helper
//      transitive-blocking-io-in-hot   hot fn calls a helper that blocks
//      determinism-taint               a nondeterminism source reaches a
//                                      `redund: deterministic` function
//      guarded-by                      REDUND_GUARDED_BY(m) field touched
//                                      without m held
//      lock-requires                   call to a REDUND_REQUIRES(m)
//                                      function without m held
//      lock-excludes                   call while holding m into code
//                                      that (transitively) acquires or
//                                      REDUND_EXCLUDES m — deadlock
//
// Every finding is suppressible with the same
// `// redund-lint: allow(rule)` escape hatch, applied at the reported
// line (for interprocedural rules, the call site / access site in the
// caller).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/attributes.hpp"
#include "lint/callgraph.hpp"

namespace redund::lint {

struct Finding {
  std::string path;
  std::size_t line = 0;  ///< 1-based.
  std::string rule;
  std::string message;
};

struct LintOptions {
  bool runtime_rules = false;  ///< unordered-iteration (runtime/sim/control).
  bool header = false;         ///< Header-only rules.
  bool wave_rules = false;     ///< scalar-draw-in-wave (sim only).
};

/// Path-scoped option selection: runtime rules in /runtime/, /sim/,
/// /control/; wave rules in /sim/; header rules by .h/.hpp extension.
[[nodiscard]] LintOptions options_for(const std::string& path);

/// Every rule over the analyzed project, sorted by path, line and rule.
[[nodiscard]] std::vector<Finding> run_rules(
    const CallGraph& graph, const AttributeMap& attrs,
    const std::vector<ParsedFile>& files);

}  // namespace redund::lint
