// Project-wide symbol table and call graph.
//
// Nodes are function *definitions* (declarations only contribute their
// annotations, merged by qualified name). Edges are resolved call sites;
// resolution is deliberately conservative — an ambiguous name produces
// no edge rather than a guessed one, so the interprocedural rules
// under-approximate instead of crying wolf (docs/analysis.md spells out
// the resolution order and its blind spots).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "lint/parse.hpp"

namespace redund::lint {

/// One resolved call edge.
struct Edge {
  std::size_t callee = 0;  ///< Node index.
  std::size_t line = 0;    ///< 0-based call-site line in the caller's file.
  bool in_loop = false;
};

/// One call-graph node: a function definition in a parsed file.
struct Node {
  std::size_t file = 0;      ///< Index into the ParsedFile vector.
  std::size_t function = 0;  ///< Index into that file's functions.
  std::vector<Edge> edges;
};

class CallGraph {
 public:
  /// Builds nodes and edges over `files` (kept by pointer; must outlive
  /// the graph). Merges declaration annotations into definitions first.
  void build(std::vector<ParsedFile>& files);

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const FunctionInfo& fn(std::size_t node) const;
  [[nodiscard]] const ParsedFile& file_of(std::size_t node) const;

  /// Node index of the definition with this qualified-name suffix, or
  /// npos. Exposed for tests.
  [[nodiscard]] std::size_t find(const std::string& qualified_suffix) const;

  /// Emits the graph as GraphViz DOT, one node per definition (labelled
  /// with annotations) and one edge per resolved call.
  void dump_dot(std::ostream& out) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  [[nodiscard]] std::size_t resolve_(const CallSite& call,
                                     const Node& caller) const;
  [[nodiscard]] const FunctionInfo& fn_of_(const Node& node) const;

  std::vector<ParsedFile>* files_ = nullptr;
  std::vector<Node> nodes_;
};

/// True when the components of `name` (split on ::) are a suffix of the
/// components of `qualified`.
[[nodiscard]] bool qualified_suffix_match(const std::string& qualified,
                                          const std::string& name);

}  // namespace redund::lint
