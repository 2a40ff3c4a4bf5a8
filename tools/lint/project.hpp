// Project: the top-level driver of the analyzer. Feed it files, call
// analyze(), read findings. redund_lint is a thin CLI over this class;
// tests/test_analysis.cpp drives it directly.
#pragma once

#include <string>
#include <vector>

#include "lint/attributes.hpp"
#include "lint/callgraph.hpp"
#include "lint/rules.hpp"

namespace redund::lint {

class Project {
 public:
  /// Parses one file and queues it for analysis. `path` decides the
  /// path-scoped rule set.
  void add_file(const std::string& path, const std::string& text);

  /// Runs the one pass: call graph, pattern matches and attribute
  /// fixpoint, then every rule. Idempotent per add_file set.
  void analyze();

  [[nodiscard]] const std::vector<Finding>& findings() const {
    return findings_;
  }
  [[nodiscard]] const CallGraph& graph() const { return graph_; }

 private:
  std::vector<ParsedFile> files_;
  CallGraph graph_;
  AttributeMap attrs_;
  std::vector<Finding> findings_;
};

}  // namespace redund::lint
