#include "lint/project.hpp"

namespace redund::lint {

void Project::add_file(const std::string& path, const std::string& text) {
  files_.push_back(parse_file(path, text));
}

void Project::analyze() {
  graph_.build(files_);
  attrs_.build(graph_, files_);
  findings_ = run_rules(graph_, attrs_, files_);
}

}  // namespace redund::lint
