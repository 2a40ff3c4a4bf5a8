#include "lint/callgraph.hpp"

#include <algorithm>
#include <map>
#include <ostream>

namespace redund::lint {

namespace {

std::vector<std::string> split_components(const std::string& name) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t sep = name.find("::", start);
    if (sep == std::string::npos) {
      parts.push_back(name.substr(start));
      return parts;
    }
    parts.push_back(name.substr(start, sep - start));
    start = sep + 2;
  }
}

/// Method names too generic to resolve through an object expression:
/// `x.flush()` on a stream must not link to a project class's flush()
/// just because that happens to be the only project method named flush.
bool is_generic_method_name(const std::string& name) {
  static const char* kNames[] = {
      "flush",  "push_back", "pop_back", "insert", "erase",  "clear",
      "size",   "empty",     "begin",    "end",    "find",   "count",
      "resize", "reserve",   "swap",     "merge",  "lock",   "unlock",
      "get",    "reset",     "front",    "back",   "at",     "data",
      "push",   "pop",       "top",      "wait",   "close",  "open",
      "load",   "store",     "str",      "c_str",  "first",  "second",
  };
  return std::any_of(std::begin(kNames), std::end(kNames),
                     [&](const char* w) { return name == w; });
}

}  // namespace

bool qualified_suffix_match(const std::string& qualified,
                            const std::string& name) {
  const std::vector<std::string> q = split_components(qualified);
  const std::vector<std::string> n = split_components(name);
  if (n.size() > q.size()) return false;
  return std::equal(n.rbegin(), n.rend(), q.rbegin());
}

void CallGraph::build(std::vector<ParsedFile>& files) {
  files_ = &files;
  nodes_.clear();

  // Merge declaration-only annotations (hot, REQUIRES/EXCLUDES on header
  // prototypes) into the matching definitions, keyed by qualified name.
  std::map<std::string, std::vector<FunctionInfo*>> by_name;
  for (ParsedFile& file : files) {
    for (FunctionInfo& fn : file.functions) {
      by_name[fn.qualified].push_back(&fn);
    }
  }
  for (auto& [name, fns] : by_name) {
    std::vector<std::string> req;
    std::vector<std::string> excl;
    bool hot = false;
    bool det = false;
    for (const FunctionInfo* fn : fns) {
      req.insert(req.end(), fn->requires_locks.begin(),
                 fn->requires_locks.end());
      excl.insert(excl.end(), fn->excludes_locks.begin(),
                  fn->excludes_locks.end());
      hot = hot || fn->hot;
      det = det || fn->deterministic;
    }
    std::sort(req.begin(), req.end());
    req.erase(std::unique(req.begin(), req.end()), req.end());
    std::sort(excl.begin(), excl.end());
    excl.erase(std::unique(excl.begin(), excl.end()), excl.end());
    for (FunctionInfo* fn : fns) {
      if (!fn->has_body) continue;
      fn->requires_locks = req;
      fn->excludes_locks = excl;
      fn->hot = fn->hot || hot;
      fn->deterministic = fn->deterministic || det;
    }
  }

  // One node per definition.
  for (std::size_t f = 0; f < files.size(); ++f) {
    for (std::size_t k = 0; k < files[f].functions.size(); ++k) {
      if (files[f].functions[k].has_body) {
        nodes_.push_back(Node{f, k, {}});
      }
    }
  }

  // Edges.
  for (Node& node : nodes_) {
    const FunctionInfo& caller = fn_of_(node);
    for (const CallSite& call : caller.calls) {
      const std::size_t callee = resolve_(call, node);
      if (callee != npos) {
        node.edges.push_back(Edge{callee, call.line, call.in_loop});
      }
    }
  }
}

const FunctionInfo& CallGraph::fn(std::size_t node) const {
  return fn_of_(nodes_[node]);
}

const ParsedFile& CallGraph::file_of(std::size_t node) const {
  return (*files_)[nodes_[node].file];
}

std::size_t CallGraph::find(const std::string& qualified_suffix) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (qualified_suffix_match(fn(i).qualified, qualified_suffix)) return i;
  }
  return npos;
}

std::size_t CallGraph::resolve_(const CallSite& call,
                                const Node& caller) const {
  const std::vector<std::string> parts = split_components(call.name);
  const std::string& last = parts.back();
  if (parts.size() > 1 && parts.front() == "std") return npos;  // External.

  const FunctionInfo& from = fn_of_(caller);

  if (parts.size() > 1) {
    // Qualified call: unique suffix match wins.
    std::size_t found = npos;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (qualified_suffix_match(fn(i).qualified, call.name)) {
        if (found != npos) return npos;  // Ambiguous.
        found = i;
      }
    }
    return found;
  }

  // Unqualified same-class method call (implicit this->f()).
  if (!call.member_access && !from.class_name.empty()) {
    std::size_t found = npos;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const FunctionInfo& cand = fn(i);
      if (cand.name == last && cand.class_name == from.class_name) {
        if (found != npos) return npos;
        found = i;
      }
    }
    if (found != npos) return found;
  }

  if (call.member_access && is_generic_method_name(last)) return npos;

  // Any unique project-wide match; same-file tie-break on ambiguity.
  std::size_t unique = npos;
  std::size_t same_file = npos;
  bool ambiguous = false;
  bool same_file_ambiguous = false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const FunctionInfo& cand = fn(i);
    if (cand.name != last) continue;
    if (call.member_access && cand.class_name.empty()) continue;
    if (unique != npos) ambiguous = true;
    unique = i;
    if (nodes_[i].file == caller.file) {
      if (same_file != npos) same_file_ambiguous = true;
      same_file = i;
    }
  }
  if (!ambiguous) return unique;
  if (!same_file_ambiguous && same_file != npos) return same_file;
  return npos;
}

void CallGraph::dump_dot(std::ostream& out) const {
  out << "digraph redund_callgraph {\n"
      << "  rankdir=LR;\n"
      << "  node [shape=box, fontname=\"monospace\", fontsize=9];\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const FunctionInfo& f = fn(i);
    out << "  n" << i << " [label=\"" << f.qualified;
    if (f.hot) out << "\\n[hot]";
    if (f.deterministic) out << "\\n[deterministic]";
    for (const std::string& m : f.requires_locks) {
      out << "\\n[requires " << m << "]";
    }
    for (const std::string& m : f.excludes_locks) {
      out << "\\n[excludes " << m << "]";
    }
    out << "\"";
    if (f.hot) out << ", style=filled, fillcolor=\"#ffdddd\"";
    else if (f.deterministic) out << ", style=filled, fillcolor=\"#ddddff\"";
    out << "];\n";
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const Edge& e : nodes_[i].edges) {
      out << "  n" << i << " -> n" << e.callee;
      if (e.in_loop) out << " [label=\"loop\"]";
      out << ";\n";
    }
  }
  out << "}\n";
}

const FunctionInfo& CallGraph::fn_of_(const Node& node) const {
  return (*files_)[node.file].functions[node.function];
}

}  // namespace redund::lint
