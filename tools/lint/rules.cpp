#include "lint/rules.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <tuple>

namespace redund::lint {

namespace {

constexpr const char kSpace[] = " \t\r\f\v";

bool rule_enabled_(std::string_view rule, const LintOptions& options) {
  if (rule == "unordered-iteration") return options.runtime_rules;
  if (rule == "scalar-draw-in-wave") return options.wave_rules;
  return true;
}

/// True when `fn` calls `callee` from inside a loop on `line`.
bool calls_in_loop_(const FunctionInfo& fn, const std::string& callee,
                    std::size_t line) {
  return std::any_of(fn.calls.begin(), fn.calls.end(),
                     [&](const CallSite& call) {
                       const std::size_t sep = call.name.rfind("::");
                       const std::size_t last =
                           sep == std::string::npos ? 0 : sep + 2;
                       return call.in_loop && call.line == line &&
                              call.name.compare(last, std::string::npos,
                                                callee) == 0;
                     });
}

/// The depth-0 findings: each hit whose entry names a local rule, where
/// that rule applies. A rule reports once per line, its first hit there.
void check_local_rules_(const ParsedFile& file, const std::vector<Hit>& hits,
                        std::vector<Finding>& out) {
  const LintOptions options = options_for(file.source.path);
  std::vector<std::string_view> reported;  // Rules reported on `line`.
  std::size_t line = 0;
  for (const Hit& hit : hits) {
    const Pattern& p = *hit.pattern;
    if (p.rule == nullptr || !rule_enabled_(p.rule, options)) continue;
    const FunctionInfo* fn = hit.function == Hit::kNoFunction
                                 ? nullptr
                                 : &file.functions[hit.function];
    const auto in_loop = [&] {
      return calls_in_loop_(*fn, file.tokens[hit.token].text, hit.line);
    };
    bool applies = true;
    switch (p.where) {
      case Where::kAnywhere:
        break;
      case Where::kHot:
        applies = fn != nullptr && fn->hot;
        break;
      case Where::kHotLoop:
        applies = fn != nullptr && fn->hot && in_loop();
        break;
      case Where::kLoop:
        applies = fn != nullptr && in_loop();
        break;
    }
    if (!applies || file.source.allows(hit.line, p.rule)) continue;
    if (hit.line != line) {
      reported.clear();
      line = hit.line;
    }
    if (std::find(reported.begin(), reported.end(), p.rule) !=
        reported.end()) {
      continue;
    }
    reported.emplace_back(p.rule);
    out.push_back(Finding{file.source.path, hit.line + 1, p.rule,
                          render(p.message, hit.subject)});
  }
}

/// The header of an `#include <header>` line, or "" for any other line.
std::string included_header_(const std::string& code) {
  std::size_t p = code.find_first_not_of(kSpace);
  if (p == std::string::npos || code[p] != '#') return "";
  p = code.find_first_not_of(kSpace, p + 1);
  if (p == std::string::npos || code.compare(p, 7, "include") != 0) return "";
  p = code.find_first_not_of(kSpace, p + 7);
  if (p == std::string::npos || code[p] != '<') return "";
  const std::size_t close = code.find('>', p + 1);
  if (close == std::string::npos || close == p + 1) return "";
  return code.substr(p + 1, close - p - 1);
}

/// True when the line opens with `using namespace <name>`.
bool opens_using_namespace_(const std::string& code) {
  std::size_t p = code.find_first_not_of(kSpace);
  for (const std::string_view word : {"using", "namespace"}) {
    if (p == std::string::npos || code.compare(p, word.size(), word) != 0) {
      return false;
    }
    const std::size_t next = code.find_first_not_of(kSpace, p + word.size());
    if (next == p + word.size()) return false;  // No space after the word.
    p = next;
  }
  return p != std::string::npos && is_identifier_char(code[p]);
}

/// Rules on the scrubbed text of each line: #include and using namespace.
void check_directives_(const SourceFile& src, std::vector<Finding>& out) {
  static const std::pair<const char*, const char*> kCHeaders[] = {
      {"assert.h", "cassert"}, {"ctype.h", "cctype"},
      {"errno.h", "cerrno"},   {"float.h", "cfloat"},
      {"limits.h", "climits"}, {"math.h", "cmath"},
      {"signal.h", "csignal"}, {"stddef.h", "cstddef"},
      {"stdint.h", "cstdint"}, {"stdio.h", "cstdio"},
      {"stdlib.h", "cstdlib"}, {"string.h", "cstring"},
      {"time.h", "ctime"},
  };
  const bool header = options_for(src.path).header;
  const auto report = [&](std::size_t i, const char* rule,
                          std::string message) {
    if (!src.allows(i, rule)) {
      out.push_back(Finding{src.path, i + 1, rule, std::move(message)});
    }
  };
  for (std::size_t i = 0; i < src.lines.size(); ++i) {
    const std::string& code = src.lines[i].code;
    if (header && opens_using_namespace_(code)) {
      report(i, "using-namespace",
             "'using namespace' at header scope pollutes every includer");
    }
    const std::string included = included_header_(code);
    if (included.empty()) continue;
    const auto* c_header = std::find_if(
        std::begin(kCHeaders), std::end(kCHeaders),
        [&](const auto& entry) { return included == entry.first; });
    if (c_header != std::end(kCHeaders)) {
      report(i, "include-c-header",
             std::string("#include <") + c_header->first + "> — use <" +
                 c_header->second + "> (C++ spelling, std:: namespace)");
    } else if (header && included == "iostream") {
      report(i, "include-iostream",
             "<iostream> in a header drags static stream initializers into "
             "every includer — use <ostream>/<iosfwd> in headers");
    }
  }
}

void report_project_(const CallGraph& graph, std::size_t node,
                     std::size_t line, const std::string& rule,
                     const std::string& message,
                     std::vector<Finding>& out) {
  const SourceFile& src = graph.file_of(node).source;
  if (src.allows(line, rule)) return;
  out.push_back(Finding{src.path, line + 1, rule, message});
}

void check_transitive_hot_(const CallGraph& graph, const AttributeMap& attrs,
                           std::vector<Finding>& out) {
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    const FunctionInfo& caller = graph.fn(i);
    if (!caller.hot) continue;
    for (const Edge& edge : graph.nodes()[i].edges) {
      if (edge.callee == i) continue;  // Depth 0 is the local rules.
      for (const std::uint32_t attr : {kAllocates, kBlocksIo}) {
        if ((attrs.effective(edge.callee) & attr) == 0U) continue;
        report_project_(
            graph, i, edge.line, transitive_rule(attr),
            std::string("`redund: hot` function calls into ") +
                (attr == kAllocates ? "allocating code" : "blocking I/O") +
                ": " + caller.qualified + " -> " +
                attrs.chain(edge.callee, attr, graph),
            out);
      }
    }
  }
}

void check_determinism_taint_(const CallGraph& graph,
                              const AttributeMap& attrs,
                              std::vector<Finding>& out) {
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    const FunctionInfo& fn = graph.fn(i);
    if (!fn.deterministic) continue;
    const std::uint32_t tainted =
        attrs.effective(i) & kNondeterminismSources;
    for (std::uint32_t bit = 1; bit <= kAddressAsValue; bit <<= 1U) {
      if ((tainted & bit) == 0U) continue;
      const Witness* w = attrs.witness(i, bit);
      report_project_(
          graph, i, w->line, transitive_rule(bit),
          std::string("nondeterminism source (") + attribute_name(bit) +
              ") reaches `redund: deterministic` serialization code: " +
              attrs.chain(i, bit, graph),
          out);
    }
  }
}

/// Filename without directory or extension: "src/parallel/thread_pool.hpp"
/// -> "thread_pool". Used to pair a header with its implementation file.
std::string file_stem_(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::size_t begin = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.find('.', begin);
  return path.substr(begin, dot == std::string::npos ? std::string::npos
                                                     : dot - begin);
}

void check_guarded_by_(const std::vector<ParsedFile>& files,
                       std::vector<Finding>& out) {
  struct Decl {
    const GuardedField* field;
    std::string stem;  ///< Stem of the declaring file.
  };
  // Project-wide guarded-field map, keyed by field name.
  std::map<std::string, std::vector<Decl>> by_name;
  for (const ParsedFile& file : files) {
    for (const GuardedField& field : file.guarded_fields) {
      by_name[field.field].push_back(
          Decl{&field, file_stem_(file.source.path)});
    }
  }
  if (by_name.empty()) return;

  for (const ParsedFile& file : files) {
    const std::string stem = file_stem_(file.source.path);
    const std::vector<Token>& tokens = file.tokens;
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      const Token& token = tokens[t];
      if (token.kind != Token::Kind::kIdent) continue;
      const auto it = by_name.find(token.text);
      if (it == by_name.end()) continue;
      // Skip the annotated declaration line itself.
      if (file.source.lines[token.line].code.find("REDUND_GUARDED_BY") !=
          std::string::npos) {
        continue;
      }
      const bool member =
          t > 0 && (tokens[t - 1].text == "." || tokens[t - 1].text == "->");
      // Skip qualified names (Type::field) — declarations, not accesses.
      if (t > 0 && tokens[t - 1].text == "::") continue;

      // Enclosing function body (bodies never nest).
      const auto enclosing = std::find_if(
          file.functions.begin(), file.functions.end(),
          [&](const FunctionInfo& cand) { return cand.in_body(t); });
      if (enclosing == file.functions.end()) continue;  // Class scope.
      const FunctionInfo* fn = &*enclosing;
      if (fn->is_ctor || fn->is_dtor) continue;  // Exclusive access.

      for (const Decl& decl : it->second) {
        const GuardedField* field = decl.field;
        // Bare access must come from the field's own class. `x.field`
        // matches by name across classes, but only within the component
        // that declared the field (same file stem, pairing a header with
        // its .cpp) — guarded fields are implementation details, and the
        // name-only match would otherwise snag unrelated fields that
        // happen to share the name (e.g. another component's `pending_`
        // vs. ThreadPool's guarded one).
        if (!member && field->class_name != fn->class_name) continue;
        if (member && field->class_name != fn->class_name && decl.stem != stem)
          continue;
        if (fn->holds_at(field->mutex, token.line)) continue;
        if (file.source.allows(token.line, "guarded-by")) continue;
        out.push_back(Finding{
            file.source.path, token.line + 1, "guarded-by",
            "field '" + field->field + "' is REDUND_GUARDED_BY(" +
                field->mutex + ") but accessed in " + fn->qualified +
                " without holding '" + field->mutex + "'"});
        break;  // One finding per access site.
      }
    }
  }
}

void check_lock_rules_(const CallGraph& graph, const AttributeMap& attrs,
                       std::vector<Finding>& out) {
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    const FunctionInfo& caller = graph.fn(i);
    for (const Edge& edge : graph.nodes()[i].edges) {
      if (edge.callee == i) continue;
      const FunctionInfo& callee = graph.fn(edge.callee);

      for (const std::string& m : callee.requires_locks) {
        if (caller.holds_at(m, edge.line)) continue;
        report_project_(
            graph, i, edge.line, "lock-requires",
            "call to " + callee.qualified + " which REDUND_REQUIRES(" + m +
                ") without holding '" + m + "'",
            out);
      }

      for (const std::string& m : attrs.effective_excludes(edge.callee)) {
        if (!caller.holds_at(m, edge.line)) continue;
        report_project_(
            graph, i, edge.line, "lock-excludes",
            "call while holding '" + m +
                "' into code that must not run under it "
                "(self-deadlock on a non-recursive mutex): " +
                attrs.exclude_chain(edge.callee, m, graph),
            out);
      }
    }
  }
}

}  // namespace

LintOptions options_for(const std::string& path) {
  LintOptions options;
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::string(suffix).size();
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  options.header = ends_with(".hpp") || ends_with(".h");
  options.runtime_rules = path.find("/runtime/") != std::string::npos ||
                          path.find("/sim/") != std::string::npos ||
                          path.find("/control/") != std::string::npos;
  options.wave_rules = path.find("/sim/") != std::string::npos;
  return options;
}

std::vector<Finding> run_rules(const CallGraph& graph,
                               const AttributeMap& attrs,
                               const std::vector<ParsedFile>& files) {
  std::vector<Finding> out;
  for (std::size_t f = 0; f < files.size(); ++f) {
    check_local_rules_(files[f], attrs.hits(f), out);
    check_directives_(files[f].source, out);
  }
  check_transitive_hot_(graph, attrs, out);
  check_determinism_taint_(graph, attrs, out);
  check_guarded_by_(files, out);
  check_lock_rules_(graph, attrs, out);

  // Dedupe (two calls on one line can produce identical findings).
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.path, a.line, a.rule, a.message) <
           std::tie(b.path, b.line, b.rule, b.message);
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.path == b.path && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

}  // namespace redund::lint
