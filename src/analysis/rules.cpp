#include "analysis/rules.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <tuple>

namespace redund::analysis {

namespace {

// ---------------------------------------------------------------------
// File rules: the v1 redund_lint rule set, ported onto SourceFile.
// ---------------------------------------------------------------------

class FileLinter {
 public:
  FileLinter(const SourceFile& src, LintOptions options)
      : src_(src), options_(options) {}

  std::vector<Finding> run() {
    collect_unordered_names_();
    for (std::size_t i = 0; i < src_.lines.size(); ++i) {
      check_rng_(i);
      check_includes_(i);
      check_using_namespace_(i);
      if (options_.runtime_rules) check_unordered_iteration_(i);
    }
    check_hot_functions_();
    if (options_.wave_rules) check_wave_draws_();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return a.line < b.line;
              });
    return std::move(findings_);
  }

 private:
  void report_(std::size_t i, const std::string& rule,
               const std::string& message) {
    if (src_.allows(i, rule)) return;
    findings_.push_back(Finding{src_.path, i + 1, rule, message});
  }

  // ---------------------------------------------------- nondeterministic
  void check_rng_(std::size_t i) {
    const std::string& code = src_.lines[i].code;
    static const char* kBanned[] = {"rand(", "srand(", "std::rand(",
                                    "std::srand("};
    for (const char* call : kBanned) {
      if (contains_token(code, call)) {
        report_(i, "nondeterministic-rng",
                std::string("call to ") + call +
                    ") — derive draws from the campaign seed via rng:: "
                    "streams");
        return;
      }
    }
    static const std::regex kTimeCall(
        R"((^|[^:\w])(std::)?time\s*\(\s*(nullptr|NULL|0)?\s*\))");
    if (std::regex_search(code, kTimeCall)) {
      report_(i, "nondeterministic-rng",
              "wall-clock time() call — campaign behaviour must depend on "
              "the config seed only");
      return;
    }
    const std::size_t pos = code.find("std::random_device");
    if (pos != std::string::npos) {
      // A token-seeded random_device("...") is explicitly configured;
      // anything else (default construction) draws entropy.
      std::size_t end = pos + std::string("std::random_device").size();
      while (end < code.size() &&
             std::isspace(static_cast<unsigned char>(code[end]))) {
        ++end;
      }
      bool seeded = false;
      if (end < code.size() && code[end] == '(') {
        std::size_t inside = end + 1;
        while (inside < code.size() &&
               std::isspace(static_cast<unsigned char>(code[inside]))) {
          ++inside;
        }
        seeded = inside < code.size() && code[inside] != ')';
      }
      if (!seeded) {
        report_(i, "nondeterministic-rng",
                "default-constructed std::random_device draws OS entropy — "
                "seed from the campaign config instead");
      }
    }
  }

  // ------------------------------------------------ unordered iteration
  void collect_unordered_names_() {
    if (!options_.runtime_rules) return;
    static const std::regex kDecl(
        R"(std::unordered_\w+\s*<[^;{]*?>\s*[&*]{0,2}\s*(\w+))");
    for (const ScrubbedLine& line : src_.lines) {
      auto begin =
          std::sregex_iterator(line.code.begin(), line.code.end(), kDecl);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        unordered_names_.push_back((*it)[1].str());
      }
    }
  }

  void check_unordered_iteration_(std::size_t i) {
    const std::string& code = src_.lines[i].code;
    static const std::regex kRangeFor(R"(for\s*\([^;)]*:\s*([^)]+)\))");
    std::smatch match;
    if (std::regex_search(code, match, kRangeFor)) {
      const std::string range = match[1].str();
      if (range.find("unordered") != std::string::npos) {
        report_(i, "unordered-iteration",
                "range-for over a std::unordered_* container — hash order "
                "leaks into journals/reports; use a sorted or indexed "
                "container");
        return;
      }
      for (const std::string& name : unordered_names_) {
        if (contains_token(range, name)) {
          report_(i, "unordered-iteration",
                  "range-for over unordered container '" + name +
                      "' — hash order leaks into journals/reports");
          return;
        }
      }
    }
    for (const std::string& name : unordered_names_) {
      for (const char* method : {".begin(", ".end(", ".cbegin(", ".cend("}) {
        if (code.find(name + method) != std::string::npos) {
          report_(i, "unordered-iteration",
                  "iterator over unordered container '" + name +
                      "' — hash order leaks into journals/reports");
          return;
        }
      }
    }
  }

  // ----------------------------------------------------------- includes
  void check_includes_(std::size_t i) {
    const std::string& code = src_.lines[i].code;
    static const std::regex kInclude(R"(^\s*#\s*include\s*<([^>]+)>)");
    std::smatch match;
    if (!std::regex_search(code, match, kInclude)) return;
    const std::string header = match[1].str();
    static const std::pair<const char*, const char*> kCHeaders[] = {
        {"assert.h", "cassert"}, {"ctype.h", "cctype"},
        {"errno.h", "cerrno"},   {"float.h", "cfloat"},
        {"limits.h", "climits"}, {"math.h", "cmath"},
        {"signal.h", "csignal"}, {"stddef.h", "cstddef"},
        {"stdint.h", "cstdint"}, {"stdio.h", "cstdio"},
        {"stdlib.h", "cstdlib"}, {"string.h", "cstring"},
        {"time.h", "ctime"},
    };
    for (const auto& [c_name, cpp_name] : kCHeaders) {
      if (header == c_name) {
        report_(i, "include-c-header",
                std::string("#include <") + c_name + "> — use <" + cpp_name +
                    "> (C++ spelling, std:: namespace)");
        return;
      }
    }
    if (options_.header && header == "iostream") {
      report_(i, "include-iostream",
              "<iostream> in a header drags static stream initializers into "
              "every includer — use <ostream>/<iosfwd> in headers");
    }
  }

  // ---------------------------------------------------- using namespace
  void check_using_namespace_(std::size_t i) {
    if (!options_.header) return;
    static const std::regex kUsing(R"(^\s*using\s+namespace\s+\w)");
    if (std::regex_search(src_.lines[i].code, kUsing)) {
      report_(i, "using-namespace",
              "'using namespace' at header scope pollutes every includer");
    }
  }

  // ------------------------------------------------ scalar draw in wave
  void check_wave_draws_() {
    int depth = 0;
    int paren_depth = 0;
    bool pending_loop = false;
    std::vector<int> loop_depths;
    for (std::size_t i = 0; i < src_.lines.size(); ++i) {
      const std::string& code = src_.lines[i].code;
      const bool line_opens_loop = contains_token(code, "for") ||
                                   contains_token(code, "while") ||
                                   contains_token(code, "do");
      if ((!loop_depths.empty() || line_opens_loop || pending_loop) &&
          contains_token(code, "make_stream(")) {
        report_(i, "scalar-draw-in-wave",
                "make_stream() per loop iteration — a wave of independent "
                "keyed draws belongs in an rng::bulk_* kernel (the "
                "first_draw closed form skips building a full engine per "
                "stream), not a scalar loop");
      }
      if (line_opens_loop) pending_loop = true;
      for (const char c : code) {
        if (c == '(') {
          ++paren_depth;
        } else if (c == ')') {
          if (paren_depth > 0) --paren_depth;
        } else if (c == '{') {
          ++depth;
          if (pending_loop) {
            loop_depths.push_back(depth);
            pending_loop = false;
          }
        } else if (c == '}') {
          if (!loop_depths.empty() && loop_depths.back() == depth) {
            loop_depths.pop_back();
          }
          if (depth > 0) --depth;
        } else if (c == ';') {
          if (paren_depth == 0) pending_loop = false;
        }
      }
    }
  }

  // ---------------------------------------------------------- hot-alloc
  void check_hot_functions_() {
    for (std::size_t i = 0; i < src_.lines.size(); ++i) {
      if (!has_annotation(src_.lines[i].comment, "hot")) continue;
      scan_hot_body_(i);
    }
  }

  void scan_hot_body_(std::size_t annotation) {
    static const char* kAllocating[] = {
        "malloc(",       "calloc(",      "realloc(",  "free(",
        "push_back(",    "emplace_back(", "emplace(",  "insert(",
        "resize(",       "reserve(",     "make_unique(", "make_shared(",
        "to_string(",    "std::string(",
    };
    static const char* kPerElementGrowth[] = {
        "push_back(", "emplace_back(", "insert(", "emplace(", "try_emplace(",
    };
    static const char* kBlockingIo[] = {
        "fsync(", "fdatasync(", "fwrite(", "fflush(", "fopen(",
    };
    int depth = 0;
    int paren_depth = 0;
    bool in_body = false;
    bool pending_loop = false;
    std::vector<int> loop_depths;
    for (std::size_t i = annotation; i < src_.lines.size(); ++i) {
      const std::string& code = src_.lines[i].code;
      const bool line_opens_loop =
          in_body && (contains_token(code, "for") ||
                      contains_token(code, "while") ||
                      contains_token(code, "do"));
      if (in_body) {
        static const std::regex kNew(R"((^|[^:\w])new\s*[\w(<])");
        if (std::regex_search(code, kNew)) {
          report_(i, "hot-alloc",
                  "operator new inside a `redund: hot` function — hot paths "
                  "are contractually allocation-free");
        } else {
          for (const char* call : kAllocating) {
            if (contains_token(code, call)) {
              report_(i, "hot-alloc",
                      std::string("allocation-prone call ") + call +
                          ") inside a `redund: hot` function");
              break;
            }
          }
        }
        bool io_reported = false;
        for (const char* call : kBlockingIo) {
          if (contains_token(code, call)) {
            report_(i, "blocking-io-in-hot",
                    std::string("blocking I/O call ") + call +
                        ") inside a `redund: hot` function — keep I/O off "
                        "the per-event path (write at batch boundaries)");
            io_reported = true;
            break;
          }
        }
        if (!io_reported && (code.find("std::ofstream") != std::string::npos ||
                             code.find(".flush(") != std::string::npos)) {
          report_(i, "blocking-io-in-hot",
                  "stream write/flush inside a `redund: hot` function — "
                  "keep I/O off the per-event path (write at batch "
                  "boundaries)");
        }
        if (!loop_depths.empty() || line_opens_loop) {
          for (const char* call : kPerElementGrowth) {
            if (contains_token(code, call)) {
              report_(i, "hot-per-element-insert",
                      std::string("per-element ") + call +
                          ") inside a loop in a `redund: hot` function — "
                          "batch the growth (resize + index writes or bulk "
                          "insert) outside the per-element loop");
              break;
            }
          }
        }
      }
      if (line_opens_loop) pending_loop = true;
      for (const char c : code) {
        if (c == '(') {
          ++paren_depth;
        } else if (c == ')') {
          if (paren_depth > 0) --paren_depth;
        } else if (c == '{') {
          ++depth;
          in_body = true;
          if (pending_loop) {
            loop_depths.push_back(depth);
            pending_loop = false;
          }
        } else if (c == '}') {
          if (!loop_depths.empty() && loop_depths.back() == depth) {
            loop_depths.pop_back();
          }
          if (--depth == 0 && in_body) return;
        } else if (c == ';') {
          if (!in_body && i > annotation) {
            return;  // Declaration without a body: nothing to scan.
          }
          if (paren_depth == 0) pending_loop = false;
        }
      }
    }
  }

  const SourceFile& src_;
  LintOptions options_;
  std::vector<std::string> unordered_names_;
  std::vector<Finding> findings_;
};

// ---------------------------------------------------------------------
// Project rules.
// ---------------------------------------------------------------------

std::string last_component(const std::string& expr) {
  std::size_t pos = expr.rfind("->");
  std::size_t start = pos == std::string::npos ? 0 : pos + 2;
  pos = expr.rfind('.');
  if (pos != std::string::npos && pos + 1 > start) start = pos + 1;
  return expr.substr(start);
}

/// True when mutex `wanted` is held by `fn` at `line`, with member-path
/// leniency (a region holding "own.mutex" satisfies a guard on "mutex").
bool holds_lenient(const FunctionInfo& fn, const std::string& wanted,
                   std::size_t line) {
  for (const std::string& m : fn.requires_locks) {
    if (mutex_matches(m, wanted)) return true;
  }
  for (const LockRegion& region : fn.lock_regions) {
    if (region.first_line <= line && line <= region.last_line &&
        mutex_matches(region.mutex, wanted)) {
      return true;
    }
  }
  return false;
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
      if (edge.callee == i) continue;  // Direct hits are v1's job.
      if ((attrs.effective(edge.callee) & kAllocates) != 0U) {
        report_project_(
            graph, i, edge.line, "transitive-hot-alloc",
            "`redund: hot` function calls into allocating code: " +
                caller.qualified + " -> " +
                attrs.chain(edge.callee, kAllocates, graph),
            out);
      }
      if ((attrs.effective(edge.callee) & kBlocksIo) != 0U) {
        report_project_(
            graph, i, edge.line, "transitive-blocking-io-in-hot",
            "`redund: hot` function calls into blocking I/O: " +
                caller.qualified + " -> " +
                attrs.chain(edge.callee, kBlocksIo, graph),
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
          graph, i, w->line, "determinism-taint",
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
    const std::vector<Token> tokens = tokenize(file.source.lines);
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

      // Innermost enclosing function body.
      const FunctionInfo* fn = nullptr;
      for (const FunctionInfo& cand : file.functions) {
        if (!cand.has_body || token.line < cand.body_begin ||
            token.line > cand.body_end) {
          continue;
        }
        if (fn == nullptr || cand.body_begin > fn->body_begin) fn = &cand;
      }
      if (fn == nullptr) continue;  // Class scope (declaration).
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
        if (holds_lenient(*fn, field->mutex, token.line)) continue;
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
        if (holds_lenient(caller, m, edge.line)) continue;
        report_project_(
            graph, i, edge.line, "lock-requires",
            "call to " + callee.qualified + " which REDUND_REQUIRES(" + m +
                ") without holding '" + m + "'",
            out);
      }

      for (const std::string& m : attrs.effective_excludes(edge.callee)) {
        if (!holds_lenient(caller, m, edge.line)) continue;
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

bool mutex_matches(const std::string& held, const std::string& wanted) {
  if (held == wanted) return true;
  if (last_component(held) == wanted) return true;
  if (last_component(wanted) == held) return true;
  return false;
}

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

std::vector<Finding> run_file_rules(const SourceFile& src,
                                    const LintOptions& options) {
  return FileLinter(src, options).run();
}

void run_project_rules(const CallGraph& graph, const AttributeMap& attrs,
                       const std::vector<ParsedFile>& files,
                       std::vector<Finding>& out) {
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
}

}  // namespace redund::analysis
