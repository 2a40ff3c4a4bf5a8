#include "lint/parse.hpp"

#include <algorithm>
#include <array>

namespace redund::lint {

namespace {

/// Keywords that can precede a '(' without being a call or a function
/// name. Also used to reject declaration-statement false positives.
bool is_noncall_keyword(const std::string& word) {
  static const char* kWords[] = {
      "if",        "for",          "while",        "switch",
      "catch",     "return",       "sizeof",       "alignof",
      "alignas",   "decltype",     "static_assert", "new",
      "delete",    "throw",        "case",         "else",
      "do",        "goto",         "co_await",     "co_return",
      "co_yield",  "static_cast",  "dynamic_cast", "const_cast",
      "reinterpret_cast",          "typeid",       "noexcept",
      "requires",  "asm",          "assert",
  };
  return std::any_of(std::begin(kWords), std::end(kWords),
                     [&](const char* w) { return word == w; });
}

/// Keywords after which an identifier-then-'(' IS a call, not a
/// declaration ("return helper(x)", "case f(x):" ...).
bool is_call_context_keyword(const std::string& word) {
  static const char* kWords[] = {"return",    "throw",    "case",
                                 "else",      "do",       "co_return",
                                 "co_await",  "co_yield", "goto"};
  return std::any_of(std::begin(kWords), std::end(kWords),
                     [&](const char* w) { return word == w; });
}

bool is_lock_tag(const std::string& word) {
  return word == "try_to_lock" || word == "defer_lock" ||
         word == "adopt_lock" || word == "std";
}

class Parser {
 public:
  explicit Parser(ParsedFile& out) : out_(out), tokens_(out.tokens) {}

  void run() {
    const std::size_t n = tokens_.size();
    std::size_t i = 0;
    while (i < n) {
      const Token& t = tokens_[i];
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "{") {
          push_scope_(Scope::kBlock, "");
          ++i;
        } else if (t.text == "}") {
          pop_scope_();
          ++i;
        } else if (t.text == "~" && i + 1 < n &&
                   tokens_[i + 1].kind == Token::Kind::kIdent) {
          // Destructor header: `~Pool() {...}` starts on punctuation.
          std::size_t next = 0;
          i = try_function_(i, next) ? next : i + 1;
        } else {
          ++i;
        }
        continue;
      }
      if (t.kind != Token::Kind::kIdent) {
        ++i;
        continue;
      }
      if (t.text == "namespace") {
        i = parse_namespace_(i);
      } else if (t.text == "class" || t.text == "struct" ||
                 t.text == "union") {
        i = parse_class_head_(i);
      } else if (t.text == "enum") {
        i = skip_enum_(i);
      } else if (t.text == "template") {
        i = skip_angles_(i + 1);
      } else if (t.text == "using" || t.text == "typedef" ||
                 t.text == "friend" || t.text == "extern" ||
                 t.text == "static_assert") {
        i = skip_to_semicolon_(i);
      } else if (t.text == "REDUND_GUARDED_BY") {
        i = parse_guarded_field_(i);
      } else {
        std::size_t next = 0;
        if (try_function_(i, next)) {
          i = next;
        } else {
          ++i;
        }
      }
    }
    attach_annotations_();
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kBlock };
    Kind kind = kBlock;
    std::string name;
  };

  const Token& tok_(std::size_t i) const {
    static const Token kEnd{Token::Kind::kPunct, "", 0};
    return i < tokens_.size() ? tokens_[i] : kEnd;
  }
  bool punct_(std::size_t i, const char* text) const {
    return tok_(i).kind == Token::Kind::kPunct && tok_(i).text == text;
  }
  bool ident_(std::size_t i) const {
    return tok_(i).kind == Token::Kind::kIdent;
  }

  void push_scope_(Scope::Kind kind, std::string name) {
    scopes_.push_back(Scope{kind, std::move(name)});
  }
  void pop_scope_() {
    if (!scopes_.empty()) scopes_.pop_back();
  }

  std::string innermost_class_() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return "";
  }

  std::string scope_prefix_() const {
    std::string prefix;
    for (const Scope& scope : scopes_) {
      if (scope.name.empty()) continue;
      prefix += scope.name;
      prefix += "::";
    }
    return prefix;
  }

  /// Skips a balanced <...> group starting at `i` (which must be '<');
  /// returns the index past the closing '>'. Returns `i` unchanged when
  /// not at '<'.
  std::size_t skip_angles_(std::size_t i) const {
    if (!punct_(i, "<")) return i;
    int depth = 0;
    const std::size_t n = tokens_.size();
    while (i < n) {
      if (punct_(i, "<")) {
        ++depth;
      } else if (punct_(i, ">")) {
        if (--depth == 0) return i + 1;
      } else if (punct_(i, ";") || punct_(i, "{")) {
        return i;  // Not a template argument list after all; bail out.
      }
      ++i;
    }
    return i;
  }

  /// Skips a balanced (...) group starting at '('; returns index past ')'.
  std::size_t skip_parens_(std::size_t i) const {
    if (!punct_(i, "(")) return i;
    int depth = 0;
    const std::size_t n = tokens_.size();
    while (i < n) {
      if (punct_(i, "(")) {
        ++depth;
      } else if (punct_(i, ")")) {
        if (--depth == 0) return i + 1;
      }
      ++i;
    }
    return i;
  }

  /// Skips a balanced {...} group starting at '{'; returns index past '}'.
  std::size_t skip_braces_(std::size_t i) const {
    if (!punct_(i, "{")) return i;
    int depth = 0;
    const std::size_t n = tokens_.size();
    while (i < n) {
      if (punct_(i, "{")) {
        ++depth;
      } else if (punct_(i, "}")) {
        if (--depth == 0) return i + 1;
      }
      ++i;
    }
    return i;
  }

  std::size_t skip_to_semicolon_(std::size_t i) const {
    const std::size_t n = tokens_.size();
    int brace = 0;
    while (i < n) {
      if (punct_(i, "{")) ++brace;
      if (punct_(i, "}")) --brace;
      if (punct_(i, ";") && brace <= 0) return i + 1;
      ++i;
    }
    return i;
  }

  std::size_t parse_namespace_(std::size_t i) {
    std::size_t j = i + 1;
    std::string name;
    while (ident_(j) || punct_(j, "::")) {
      if (ident_(j)) name += tok_(j).text;
      else name += "::";
      ++j;
    }
    if (punct_(j, "{")) {
      push_scope_(Scope::kNamespace, name);
      return j + 1;
    }
    if (punct_(j, "=")) return skip_to_semicolon_(j);  // Namespace alias.
    return i + 1;
  }

  std::size_t parse_class_head_(std::size_t i) {
    // class/struct [attrs] Name [final] [: bases] { ... } | ; | variable.
    std::size_t j = i + 1;
    std::string name;
    const std::size_t n = tokens_.size();
    while (j < n) {
      if (ident_(j)) {
        if (tok_(j).text != "final" && tok_(j).text != "alignas") {
          name = tok_(j).text;
        }
        ++j;
        continue;
      }
      if (punct_(j, "<")) {  // Specialization head: class Foo<int> ...
        j = skip_angles_(j);
        continue;
      }
      if (punct_(j, ":")) {
        // Base clause: scan to the body '{' at bracket depth 0.
        int paren = 0;
        int angle = 0;
        ++j;
        while (j < n) {
          if (punct_(j, "(")) ++paren;
          else if (punct_(j, ")")) --paren;
          else if (punct_(j, "<")) ++angle;
          else if (punct_(j, ">")) --angle;
          else if (punct_(j, "{") && paren == 0 && angle <= 0) break;
          else if (punct_(j, ";")) return j + 1;
          ++j;
        }
        continue;
      }
      if (punct_(j, "{")) {
        push_scope_(Scope::kClass, name);
        return j + 1;
      }
      if (punct_(j, ";")) return j + 1;  // Forward declaration.
      if (punct_(j, "(")) return i + 1;  // Not a class head (macro etc.).
      ++j;
    }
    return j;
  }

  std::size_t skip_enum_(std::size_t i) const {
    std::size_t j = i + 1;
    if (ident_(j) && (tok_(j).text == "class" || tok_(j).text == "struct")) {
      ++j;
    }
    while (ident_(j) || punct_(j, "::") || punct_(j, ":")) ++j;
    if (punct_(j, "{")) return skip_braces_(j);
    return skip_to_semicolon_(i);
  }

  std::size_t parse_guarded_field_(std::size_t i) {
    GuardedField field;
    field.class_name = innermost_class_();
    field.line = tok_(i).line;
    // Field name: the declarator's identifier. Skip trailing `[extent]`
    // and `(parameter)` groups first, so `int buf_[kN]` names `buf_`, not
    // `kN`; in a function pointer, `void (*fn_)(void*)`, the name sits
    // inside the first group skipped.
    std::size_t name_end = i;
    while (name_end > 0 &&
           (punct_(name_end - 1, ")") || punct_(name_end - 1, "]"))) {
      int depth = 0;
      do {
        --name_end;
        if (punct_(name_end, ")") || punct_(name_end, "]")) ++depth;
        if (punct_(name_end, "(") || punct_(name_end, "[")) --depth;
      } while (depth > 0 && name_end > 0);
    }
    if (name_end < i && punct_(name_end, "(")) {
      name_end = skip_parens_(name_end);
    }
    for (std::size_t j = name_end; j-- > 0;) {
      if (tokens_[j].kind == Token::Kind::kIdent) {
        field.field = tokens_[j].text;
        break;
      }
    }
    // Mutex: last identifier inside the macro's parens.
    std::size_t j = i + 1;
    const std::size_t end = skip_parens_(j);
    for (std::size_t k = end; k-- > j;) {
      if (tokens_[k].kind == Token::Kind::kIdent) {
        field.mutex = tokens_[k].text;
        break;
      }
    }
    if (!field.field.empty() && !field.mutex.empty()) {
      out_.guarded_fields.push_back(std::move(field));
    }
    return end;
  }

  /// Splits the (...) group starting at `open` into top-level comma
  /// arguments and returns the last identifier of each (skipping lock
  /// tags). Used for guard constructors and REDUND_* annotation args.
  std::vector<std::string> paren_arg_names_(std::size_t open,
                                            std::size_t* past) const {
    std::vector<std::string> names;
    std::size_t i = open;
    if (!punct_(i, "(")) {
      if (past != nullptr) *past = open;
      return names;
    }
    int depth = 0;
    std::string last_ident;
    const std::size_t n = tokens_.size();
    while (i < n) {
      if (punct_(i, "(")) {
        ++depth;
      } else if (punct_(i, ")")) {
        if (--depth == 0) {
          if (!last_ident.empty()) names.push_back(last_ident);
          ++i;
          break;
        }
      } else if (punct_(i, ",") && depth == 1) {
        if (!last_ident.empty()) names.push_back(last_ident);
        last_ident.clear();
      } else if (ident_(i) && !is_lock_tag(tok_(i).text)) {
        last_ident = tok_(i).text;
      }
      ++i;
    }
    if (past != nullptr) *past = i;
    return names;
  }

  /// Attempts to parse a function declaration or definition whose name
  /// starts at token `i`. On success, appends to out_.functions and sets
  /// `next` to the first token after it.
  bool try_function_(std::size_t i, std::size_t& next) {
    FunctionInfo fn;
    std::size_t j = i;
    bool dtor = false;
    std::vector<std::string> parts;
    if (punct_(j, "~")) {
      dtor = true;
      ++j;
    }
    // Qualified name: ident (::{~}ident)* or trailing operator<symbols>.
    while (true) {
      if (ident_(j) && tok_(j).text == "operator") {
        std::string op = "operator";
        ++j;
        if (ident_(j)) {  // Conversion operator: `operator bool`.
          op += " " + tok_(j).text;
          ++j;
        } else {
          while (j < tokens_.size() && tok_(j).kind == Token::Kind::kPunct &&
                 !punct_(j, "(")) {
            op += tok_(j).text;
            ++j;
          }
          if (punct_(j, "(") && punct_(j + 1, ")") && punct_(j + 2, "(")) {
            op += "()";  // operator()
            j += 2;
          }
        }
        parts.push_back(op);
        break;
      }
      if (!ident_(j) || is_noncall_keyword(tok_(j).text)) return false;
      std::string part = tok_(j).text;
      ++j;
      if (punct_(j, "<")) {
        const std::size_t after = skip_angles_(j);
        if (after == j) return false;
        j = after;
      }
      if (punct_(j, "::")) {
        parts.push_back(part);
        ++j;
        if (punct_(j, "~")) {
          dtor = true;
          ++j;
        }
        continue;
      }
      parts.push_back(part);
      break;
    }
    if (parts.empty() || !punct_(j, "(")) return false;
    fn.header_line = tok_(i).line;
    const std::size_t params_end = skip_parens_(j);
    if (params_end == j) return false;
    j = params_end;

    // Specifier region: scan until '{' (definition), ';' (declaration),
    // or something that disqualifies the candidate.
    bool has_body = false;
    const std::size_t n = tokens_.size();
    while (j < n) {
      if (punct_(j, "{")) {
        has_body = true;
        break;
      }
      if (punct_(j, ";")) break;
      if (punct_(j, "=")) {
        // = default / = delete / = 0, then ';'.
        j = skip_to_semicolon_(j);
        --j;  // Land on the ';' for the loop exit above.
        if (!punct_(j, ";")) return false;
        continue;
      }
      if (ident_(j)) {
        const std::string& word = tok_(j).text;
        if (word == "const" || word == "override" || word == "final" ||
            word == "mutable" || word == "volatile" || word == "try") {
          ++j;
          continue;
        }
        if (word == "noexcept" || word == "throw" || word == "requires") {
          ++j;
          j = skip_parens_(j);
          continue;
        }
        if (word == "REDUND_REQUIRES" || word == "REDUND_EXCLUDES") {
          std::size_t past = 0;
          auto names = paren_arg_names_(j + 1, &past);
          auto& dest =
              word == "REDUND_REQUIRES" ? fn.requires_locks : fn.excludes_locks;
          dest.insert(dest.end(), names.begin(), names.end());
          j = past;
          continue;
        }
        return false;  // An identifier here means "not a function header".
      }
      if (punct_(j, "&") || punct_(j, "&&")) {
        ++j;
        continue;
      }
      if (punct_(j, "->")) {
        // Trailing return type: skip to the body '{' or ';' at depth 0.
        ++j;
        int paren = 0;
        int angle = 0;
        while (j < n) {
          if (punct_(j, "(")) ++paren;
          else if (punct_(j, ")")) --paren;
          else if (punct_(j, "<")) ++angle;
          else if (punct_(j, ">")) --angle;
          else if ((punct_(j, "{") || punct_(j, ";")) && paren == 0 &&
                   angle <= 0) {
            break;
          }
          ++j;
        }
        continue;
      }
      if (punct_(j, ":")) {
        // Constructor init list: member(args) or member{args}, comma-
        // separated, then the body '{'.
        ++j;
        while (j < n) {
          while (ident_(j) || punct_(j, "::")) ++j;
          if (punct_(j, "<")) j = skip_angles_(j);
          if (punct_(j, "(")) {
            j = skip_parens_(j);
          } else if (punct_(j, "{")) {
            // Brace initializer — but a '{' NOT preceded by an
            // initializable name is the body itself.
            const Token& prev = tok_(j - 1);
            const bool initializer =
                prev.kind == Token::Kind::kIdent || prev.text == ">";
            if (!initializer) break;
            j = skip_braces_(j);
          }
          if (punct_(j, ",")) {
            ++j;
            continue;
          }
          break;
        }
        continue;
      }
      return false;
    }
    if (j >= n) return false;

    fn.name = parts.back();
    if (dtor) fn.name = "~" + fn.name;
    std::string explicit_qual;
    for (std::size_t p = 0; p + 1 < parts.size(); ++p) {
      explicit_qual += parts[p];
      explicit_qual += "::";
    }
    fn.class_name = parts.size() > 1 ? parts[parts.size() - 2]
                                     : innermost_class_();
    fn.qualified = scope_prefix_() + explicit_qual + fn.name;
    fn.is_dtor = dtor;
    fn.is_ctor = !dtor && !fn.class_name.empty() && fn.name == fn.class_name;

    if (has_body) {
      fn.has_body = true;
      fn.body_open = j;
      next = scan_body_(j, fn);
    } else {
      next = j + 1;  // Past the ';'.
    }
    out_.functions.push_back(std::move(fn));
    return true;
  }

  /// Scans a function body starting at its '{' token: records call
  /// sites, RAII lock regions, and loop containment. Returns the index
  /// past the closing '}'.
  std::size_t scan_body_(std::size_t open, FunctionInfo& fn) {
    const std::size_t n = tokens_.size();
    int depth = 0;
    int paren = 0;
    bool pending_loop = false;
    std::vector<int> loop_depths;
    struct OpenRegion {
      std::string mutex;
      std::size_t first_line;
      int depth;
    };
    std::vector<OpenRegion> open_regions;
    std::size_t i = open;
    while (i < n) {
      const Token& t = tokens_[i];
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "{") {
          ++depth;
          if (pending_loop) {
            loop_depths.push_back(depth);
            pending_loop = false;
          }
          ++i;
          continue;
        }
        if (t.text == "}") {
          if (!loop_depths.empty() && loop_depths.back() == depth) {
            loop_depths.pop_back();
          }
          // Close lock regions scoped to the block that just ended.
          for (std::size_t r = open_regions.size(); r-- > 0;) {
            if (open_regions[r].depth == depth) {
              fn.lock_regions.push_back(LockRegion{
                  open_regions[r].mutex, open_regions[r].first_line, t.line});
              open_regions.erase(open_regions.begin() +
                                 static_cast<std::ptrdiff_t>(r));
            }
          }
          --depth;
          ++i;
          if (depth == 0) {
            fn.body_close = i - 1;
            return i;
          }
          continue;
        }
        if (t.text == "(") ++paren;
        if (t.text == ")" && paren > 0) --paren;
        if (t.text == ";" && paren == 0) pending_loop = false;
        ++i;
        continue;
      }
      if (t.kind != Token::Kind::kIdent) {
        ++i;
        continue;
      }
      const std::string& word = t.text;
      if (word == "for" || word == "while" || word == "do") {
        pending_loop = true;
        ++i;
        continue;
      }
      // Explicit m.lock(): held to the end of the enclosing block (the
      // tree uses RAII guards; this is a safety net, not unlock-aware).
      if (word == "lock" && punct_(i + 1, "(") &&
          (punct_(i - 1, ".") || punct_(i - 1, "->")) && i >= 2 &&
          ident_(i - 2)) {
        open_regions.push_back(
            OpenRegion{tokens_[i - 2].text, t.line, depth});
        i = skip_parens_(i + 1);
        continue;
      }
      // Call site: qualified-ident sequence followed by '('.
      if (!is_noncall_keyword(word)) {
        std::size_t j = i;
        std::string name = word;
        while (punct_(j + 1, "::") && ident_(j + 2)) {
          name += "::" + tok_(j + 2).text;
          j += 2;
        }
        // RAII guard: [std::]lock_guard/unique_lock/scoped_lock<T> v(m).
        // Detected on the full qualified name so the std:: spelling is
        // caught (the walk above has already swallowed the last ident).
        const std::size_t sep = name.rfind("::");
        const std::string last_part =
            sep == std::string::npos ? name : name.substr(sep + 2);
        if (last_part == "lock_guard" || last_part == "unique_lock" ||
            last_part == "scoped_lock") {
          std::size_t k = skip_angles_(j + 1);
          if (ident_(k)) ++k;  // Variable name.
          if (punct_(k, "(")) {
            std::size_t past = 0;
            for (const std::string& m : paren_arg_names_(k, &past)) {
              open_regions.push_back(OpenRegion{m, t.line, depth});
            }
            i = past;
            continue;
          }
          i = j + 1;
          continue;
        }
        std::size_t after_name = j + 1;
        if (punct_(after_name, "<")) {
          const std::size_t past = skip_angles_(after_name);
          // Only treat as template args if a '(' follows the '>'.
          if (past != after_name && punct_(past, "(")) after_name = past;
        }
        if (punct_(after_name, "(")) {
          const Token& prev = i > 0 ? tokens_[i - 1] : Token{};
          const bool member = prev.text == "." || prev.text == "->";
          bool declaration = false;
          if (!member && prev.kind == Token::Kind::kIdent &&
              !is_call_context_keyword(prev.text)) {
            declaration = true;  // `Type name(...)` pattern.
          }
          if (prev.kind == Token::Kind::kIdent && prev.text == "new") {
            declaration = true;  // Constructor call; `new` is the finding.
          }
          if (!declaration) {
            fn.calls.push_back(CallSite{t.line, name, member,
                                        pending_loop || !loop_depths.empty()});
          }
          i = after_name + 1;
          ++paren;
          continue;
        }
        i = j + 1;
        continue;
      }
      ++i;
    }
    fn.body_close = n;  // Unterminated body: runs to the end of file.
    return i;
  }

  /// Maps `// redund: hot` / `// redund: deterministic` comment lines to
  /// the next function header, unless a ';' lies between the two.
  void attach_annotations_() {
    std::vector<std::pair<std::size_t, bool>> markers;  // line, is_hot
    for (std::size_t li = 0; li < out_.source.lines.size(); ++li) {
      const std::string& comment = out_.source.lines[li].comment;
      if (has_annotation(comment, "hot")) {
        markers.emplace_back(li, true);
      }
      if (has_annotation(comment, "deterministic")) {
        markers.emplace_back(li, false);
      }
    }
    if (markers.empty()) return;
    // Functions (declarations included — a header prototype may carry
    // the annotation, merged into the definition by CallGraph::build)
    // sorted by header line for the nearest-following lookup.
    std::vector<FunctionInfo*> defs;
    for (FunctionInfo& fn : out_.functions) defs.push_back(&fn);
    std::sort(defs.begin(), defs.end(),
              [](const FunctionInfo* a, const FunctionInfo* b) {
                return a->header_line < b->header_line;
              });
    for (const auto& [line, is_hot] : markers) {
      FunctionInfo* best = nullptr;
      for (FunctionInfo* fn : defs) {
        if (fn->header_line >= line) {
          best = fn;
          break;
        }
      }
      if (best == nullptr) continue;
      // The annotation must not cross a ';' (a declaration between it
      // and the header).
      bool crossed = false;
      for (std::size_t li = line; li < best->header_line && !crossed; ++li) {
        crossed = out_.source.lines[li].code.find(';') != std::string::npos;
      }
      if (crossed) continue;
      if (is_hot) best->hot = true;
      else best->deterministic = true;
    }
  }

  ParsedFile& out_;
  const std::vector<Token>& tokens_;
  std::vector<Scope> scopes_;
};

}  // namespace

bool mutex_matches(const std::string& held, const std::string& wanted) {
  const auto last_component = [](const std::string& expr) {
    std::size_t pos = expr.rfind("->");
    std::size_t start = pos == std::string::npos ? 0 : pos + 2;
    pos = expr.rfind('.');
    if (pos != std::string::npos && pos + 1 > start) start = pos + 1;
    return expr.substr(start);
  };
  return held == wanted || last_component(held) == wanted ||
         last_component(wanted) == held;
}

bool FunctionInfo::holds_at(const std::string& m, std::size_t line) const {
  for (const std::string& held : requires_locks) {
    if (mutex_matches(held, m)) return true;
  }
  for (const LockRegion& region : lock_regions) {
    if (region.first_line <= line && line <= region.last_line &&
        mutex_matches(region.mutex, m)) {
      return true;
    }
  }
  return false;
}

ParsedFile parse_file(std::string path, const std::string& text) {
  ParsedFile parsed;
  parsed.source = SourceFile::parse(std::move(path), text);
  parsed.tokens = tokenize(parsed.source.lines);
  Parser parser(parsed);
  parser.run();
  return parsed;
}

}  // namespace redund::lint
