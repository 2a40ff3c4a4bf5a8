// Function/body extraction over the token stream: a C++-subset parser
// good enough to recover, per file, the set of function definitions and
// declarations (with qualified names and body line ranges), the call
// sites inside each body, the lock-hold regions implied by RAII guards
// and REDUND_REQUIRES annotations, and the REDUND_GUARDED_BY field map.
//
// This is deliberately not a real C++ front end. It tracks namespace and
// class scope by brace matching, recognizes a function header as
// `name(params) specifiers... {` at namespace/class scope, and treats
// everything between the body braces as that function's lines. Template
// headers, operator overloads, constructors with init lists, trailing
// return types, and nested lambdas are handled; exotic shapes (function-
// try-blocks, preprocessor conditionals that unbalance braces) are not —
// the tree doesn't use them, and the self-test pins the shapes it does.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/source.hpp"

namespace redund::lint {

/// One call site inside a function body.
struct CallSite {
  std::size_t line = 0;  ///< 0-based line of the callee name.
  std::string name;      ///< As written, possibly qualified ("A::f").
  bool member_access = false;  ///< Written as `obj.f(...)` / `ptr->f(...)`.
  bool in_loop = false;        ///< Inside a loop body in this function.
};

/// A contiguous range of lines during which a mutex is held (an RAII
/// guard's scope, approximated at line granularity).
struct LockRegion {
  std::string mutex;           ///< Last identifier of the guard argument.
  std::size_t first_line = 0;  ///< 0-based, inclusive.
  std::size_t last_line = 0;   ///< 0-based, inclusive.
};

struct FunctionInfo {
  std::string name;        ///< Last name component ("enqueue_", "operator()").
  std::string qualified;   ///< Fully scope-qualified ("ns::Class::name").
  std::string class_name;  ///< Innermost enclosing class ("" if free).
  std::size_t header_line = 0;  ///< 0-based line of the name token.
  std::size_t body_open = 0;    ///< Token index of the opening '{'.
  std::size_t body_close = 0;   ///< Token index of the closing '}'.
  bool has_body = false;
  bool is_ctor = false;
  bool is_dtor = false;
  bool hot = false;            ///< `// redund: hot` annotation.
  bool deterministic = false;  ///< `// redund: deterministic` annotation.
  std::vector<std::string> requires_locks;  ///< REDUND_REQUIRES(m) args.
  std::vector<std::string> excludes_locks;  ///< REDUND_EXCLUDES(m) args.
  std::vector<LockRegion> lock_regions;     ///< RAII-guard hold regions.
  std::vector<CallSite> calls;

  /// True when token `t` lies strictly between the body braces.
  [[nodiscard]] bool in_body(std::size_t t) const {
    return has_body && body_open < t && t < body_close;
  }

  /// True when mutex `m` is held at `line`: inside a guard region or
  /// declared held by REDUND_REQUIRES, matched by mutex_matches().
  [[nodiscard]] bool holds_at(const std::string& m, std::size_t line) const;
};

/// True when a held-mutex expression satisfies a wanted mutex name:
/// exact match, or the last member component matches ("own.mutex" holds
/// "mutex").
[[nodiscard]] bool mutex_matches(const std::string& held,
                                 const std::string& wanted);

/// A field declaration carrying REDUND_GUARDED_BY(m).
struct GuardedField {
  std::string class_name;
  std::string field;
  std::string mutex;
  std::size_t line = 0;  ///< 0-based declaration line.
};

struct ParsedFile {
  SourceFile source;
  std::vector<Token> tokens;
  std::vector<FunctionInfo> functions;
  std::vector<GuardedField> guarded_fields;
};

/// Parses one file: scrub, tokenize, extract functions/annotations.
[[nodiscard]] ParsedFile parse_file(std::string path, const std::string& text);

}  // namespace redund::lint
