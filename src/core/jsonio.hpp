// Shared subset-JSON reader/writer helpers.
//
// Every JSON surface in the repo (fault schedules, the bench/e2e reports
// and traces) speaks the same deliberately small dialect: objects,
// arrays, strings, numbers, bools, null — no comments, no NaN/Inf
// literals. jsonio gives them one recursive-descent cursor and one set
// of writer primitives so the dialect cannot drift between modules and
// the tools stay dependency-free.
//
// The cursor throws std::runtime_error on malformed input rather than
// guessing; callers prepend their own context via the `context` tag
// passed at construction ("fault plan JSON: ...").
#pragma once

#include <string>

namespace redund::core {

/// Appends `text` to `out` as a quoted, escaped JSON string literal.
void json_append_escaped(std::string& out, const std::string& text);

/// Formats a double as the shortest round-trippable decimal ("%.17g").
[[nodiscard]] std::string json_format_double(double value);

/// Minimal recursive-descent reader for the repo's JSON subset.
///
/// The cursor does not own the text; the string passed to the
/// constructor must outlive it. Typical loop over an object:
///
///   JsonCursor c(text, "fault plan JSON");
///   c.expect('{');
///   if (!c.consume_if('}')) {
///     do {
///       const std::string key = c.parse_string();
///       c.expect(':');
///       if (key == "...") { ... } else c.skip_value();
///     } while (c.consume_if(','));
///     c.expect('}');
///   }
class JsonCursor {
 public:
  /// `context` prefixes every error message ("<context>: <what>").
  JsonCursor(const std::string& text, std::string context);

  /// Skips whitespace.
  void skip_ws();

  /// True when only whitespace remains.
  [[nodiscard]] bool at_end();

  /// Next non-whitespace character without consuming it.
  [[nodiscard]] char peek();

  /// Consumes `c` or fails.
  void expect(char c);

  /// Consumes `c` if it is next; returns whether it did.
  [[nodiscard]] bool consume_if(char c);

  /// Parses a quoted string with the standard escapes (incl. \uXXXX,
  /// BMP-only, encoded as UTF-8).
  [[nodiscard]] std::string parse_string();

  /// Parses a number.
  [[nodiscard]] double parse_number();

  /// Parses and discards any value (for unknown keys).
  void skip_value();

  /// Throws std::runtime_error("<context>: <what>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  /// Deepest container nesting skip_value() will follow before failing
  /// (stack-exhaustion guard; real files in the repo nest 3-4 levels).
  static constexpr int kMaxSkipDepth = 256;

  void skip_value_(int depth);

  const char* p_;
  const char* end_;
  std::string context_;
};

}  // namespace redund::core
