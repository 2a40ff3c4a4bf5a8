// Source-text layer of the analyzer: comment/string/raw-literal
// scrubbing, `redund-lint: allow(...)` suppression parsing, and a light
// identifier tokenizer.
//
// Everything else in tools/lint/ reads a file through this layer, so the
// function parser, the pattern matcher and the rules all see the same
// scrubbed view of it.
//
// Scrubbing contract: `code` keeps the original column positions (string
// and comment bodies are blanked with spaces) so line/column diagnostics
// point at real source, and `comment` concatenates the comment text of the
// line, which is where `redund:` annotations and `redund-lint:` allow()
// suppressions live.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace redund::lint {

/// One source line after comment/string stripping.
struct ScrubbedLine {
  std::string code;     ///< Comments/strings blanked, columns preserved.
  std::string comment;  ///< Concatenated comment text of the line.
};

/// Comment/string scanner. Handles //, /* */, "..." with escapes, '...'
/// with escapes, and raw strings R"delim(...)delim". Operates on the whole
/// file so block comments and raw strings may span lines.
[[nodiscard]] std::vector<ScrubbedLine> scrub_source(const std::string& text);

/// Parses `redund-lint: allow(a, b)` out of a comment; returns the allowed
/// rule names (or {"all"}).
[[nodiscard]] std::vector<std::string> allowed_rules(
    const std::string& comment);

[[nodiscard]] bool is_identifier_char(char c);

/// True when `comment` IS a `redund: <kind>` annotation (possibly with
/// trailing prose), as opposed to a comment that merely mentions one.
/// Leading doc-comment decoration (`/`, `*`, `-`, whitespace) is skipped;
/// anything else before `redund:` disqualifies the line, so
/// "Maps `// redund: hot` comments..." in the linter's own docs does not
/// annotate the next function.
[[nodiscard]] bool has_annotation(const std::string& comment,
                                  const char* kind);

/// A file loaded, scrubbed, and annotated with per-line allow() sets.
struct SourceFile {
  std::string path;
  std::vector<ScrubbedLine> lines;
  std::vector<std::vector<std::string>> allow;  ///< Per line, parallel.

  [[nodiscard]] static SourceFile parse(std::string path,
                                        const std::string& text);

  /// True when `rule` (or `all`) is allowed on `line` or the line directly
  /// above it.
  [[nodiscard]] bool allows(std::size_t line, const std::string& rule) const;
};

/// One lexical token of scrubbed code. The tokenizer recognizes
/// identifiers, pp-numbers, and punctuation; `::` and `->` are fused into
/// single tokens because the parser treats them as name/member glue.
struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  std::size_t line = 0;  ///< 0-based line index.
};

/// Tokenizes scrubbed code lines. Blanked string/comment regions produce
/// no tokens, so every token is real code.
[[nodiscard]] std::vector<Token> tokenize(
    const std::vector<ScrubbedLine>& lines);

}  // namespace redund::lint
