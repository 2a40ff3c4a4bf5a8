#include "lint/source.hpp"

#include <cctype>

namespace redund::lint {

std::vector<ScrubbedLine> scrub_source(const std::string& text) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  std::vector<ScrubbedLine> lines(1);
  State state = State::kCode;
  std::string raw_delimiter;  // For kRaw: the ")delim\"" terminator.
  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      // Unterminated ordinary string/char at EOL: ill-formed anyway; reset
      // so one bad line cannot blank the rest of the file.
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;
      }
      lines.emplace_back();
      continue;
    }
    ScrubbedLine& line = lines.back();
    switch (state) {
      case State::kCode: {
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
          state = State::kLineComment;
          ++i;
          break;
        }
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
          state = State::kBlockComment;
          line.code += "  ";
          ++i;
          break;
        }
        if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
          // Raw string: R"delim( ... )delim". Collect the delimiter.
          std::size_t j = i + 2;
          std::string delimiter;
          while (j < n && text[j] != '(' && text[j] != '\n' &&
                 delimiter.size() <= 16) {
            delimiter += text[j++];
          }
          if (j < n && text[j] == '(') {
            raw_delimiter = ")" + delimiter + "\"";
            state = State::kRaw;
            line.code.append(j - i + 1, ' ');
            i = j;
            break;
          }
          line.code += c;  // Not actually a raw string; fall through.
          break;
        }
        if (c == '"') {
          state = State::kString;
          line.code += ' ';
          break;
        }
        if (c == '\'') {
          state = State::kChar;
          line.code += ' ';
          break;
        }
        line.code += c;
        break;
      }
      case State::kLineComment:
        line.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          state = State::kCode;
          ++i;
        } else {
          line.comment += c;
        }
        break;
      case State::kString:
      case State::kChar: {
        if (c == '\\' && i + 1 < n) {
          ++i;
          line.code += "  ";
          break;
        }
        if ((state == State::kString && c == '"') ||
            (state == State::kChar && c == '\'')) {
          state = State::kCode;
        }
        line.code += ' ';
        break;
      }
      case State::kRaw: {
        if (c == ')' &&
            text.compare(i, raw_delimiter.size(), raw_delimiter) == 0) {
          i += raw_delimiter.size() - 1;
          line.code.append(raw_delimiter.size(), ' ');
          state = State::kCode;
        } else {
          line.code += ' ';
        }
        break;
      }
    }
  }
  return lines;
}

std::vector<std::string> allowed_rules(const std::string& comment) {
  static constexpr const char kMarker[] = "redund-lint:";
  static constexpr const char kSpace[] = " \t\r\f\v";
  std::vector<std::string> rules;
  for (std::size_t at = comment.find(kMarker); at != std::string::npos;
       at = comment.find(kMarker, at + 1)) {
    std::size_t open = comment.find_first_not_of(kSpace,
                                                 at + sizeof(kMarker) - 1);
    if (open == std::string::npos || comment.compare(open, 6, "allow(") != 0) {
      continue;
    }
    open += 6;
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    for (std::size_t start = open; start <= close;) {
      std::size_t end = comment.find(',', start);
      if (end == std::string::npos || end > close) end = close;
      const std::size_t first = comment.find_first_not_of(" \t", start);
      if (first < end) {
        const std::size_t last = comment.find_last_not_of(" \t", end - 1);
        rules.push_back(comment.substr(first, last - first + 1));
      }
      start = end + 1;
    }
  }
  return rules;
}

bool is_identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool has_annotation(const std::string& comment, const char* kind) {
  const std::size_t start = comment.find_first_not_of(" \t/*-!");
  if (start == std::string::npos) return false;
  static constexpr const char kPrefix[] = "redund:";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (comment.compare(start, kPrefixLen, kPrefix) != 0) return false;
  std::size_t p = start + kPrefixLen;
  while (p < comment.size() &&
         (comment[p] == ' ' || comment[p] == '\t')) {
    ++p;
  }
  const std::size_t kind_len = std::string(kind).size();
  if (comment.compare(p, kind_len, kind) != 0) return false;
  const std::size_t end = p + kind_len;
  return end >= comment.size() || !is_identifier_char(comment[end]);
}

SourceFile SourceFile::parse(std::string path, const std::string& text) {
  SourceFile file;
  file.path = std::move(path);
  file.lines = scrub_source(text);
  file.allow.reserve(file.lines.size());
  for (const ScrubbedLine& line : file.lines) {
    file.allow.push_back(allowed_rules(line.comment));
  }
  return file;
}

bool SourceFile::allows(std::size_t line, const std::string& rule) const {
  if (line >= allow.size()) return false;
  for (std::size_t j = line == 0 ? line : line - 1; j <= line; ++j) {
    for (const std::string& allowed : allow[j]) {
      if (allowed == rule || allowed == "all") return true;
    }
  }
  return false;
}

std::vector<Token> tokenize(const std::vector<ScrubbedLine>& lines) {
  std::vector<Token> tokens;
  bool continuation = false;  // Previous line was a directive ending in '\'.
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    // Preprocessor directive lines (and their backslash continuations)
    // produce no tokens: macro bodies and #include angle brackets would
    // otherwise leak unbalanced junk into the declaration parser.
    const std::size_t first = code.find_first_not_of(" \t");
    const bool directive =
        continuation || (first != std::string::npos && code[first] == '#');
    if (directive) {
      const std::size_t last = code.find_last_not_of(" \t");
      continuation = last != std::string::npos && code[last] == '\\';
      continue;
    }
    continuation = false;
    std::size_t i = 0;
    const std::size_t n = code.size();
    while (i < n) {
      const char c = code[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
        std::size_t j = i + 1;
        while (j < n && is_identifier_char(code[j])) ++j;
        tokens.push_back(Token{Token::Kind::kIdent, code.substr(i, j - i), li});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        // pp-number: digits, identifier chars, '.', and exponent signs.
        std::size_t j = i + 1;
        while (j < n) {
          const char d = code[j];
          if (is_identifier_char(d) || d == '.') {
            ++j;
            continue;
          }
          if ((d == '+' || d == '-') && j > i) {
            const char prev = code[j - 1];
            if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
              ++j;
              continue;
            }
          }
          break;
        }
        tokens.push_back(
            Token{Token::Kind::kNumber, code.substr(i, j - i), li});
        i = j;
        continue;
      }
      // Punctuation; fuse '::' and '->' (name/member glue for the parser).
      if (c == ':' && i + 1 < n && code[i + 1] == ':') {
        tokens.push_back(Token{Token::Kind::kPunct, "::", li});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < n && code[i + 1] == '>') {
        tokens.push_back(Token{Token::Kind::kPunct, "->", li});
        i += 2;
        continue;
      }
      tokens.push_back(Token{Token::Kind::kPunct, std::string(1, c), li});
      ++i;
    }
  }
  return tokens;
}

}  // namespace redund::lint
