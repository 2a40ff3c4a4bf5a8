#include "runtime/journal.hpp"

#include <bit>
#include <cctype>
#include <charconv>
#include <fstream>
#include <iterator>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define REDUND_HAVE_FSYNC 1
#else
#define REDUND_HAVE_FSYNC 0
#endif

namespace redund::runtime {

namespace {

constexpr const char* kMagic = "redund-journal-v3";
constexpr char kHexDigits[] = "0123456789abcdef";

/// Appends `value` as minimal-width lowercase hex.
void append_hex(std::string& out, std::uint64_t value) {
  char buffer[16];
  int i = 16;
  do {
    buffer[--i] = kHexDigits[value & 0xF];
    value >>= 4;
  } while (value != 0);
  out.append(buffer + i, static_cast<std::size_t>(16 - i));
}

/// Appends `value` as exactly 16 hex digits (IEEE-754 bit patterns,
/// digests).
void append_hex16(std::string& out, std::uint64_t value) {
  char buffer[16];
  for (int i = 15; i >= 0; --i) {
    buffer[i] = kHexDigits[value & 0xF];
    value >>= 4;
  }
  out.append(buffer, 16);
}

template <typename Int>
void append_dec(std::string& out, Int value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, static_cast<std::size_t>(result.ptr - buffer));
}

/// Parses a whole token as an integer in `base`; false on any stray
/// character or overflow.
template <typename Int>
[[nodiscard]] bool parse_int(const std::string& token, Int& out, int base) {
  const char* end = token.data() + token.size();
  const auto result = std::from_chars(token.data(), end, out, base);
  return !token.empty() && result.ec == std::errc{} && result.ptr == end;
}

/// Splits `line` into whitespace-separated tokens.
[[nodiscard]] std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    const std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

}  // namespace

std::uint64_t fnv1a_hash(const std::string& bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void StateWriter::u64(std::uint64_t value) {
  if (!text_.empty()) text_ += ' ';
  append_hex(text_, value);
}

void StateWriter::i64(std::int64_t value) {
  if (!text_.empty()) text_ += ' ';
  append_dec(text_, value);
}

void StateWriter::f64(double value) {
  if (!text_.empty()) text_ += ' ';
  append_hex16(text_, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t fold_events(std::uint64_t digest,
                          std::span<const Event> events) noexcept {
  // Each step is a bijection of the digest for a fixed word (xor, odd
  // multiply, xorshift), so a single differing field always changes the
  // result.
  const auto mix = [&digest](std::uint64_t word) {
    digest ^= word;
    digest *= 0x9E3779B97F4A7C15ULL;
    digest ^= digest >> 29;
  };
  for (const Event& event : events) {
    mix(std::bit_cast<std::uint64_t>(event.time));
    mix(static_cast<std::uint64_t>(event.kind));
    mix(static_cast<std::uint64_t>(event.subject));
    mix(event.epoch);
    mix(event.seq);
  }
  return digest;
}

JournalContents read_journal(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("journal: cannot read " + path);
  }
  std::string data((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  if (file.bad()) {
    throw std::runtime_error("journal: read of " + path + " failed");
  }

  JournalContents contents;
  // A crash mid-append leaves an unterminated final line. That partial
  // record carries no information the complete prefix lacks (the writer
  // is append-only), so drop it and recover from the prefix. Anything
  // malformed *before* a newline is corruption and throws below.
  if (!data.empty() && data.back() != '\n') {
    const std::size_t last_newline = data.rfind('\n');
    data.erase(last_newline == std::string::npos ? 0 : last_newline + 1);
    contents.torn_tail = true;
  }
  if (data.empty()) {
    throw std::runtime_error("journal: " + path + " is empty");
  }

  std::size_t pos = 0;
  std::size_t line_number = 0;
  std::string line;
  const auto next_line = [&] {
    if (pos >= data.size()) return false;
    const std::size_t end = data.find('\n', pos);  // Always found: data
    line.assign(data, pos, end - pos);             // ends with '\n'.
    pos = end + 1;
    ++line_number;
    return true;
  };

  (void)next_line();
  {
    const std::vector<std::string> header = tokenize(line);
    if (header.empty() || header[0] != kMagic) {
      // Name what was found, so a journal of another format version
      // reads as a version mismatch rather than as garbage.
      std::string found = "an empty line";
      if (!header.empty()) {
        found = "'";
        found.append(header[0], 0, 32).push_back('\'');
      }
      throw std::runtime_error("journal: " + path + " has header " + found +
                               "; this build reads only " + kMagic);
    }
    if (header.size() != 3 || !parse_int(header[1], contents.config_hash, 16) ||
        !parse_int(header[2], contents.seed, 16)) {
      throw std::runtime_error("journal: " + path + " header is malformed");
    }
  }
  while (next_line()) {
    const std::vector<std::string> t = tokenize(line);
    bool ok = t.size() == 3 && t[0].size() == 1 && !contents.completed;
    if (ok && t[0][0] == 'H') {
      DigestRecord record;
      ok = parse_int(t[1], record.index, 10) && t[2].size() == 16 &&
           parse_int(t[2], record.digest, 16);
      if (ok) contents.tail.push_back(record);
    } else if (ok && t[0][0] == 'F') {
      ok = parse_int(t[1], contents.final_index, 10) &&
           parse_int(t[2], contents.outcome, 10);
      contents.completed = ok;
    } else {
      ok = false;
    }
    if (!ok) {
      throw std::runtime_error("journal: " + path + " line " +
                               std::to_string(line_number) +
                               " is not a valid record");
    }
  }
  contents.has_checkpoint = !contents.tail.empty();
  return contents;
}

JournalWriter::JournalWriter(const std::string& path,
                             std::uint64_t config_hash, std::uint64_t seed)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("journal: cannot open " + path + " for writing");
  }
  std::string line = kMagic;
  line += ' ';
  append_hex(line, config_hash);
  line += ' ';
  append_hex(line, seed);
  line += '\n';
  try {
    write_(line, /*sync=*/false);
  } catch (...) {
    std::fclose(file_);
    throw;
  }
}

JournalWriter::~JournalWriter() { std::fclose(file_); }

void JournalWriter::digest(std::uint64_t index, std::uint64_t digest) {
  std::string line = "H ";
  append_dec(line, index);
  line += ' ';
  append_hex16(line, digest);
  line += '\n';
  write_(line, /*sync=*/true);
}

void JournalWriter::finish(std::uint64_t index, std::int64_t outcome) {
  std::string line = "F ";
  append_dec(line, index);
  line += ' ';
  append_dec(line, outcome);
  line += '\n';
  write_(line, /*sync=*/true);
}

void JournalWriter::write_(const std::string& line, bool sync) {
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    throw std::runtime_error("journal: write to " + path_ + " failed");
  }
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("journal: flush of " + path_ + " failed");
  }
#if REDUND_HAVE_FSYNC
  if (sync && ::fsync(fileno(file_)) != 0) {
    throw std::runtime_error("journal: fsync of " + path_ + " failed");
  }
#else
  (void)sync;
#endif
}

}  // namespace redund::runtime
