#include "report/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace redund::report {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: need at least one column");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: cell count != column count");
  }
  rows_.push_back(std::move(cells));
}

void Table::add_separator() { rows_.emplace_back(); }

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto print_line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << cells[c];
      out << std::string(widths[c] - cells[c].size(), ' ');
    }
    out << " |\n";
  };
  const auto print_rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      out << (c == 0 ? "+-" : "-+-") << std::string(widths[c], '-');
    }
    out << "-+\n";
  };

  print_rule();
  print_line(headers_);
  print_rule();
  for (const auto& row : rows_) {
    if (row.empty()) {
      print_rule();
    } else {
      print_line(row);
    }
  }
  print_rule();
}

void Table::write_csv(std::ostream& out) const {
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) out << ',';
      const std::string& cell = cells[c];
      if (cell.find_first_of(",\"\n") != std::string::npos) {
        out << '"';
        for (const char ch : cell) {
          if (ch == '"') out << '"';
          out << ch;
        }
        out << '"';
      } else {
        out << cell;
      }
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) {
    if (!row.empty()) emit(row);
  }
}

std::string fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

std::string with_commas(std::int64_t value) {
  const bool negative = value < 0;
  std::string digits = std::to_string(negative ? -value : value);
  std::string result;
  result.reserve(digits.size() + digits.size() / 3 + 1);
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i > 0 && (digits.size() - i) % 3 == 0) result += ',';
    result += digits[i];
  }
  return negative ? "-" + result : result;
}

std::string with_commas(double value) {
  return with_commas(static_cast<std::int64_t>(std::llround(value)));
}

}  // namespace redund::report
