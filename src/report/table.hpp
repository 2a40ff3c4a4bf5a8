// Plain-text table rendering for the benchmark harnesses and examples.
//
// Every table/figure reproduction binary prints the paper's rows through
// this formatter so outputs are uniform and greppable; write_csv() emits the
// same data for plotting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace redund::report {

/// A column-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; must have exactly one cell per header.
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal separator row.
  void add_separator();

  /// Renders with padded columns, header underline, and separators.
  void print(std::ostream& out) const;

  /// Emits RFC-4180-ish CSV (quotes cells containing commas or quotes);
  /// separators are skipped.
  void write_csv(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;  // Empty vector = separator.
};

/// Fixed-precision double formatting ("%.*f").
[[nodiscard]] std::string fixed(double value, int digits = 4);

/// Scientific formatting for very small probabilities ("%.*e").
[[nodiscard]] std::string scientific(double value, int digits = 3);

/// Integers with thousands separators ("1,000,000").
[[nodiscard]] std::string with_commas(std::int64_t value);

/// Rounds a real task count for display with thousands separators.
[[nodiscard]] std::string with_commas(double value);

}  // namespace redund::report
