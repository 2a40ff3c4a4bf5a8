#include "runtime/report.hpp"

#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace redund::runtime {

namespace rep = redund::report;

const char* to_string(CampaignOutcome outcome) noexcept {
  switch (outcome) {
    case CampaignOutcome::kCompleted: return "completed";
    case CampaignOutcome::kStalled: return "stalled";
    case CampaignOutcome::kAborted: return "aborted";
  }
  return "?";
}

namespace {

std::string cell(std::int64_t value) { return rep::with_commas(value); }
std::string cell(double value) { return rep::fixed(value, 4); }
std::string cell(CampaignOutcome value) { return to_string(value); }

}  // namespace

rep::Table to_table(const RuntimeReport& report) {
  rep::Table table({"metric", "value"});
  for_each_field(
      [&](const FieldInfo& info, const auto& value) {
        if (info.starts_section) table.add_separator();
        table.add_row({info.name, cell(value)});
      },
      report);
  return table;
}

rep::Table series_table(const RuntimeReport& report) {
  std::vector<std::string> header{"time"};
  for_each_counter([&](const char* column) { header.emplace_back(column); });
  rep::Table table(std::move(header));
  for (const RuntimeSample& sample : report.series) {
    std::vector<std::string> row{rep::fixed(sample.time, 4)};
    for_each_counter(
        [&](const char*, std::int64_t value) {
          row.push_back(std::to_string(value));
        },
        sample);
    table.add_row(std::move(row));
  }
  return table;
}

void print(std::ostream& out, const RuntimeReport& report) {
  out << "asynchronous campaign report\n";
  to_table(report).print(out);
  if (!report.series.empty()) {
    out << "\ntime series (" << report.series.size() << " samples)\n";
    series_table(report).print(out);
  }
}

}  // namespace redund::runtime
