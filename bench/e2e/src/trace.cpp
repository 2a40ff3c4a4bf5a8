// Span recording, the Chrome trace-event writer, and the self-time ledger.
#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "core/jsonio.hpp"
#include "e2e.hpp"

namespace redund::e2e {

Tracer::Tracer(Clock::time_point origin) : origin_(origin) {
  spans_.reserve(1 << 12);
}

int Tracer::begin(std::string name, int op) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_s = seconds_between(origin_, Clock::now());
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s =
      seconds_between(origin_, Clock::now());
  // Spans are RAII scopes, so they close innermost first.
  open_.pop_back();
}

void write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, const Tracer*>>& tracks) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto next = [&] {
    out += first ? "\n  " : ",\n  ";
    first = false;
  };
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    const std::string pid = std::to_string(t + 1);
    next();
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " + pid +
           ", \"tid\": 1, \"args\": {\"name\": ";
    core::json_append_escaped(out, tracks[t].first);
    out += "}}";
    const auto& spans = tracks[t].second->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& span = spans[i];
      next();
      out += "{\"name\": ";
      core::json_append_escaped(out, span.name);
      out += ", \"cat\": ";
      core::json_append_escaped(out, tracks[t].first);
      out += ", \"ph\": \"X\", \"pid\": " + pid + ", \"tid\": 1";
      out += ", \"ts\": " + core::json_format_double(span.start_s * 1e6);
      out += ", \"dur\": " +
             core::json_format_double((span.end_s - span.start_s) * 1e6);
      out += ", \"args\": {\"id\": " + std::to_string(i) +
             ", \"parent\": " + std::to_string(span.parent) +
             ", \"op\": " + std::to_string(span.op) + "}}";
    }
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::binary);
  file << out;
  if (!file.flush()) {
    throw std::runtime_error("cannot write trace file '" + path + "'");
  }
}

Ledger build_ledger(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  // Children run one after another on the benchmark's thread, so the part
  // of a span its children cover is the sum of their durations.
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Tracer::Span& span : spans) {
    if (span.parent < 0) continue;
    child_s[static_cast<std::size_t>(span.parent)] += span.end_s - span.start_s;
  }
  Ledger ledger;
  double op_self_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& span = spans[i];
    const double total = span.end_s - span.start_s;
    const double self = total - child_s[i];
    auto row = std::find_if(
        ledger.rows.begin(), ledger.rows.end(),
        [&](const Ledger::Row& r) { return r.name == span.name; });
    if (row == ledger.rows.end()) {
      ledger.rows.push_back({span.name, 0, 0.0, 0.0});
      row = ledger.rows.end() - 1;
    }
    ++row->count;
    row->total_s += total;
    row->self_s += self;
    if (span.parent < 0) {
      ++ledger.ops;
      ledger.op_total_s += total;
      op_self_s += self;
    }
  }
  std::sort(ledger.rows.begin(), ledger.rows.end(),
            [](const Ledger::Row& a, const Ledger::Row& b) {
              return a.self_s > b.self_s;
            });
  ledger.residual_share =
      ledger.op_total_s > 0.0 ? op_self_s / ledger.op_total_s : 0.0;
  return ledger;
}

}  // namespace redund::e2e
