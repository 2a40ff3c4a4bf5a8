// Malformed-input handling for the shared JSON layer (core/jsonio.hpp),
// exercised through FaultSchedule::from_json and directly through the
// writer/cursor pair. Every row must be rejected with a clean
// std::runtime_error whose message names the problem — never a crash,
// hang, or silently wrong value.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/jsonio.hpp"
#include "runtime/fault.hpp"

namespace {

using redund::core::JsonCursor;
using redund::runtime::FaultSchedule;

struct MalformedCase {
  const char* name;
  std::string json;
  const char* expected_error;  ///< Substring of the exception message.
};

std::string deeply_nested_document() {
  // skip_value() follows unknown keys recursively; 300 levels must trip
  // the depth guard instead of exhausting the stack.
  return "{\"junk\": " + std::string(300, '[');
}

std::string malformed_case_name(
    const ::testing::TestParamInfo<MalformedCase>& param) {
  return param.param.name;
}

class FaultJsonMalformed : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(FaultJsonMalformed, RejectsWithDiagnostic) {
  const MalformedCase& row = GetParam();
  try {
    (void)FaultSchedule::from_json(row.json);
    FAIL() << row.name << ": input was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(row.expected_error),
              std::string::npos)
        << row.name << ": got \"" << error.what() << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, FaultJsonMalformed,
    ::testing::Values(
        MalformedCase{"empty_input", "", "unexpected end of input"},
        MalformedCase{"truncated_object",
                      "{\"events\": [{\"time\": 1.0,",
                      "unexpected end of input"},
        MalformedCase{"truncated_array",
                      "{\"events\": [{\"time\": 1.0, \"kind\": \"leave\", "
                      "\"participant\": 0}",
                      "unexpected end of input"},
        MalformedCase{"unterminated_string",
                      "{\"events", "unterminated string"},
        MalformedCase{"unknown_escape",
                      "{\"ev\\qents\": []}", "unknown escape"},
        MalformedCase{"truncated_unicode_escape",
                      "{\"x\": \"\\u12", "truncated \\u escape"},
        MalformedCase{"bad_unicode_hex",
                      "{\"x\": \"\\u12zq\", \"events\": []}",
                      "bad \\u escape"},
        MalformedCase{"duplicate_event_key",
                      "{\"events\": [{\"time\": 1.0, \"kind\": \"leave\", "
                      "\"participant\": 2, \"time\": 9.0}]}",
                      "duplicate event key \"time\""},
        MalformedCase{"overflow_numeral",
                      "{\"events\": [{\"time\": 1e999, \"kind\": "
                      "\"leave\", \"participant\": 0}]}",
                      "number out of range"},
        MalformedCase{"negative_overflow_numeral",
                      "{\"events\": [{\"time\": -1e999, \"kind\": "
                      "\"leave\", \"participant\": 0}]}",
                      "number out of range"},
        MalformedCase{"malformed_number_two_dots",
                      "{\"events\": [{\"time\": 1.2.3, \"kind\": "
                      "\"leave\", \"participant\": 0}]}",
                      "malformed number"},
        MalformedCase{"malformed_number_bare_sign",
                      "{\"events\": [{\"time\": -, \"kind\": \"leave\", "
                      "\"participant\": 0}]}",
                      "expected number"},
        MalformedCase{"nesting_too_deep", deeply_nested_document(),
                      "value nesting too deep"},
        MalformedCase{"unknown_literal",
                      "{\"junk\": nul, \"events\": []}",
                      "unknown literal: nul"},
        MalformedCase{"unknown_fault_kind",
                      "{\"events\": [{\"time\": 1.0, \"kind\": "
                      "\"gremlins\"}]}",
                      "unknown fault kind"},
        MalformedCase{"missing_kind",
                      "{\"events\": [{\"time\": 1.0}]}",
                      "missing required key \"kind\""},
        MalformedCase{"missing_events_array", "{}",
                      "missing \"events\" array"},
        MalformedCase{"trailing_garbage",
                      "{\"events\": []} extra", "trailing garbage"}),
    malformed_case_name);

// The guards must not over-reject: well-formed documents still parse,
// including the repeated-field-name-across-*different*-events shape the
// per-event duplicate set must not confuse with a real duplicate, and an
// unknown key whose value nests objects and arrays, which skip_value()
// must step over whole.
TEST(JsonMalformedInput, WellFormedDocumentsStillParse) {
  const FaultSchedule schedule = FaultSchedule::from_json(
      "{\"schema\": \"redund-faults-v1\", "
      "\"future_field\": {\"nested\": [1, 2, {\"deep\": true}]}, "
      "\"events\": ["
      "{\"time\": 1.5, \"kind\": \"leave\", \"participant\": 3},"
      "{\"time\": 2.5, \"kind\": \"rejoin\", \"participant\": 3},"
      "{\"time\": 4.0, \"kind\": \"blackout\", \"fraction\": 0.5, "
      "\"duration\": 2.0}]}");
  ASSERT_EQ(schedule.events.size(), 3u);
  EXPECT_EQ(schedule.events[1].participant, 3);
}

TEST(JsonMalformedInput, RoundTripSurvivesEscapedStrings) {
  const std::string text = "odd \"name\"\twith\\escapes\n/\x01";
  std::string json;
  redund::core::json_append_escaped(json, text);
  JsonCursor cursor(json, "escape round trip");
  EXPECT_EQ(cursor.parse_string(), text);
  EXPECT_TRUE(cursor.at_end());
}

}  // namespace
