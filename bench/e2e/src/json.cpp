#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/jsonio.hpp"
#include "e2e.hpp"

namespace redund::e2e {

namespace {

Json parse_value(core::JsonCursor& c, int depth) {
  if (depth > 32) c.fail("nesting too deep");
  Json value;
  const char next = c.peek();
  if (next == '{') {
    value.kind = Json::Kind::kObject;
    c.expect('{');
    if (c.consume_if('}')) return value;
    do {
      std::string key = c.parse_string();
      c.expect(':');
      value.members.emplace_back(std::move(key), parse_value(c, depth + 1));
    } while (c.consume_if(','));
    c.expect('}');
  } else if (next == '[') {
    value.kind = Json::Kind::kArray;
    c.expect('[');
    if (c.consume_if(']')) return value;
    do {
      value.items.push_back(parse_value(c, depth + 1));
    } while (c.consume_if(','));
    c.expect(']');
  } else if (next == '"') {
    value.kind = Json::Kind::kString;
    value.string = c.parse_string();
  } else if (next == '-' || (next >= '0' && next <= '9')) {
    value.kind = Json::Kind::kNumber;
    value.number = c.parse_number();
  } else {
    c.skip_value();
  }
  return value;
}

}  // namespace

const Json* Json::find(const std::string& key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  core::JsonCursor c(text, path);
  Json root = parse_value(c, 0);
  if (!c.at_end()) c.fail("trailing characters");
  return root;
}

}  // namespace redund::e2e
