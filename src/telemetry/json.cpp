#include "telemetry/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace rapsim::telemetry {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::before_value() {
  if (done_) throw std::logic_error("JsonWriter: document already complete");
  if (stack_.empty()) return;  // root value
  Frame& top = stack_.back();
  if (top.is_object) {
    if (!key_pending_) {
      throw std::logic_error("JsonWriter: object member requires a key first");
    }
    key_pending_ = false;
  } else {
    if (!top.first) raw(",");
    top.first = false;
  }
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (done_) throw std::logic_error("JsonWriter: document already complete");
  if (stack_.empty() || !stack_.back().is_object) {
    throw std::logic_error("JsonWriter: key() outside an object");
  }
  if (key_pending_) throw std::logic_error("JsonWriter: key already pending");
  Frame& top = stack_.back();
  if (!top.first) raw(",");
  top.first = false;
  raw("\"");
  raw(json_escape(k));
  raw("\":");
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  stack_.push_back({true, true});
  raw("{");
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || !stack_.back().is_object || key_pending_) {
    throw std::logic_error("JsonWriter: unbalanced end_object");
  }
  stack_.pop_back();
  raw("}");
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  stack_.push_back({false, true});
  raw("[");
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back().is_object) {
    throw std::logic_error("JsonWriter: unbalanced end_array");
  }
  stack_.pop_back();
  raw("]");
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  raw("\"");
  raw(json_escape(v));
  raw("\"");
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  raw(v ? "true" : "false");
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    raw("null");
  } else {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    raw(buf);
  }
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  raw(std::to_string(v));
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  raw(std::to_string(v));
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view serialized_json) {
  before_value();
  raw(serialized_json);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  raw("null");
  if (stack_.empty()) done_ = true;
  return *this;
}

const std::string& JsonWriter::str() const {
  if (!done_ && !stack_.empty()) {
    throw std::logic_error("JsonWriter: str() with open containers");
  }
  return out_;
}

namespace {

[[noreturn]] void fail_kind(const char* wanted) {
  throw std::logic_error(std::string("json: value is not ") + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) fail_kind("a bool");
  return bool_;
}

std::int64_t JsonValue::as_integer() const {
  if (kind_ != Kind::kInteger) fail_kind("an integer");
  return int_;
}

double JsonValue::as_number() const {
  if (kind_ == Kind::kInteger) return static_cast<double>(int_);
  if (kind_ == Kind::kDouble) return double_;
  fail_kind("a number");
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) fail_kind("a string");
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) fail_kind("an array");
  return *array_;
}

const JsonMembers& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) fail_kind("an object");
  return *object_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : *object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

void serialize_into(const JsonValue& value, JsonWriter& out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out.null();
      return;
    case JsonValue::Kind::kBool:
      out.value(value.as_bool());
      return;
    case JsonValue::Kind::kInteger:
      out.value(value.as_integer());
      return;
    case JsonValue::Kind::kDouble:
      out.value(value.as_number());
      return;
    case JsonValue::Kind::kString:
      out.value(std::string_view(value.as_string()));
      return;
    case JsonValue::Kind::kArray:
      out.begin_array();
      for (const JsonValue& item : value.as_array()) serialize_into(item, out);
      out.end_array();
      return;
    case JsonValue::Kind::kObject:
      out.begin_object();
      for (const auto& [k, v] : value.as_object()) {
        out.key(k);
        serialize_into(v, out);
      }
      out.end_object();
      return;
  }
}

}  // namespace

std::string JsonValue::serialize() const {
  JsonWriter out;
  serialize_into(*this, out);
  return out.str();
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: byte " + std::to_string(pos_) + ": " +
                                what);
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  void skip_ws() noexcept {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxJsonDepth) fail("nesting deeper than the protocol cap");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("bad literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonMembers members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      for (const auto& [k, v] : members) {
        if (k == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return JsonValue(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonArray items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return JsonValue(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return JsonValue(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired high surrogate");
            }
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    bool integral = true;
    while (!eof()) {
      const char c = peek();
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string literal(text_.substr(start, pos_ - start));
    char* end = nullptr;
    if (integral) {
      errno = 0;
      const long long n = std::strtoll(literal.c_str(), &end, 10);
      if (end == literal.c_str() + literal.size() && errno == 0) {
        return JsonValue(static_cast<std::int64_t>(n));
      }
      // Out-of-int64-range integer literal: keep it as a double.
    }
    errno = 0;
    const double d = std::strtod(literal.c_str(), &end);
    if (end != literal.c_str() + literal.size() || errno == ERANGE) {
      pos_ = start;
      fail("bad number literal '" + literal + "'");
    }
    return JsonValue(d);
  }
};

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace rapsim::telemetry
