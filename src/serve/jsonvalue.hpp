// Minimal JSON value model + parser for the serve wire protocol.
//
// The repository's telemetry layer only ever *writes* JSON
// (telemetry/json.hpp); a server must also read it. This is the matching
// pull side: a small immutable DOM (JsonValue) and a strict
// recursive-descent parser with byte-offset errors. Strictness matters
// more than features on a wire protocol: no comments, no trailing
// commas, no NaN/Infinity literals, objects keep INSERTION order (so a
// re-serialized document is stable), duplicate keys are rejected (a
// request must not mean two things), and depth is capped so a crafted
// request cannot blow the stack.
//
// Numbers keep both views: is_integer() is true when the literal was a
// pure integer that fits int64/uint64 exactly — the protocol layer wants
// "width": 32 to be an integer, while "bound": 1.5 stays a double.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rapsim::serve {

class JsonValue;
class JsonParser;

/// Object member list in insertion order. Lookup is linear — protocol
/// objects have a handful of keys, and order preservation is what makes
/// canonical re-serialization deterministic.
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInteger, kDouble, kString, kArray, kObject };

  JsonValue() = default;  // null; only parse_json builds other values

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_integer() const noexcept {
    return kind_ == Kind::kInteger;
  }
  /// Any numeric literal (integer or double).
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kInteger || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  // Accessors throw std::logic_error on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_integer() const;
  [[nodiscard]] double as_number() const;  // integer widens to double
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonMembers& as_object() const;

  /// Member lookup on an object: nullptr when absent (or when this value
  /// is not an object — callers probe optional fields in one step).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Compact canonical serialization (no whitespace, keys in stored
  /// order). Integers render without a decimal point; doubles via the
  /// telemetry JsonWriter's shortest-round-trip formatting.
  [[nodiscard]] std::string serialize() const;

 private:
  friend class JsonParser;
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(std::int64_t i) : kind_(Kind::kInteger), int_(i) {}
  explicit JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray items)
      : kind_(Kind::kArray),
        array_(std::make_shared<JsonArray>(std::move(items))) {}
  explicit JsonValue(JsonMembers members)
      : kind_(Kind::kObject),
        object_(std::make_shared<JsonMembers>(std::move(members))) {}

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonMembers> object_;
};

inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parse exactly one JSON document occupying the whole input (trailing
/// whitespace allowed, anything else rejected). Throws
/// std::invalid_argument with a byte offset on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace rapsim::serve
