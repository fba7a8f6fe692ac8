// A minimal JSON value type for the analysis service: job lines in, result
// lines and telemetry out.
//
// Deliberately tiny rather than a dependency: the batch protocol only
// needs flat-ish objects, but the parser accepts arbitrary JSON so that
// callers never hit artificial nesting limits. Two properties matter to
// the service and are guaranteed here:
//
//  * Deterministic serialization. Object members keep insertion (or
//    parse) order, integers print exactly, and doubles print with a fixed
//    "%.17g" format - result lines are byte-stable, which the engine's
//    deterministic-output contract and the result cache both rely on.
//  * Exact 64-bit integers. Numbers without '.', 'e', 'E' are stored as
//    int64/uint64 (seeds and fingerprints do not survive a double
//    round-trip); only true decimals become doubles.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace shufflebound {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Insertion-ordered object; lookup is linear (objects here are small).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(std::int64_t v) : value_(v) {}
  JsonValue(std::uint64_t v) : value_(v) {}
  JsonValue(int v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(unsigned v) : value_(static_cast<std::uint64_t>(v)) {}
  JsonValue(double v) : value_(v) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  static JsonValue array() { return JsonValue(Array{}); }
  static JsonValue object() { return JsonValue(Object{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const {
    return std::holds_alternative<std::int64_t>(value_) ||
           std::holds_alternative<std::uint64_t>(value_) ||
           std::holds_alternative<double>(value_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  std::string& as_string() { return std::get<std::string>(value_); }
  /// Numeric accessors convert between the three stored widths; they throw
  /// std::bad_variant_access on non-numbers and truncate doubles.
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;

  Array& items() { return std::get<Array>(value_); }
  const Array& items() const { return std::get<Array>(value_); }
  Object& members() { return std::get<Object>(value_); }
  const Object& members() const { return std::get<Object>(value_); }

  /// Object member lookup; nullptr if absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  JsonValue* find(const std::string& key) {
    return const_cast<JsonValue*>(std::as_const(*this).find(key));
  }

  /// Sets (or appends) an object member, keeping insertion order.
  void set(std::string key, JsonValue value);

  /// Appends to an array value.
  void push_back(JsonValue value) { items().push_back(std::move(value)); }

  /// Compact serialization (no whitespace), deterministic, appended to
  /// `out` in place - the one writer behind dump() and result lines.
  void dump_to(std::string& out) const;

  /// dump_to() into a fresh string.
  std::string dump() const;

  /// Parses a complete JSON document; throws std::invalid_argument with an
  /// offset on malformed input or trailing garbage.
  static JsonValue parse(const std::string& text);

  friend bool operator==(const JsonValue&, const JsonValue&) = default;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, Array, Object>
      value_;
};

/// Appends `raw` to `out` as a JSON string literal (with its quotes):
/// runs that need no escape are copied as they are, control bytes become
/// \b \f \n \r \t or \u00XX, and UTF-8 passes through.
void json_append_quoted(std::string& out, std::string_view raw);

/// json_append_quoted() into a fresh string.
std::string json_quote(const std::string& raw);

}  // namespace shufflebound
