// A minimal JSON reader for the tool's machine-readable inputs (today: the
// `mptool batch` manifest). Counterpart of json.hpp's escaping: the repo
// emits JSON in many places but consumes it in exactly one grammar, so the
// reader stays deliberately small — strict RFC 8259 subset, no comments,
// no trailing commas, UTF-8 passed through verbatim, \uXXXX escapes decoded
// for the BMP (surrogate pairs rejected: no manifest field needs them).
//
// Objects preserve insertion order (a std::vector of pairs), so iterating a
// parsed document is deterministic and mirrors the file.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace meshpar {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const std::vector<JsonValue>& items() const { return items_; }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const {
    return members_;
  }

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). On failure returns nullopt and, when `error` is
/// non-null, a one-line message with the byte offset.
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace meshpar
