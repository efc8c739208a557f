// Minimal JSON document builder + writer. Enough for machine-readable
// bench reports and telemetry snapshots: objects keep insertion order so
// emitted files are deterministic and diff-friendly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace rdmamon::util {

/// A JSON value: null, bool, number, string, array or object. Built
/// imperatively (`v["key"] = 3.5; v["rows"].push_back(...)`) and written
/// with `dump()`. Object keys keep insertion order.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonValue(double d) : kind_(Kind::Number), num_(d) {}
  JsonValue(int i) : kind_(Kind::Number), num_(i) {}
  JsonValue(std::int64_t i) : kind_(Kind::Number), num_(static_cast<double>(i)) {}
  JsonValue(std::uint64_t u) : kind_(Kind::Number), num_(static_cast<double>(u)) {}
  JsonValue(const char* s) : kind_(Kind::String), str_(s) {}
  JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
  }

  Kind kind() const { return kind_; }

  /// Object access; creates the member (and coerces a Null value to an
  /// object) if absent.
  JsonValue& operator[](const std::string& key);

  /// Array append; coerces a Null value to an array.
  JsonValue& push_back(JsonValue v);

  std::size_t size() const {
    return kind_ == Kind::Array ? items_.size() : members_.size();
  }

  /// Serialises with `indent` spaces per level (0 = compact single line).
  std::string dump(int indent = 2) const;

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;                               // Array
  std::vector<std::pair<std::string, JsonValue>> members_;     // Object
};

/// Escapes a string for inclusion in a JSON document (adds no quotes).
std::string json_escape(const std::string& s);

}  // namespace rdmamon::util
