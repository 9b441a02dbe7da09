#pragma once
// Dependency-free JSON: a streaming writer (used by the telemetry trace and
// the structured run report) and a small recursive-descent parser (used by
// tests and tooling to validate what the writer emitted).
//
// The writer is comma/nesting-aware so call sites read like the document:
//
//   JsonWriter w;
//   w.begin_object();
//   w.key("hpwl").value(1.2e6);
//   w.key("stages").begin_array();
//   w.value("gp").value("legal");
//   w.end_array();
//   w.end_object();
//   std::string doc = w.str();
//
// Numbers are written with enough digits to round-trip a double; non-finite
// values (NaN/Inf have no JSON encoding) are emitted as null.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rp {

/// Escape a string for inclusion in a JSON document (no surrounding quotes).
std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  /// `indent` > 0 pretty-prints with that many spaces per nesting level.
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Shorthand: key + scalar value.
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void comma();
  void newline_indent();

  std::string out_;
  std::vector<bool> needs_comma_;  ///< Per nesting level.
  bool after_key_ = false;
  int indent_ = 0;
};

/// Parsed JSON value (object keys kept in sorted std::map order).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool is_null() const { return kind == Kind::Null; }
  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }

  bool has(const std::string& k) const { return is_object() && obj.count(k) > 0; }
  /// Object member access; throws std::runtime_error when absent.
  const JsonValue& at(const std::string& k) const;

  /// Deep equality; numbers compare exactly.
  bool operator==(const JsonValue&) const = default;
};

/// Deepest array/object nesting json_parse accepts. The parser recurses once
/// per level, so an unbounded run of '[' would overflow the stack; the
/// documents this project writes nest a handful of levels.
inline constexpr int kJsonMaxDepth = 512;

/// Parse a complete JSON document. Throws std::runtime_error with a byte
/// offset on malformed input, trailing garbage or nesting deeper than
/// kJsonMaxDepth.
JsonValue json_parse(std::string_view text);

}  // namespace rp
