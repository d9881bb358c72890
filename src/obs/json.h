// Minimal JSON support for the observability layer.
//
// The repo deliberately carries no third-party JSON dependency: the writer
// below covers everything the stats/trace exporters need (objects, arrays,
// the scalar types, correct string escaping, round-trippable doubles), and
// the parser exists so tests and tools/verdict-report can consume what the
// writer (or any other producer of the documented schemas) emits. Both are
// small by design — this is an interchange format, not a JSON library.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace verdict::obs {

/// JSON string escaping (quotes not included).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Renders a double the way JSON expects: no inf/nan (clamped to 0),
/// shortest round-trip form.
[[nodiscard]] std::string json_number(double v);

/// Streaming writer producing compact one-line JSON. Push/pop style:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("verdict"); w.value("holds");
///   w.key("stats");   w.begin_object(); ... w.end_object();
///   w.end_object();
///   std::string text = w.str();
///
/// The writer inserts commas itself; keys are only legal inside objects.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(bool v);
  void value(std::int64_t v);
  void value(std::size_t v) { value(static_cast<std::int64_t>(v)); }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(double v);
  void null();

  /// Splices a pre-rendered JSON value (object/array/scalar) in value
  /// position, with the usual comma handling. The caller vouches that `json`
  /// is well-formed — the writer does not re-validate it. Used by the svc
  /// layer to re-embed stored trace documents without a parse round trip.
  void raw_value(std::string_view json);

  /// Shorthand for key(k); value(v).
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma();

  std::string out_;
  // true = a value has already been written at this nesting level.
  std::vector<bool> wrote_value_;
  bool pending_key_ = false;
};

/// Parsed JSON value (tests, tools/verdict-report).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }

  /// Object member lookup; returns a shared null value when absent.
  [[nodiscard]] const JsonValue& operator[](const std::string& k) const;
  /// has("a") — object member presence.
  [[nodiscard]] bool has(const std::string& k) const {
    return is_object() && object.contains(k);
  }
};

/// 2^53, the largest bound under which every integer is exact as a double:
/// the range for counts that travel as JSON numbers.
inline constexpr std::int64_t kJsonExactIntegerMax = std::int64_t{1} << 53;

/// `v` as a whole number in [lo, hi]; nullopt when `v` is not a number, not
/// a whole one, or out of range. Every decoder of JSON integers reads them
/// through this: a double cast to an integer type that cannot hold it is
/// undefined behaviour.
[[nodiscard]] std::optional<std::int64_t> json_integer(
    const JsonValue& v, std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max());

/// Parses one JSON document. Throws std::invalid_argument on malformed input
/// (including trailing garbage).
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Re-serializes a parsed value as compact one-line JSON (objects in key
/// order — the parser already sorts them — so parse/print round trips are
/// stable).
[[nodiscard]] std::string to_json(const JsonValue& v);

}  // namespace verdict::obs
