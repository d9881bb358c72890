#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace verdict::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  // %.17g round-trips every double; trim the common integral case.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key; the comma was written with the key
  }
  if (!wrote_value_.empty()) {
    if (wrote_value_.back()) out_ += ',';
    wrote_value_.back() = true;
  }
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
  wrote_value_.push_back(false);
}

void JsonWriter::end_object() {
  out_ += '}';
  wrote_value_.pop_back();
}

void JsonWriter::begin_array() {
  comma();
  out_ += '[';
  wrote_value_.push_back(false);
}

void JsonWriter::end_array() {
  out_ += ']';
  wrote_value_.pop_back();
}

void JsonWriter::key(std::string_view k) {
  if (!wrote_value_.empty() && wrote_value_.back()) out_ += ',';
  if (!wrote_value_.empty()) wrote_value_.back() = true;
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::value(std::string_view v) {
  comma();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
}

void JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
}

void JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
}

void JsonWriter::value(double v) {
  comma();
  out_ += json_number(v);
}

void JsonWriter::null() {
  comma();
  out_ += "null";
}

void JsonWriter::raw_value(std::string_view json) {
  comma();
  out_ += json;
}

// --- Parser ------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size())
      throw std::invalid_argument("json: trailing garbage at offset " +
                                  std::to_string(pos_));
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::invalid_argument("json: unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      throw std::invalid_argument(std::string("json: expected '") + c + "' at offset " +
                                  std::to_string(pos_));
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w)
      throw std::invalid_argument("json: bad literal at offset " + std::to_string(pos_));
    pos_ += w.size();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) throw std::invalid_argument("json: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) throw std::invalid_argument("json: unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size())
            throw std::invalid_argument("json: truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else throw std::invalid_argument("json: bad \\u escape");
          }
          // The writer only escapes control characters; decode BMP code
          // points to UTF-8 (surrogate pairs are out of scope).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          throw std::invalid_argument("json: bad escape");
      }
    }
  }

  // Containers nest at most this deep, so a peer's "[[[[..." ends in an
  // error instead of a stack overflow.
  static constexpr int kMaxNesting = 256;

  JsonValue parse_value() {
    if (++nesting_ > kMaxNesting)
      throw std::invalid_argument("json: nesting deeper than " +
                                  std::to_string(kMaxNesting) + " at offset " +
                                  std::to_string(pos_));
    JsonValue v = parse_unnested_value();
    --nesting_;
    return v;
  }

  JsonValue parse_unnested_value() {
    const char c = peek();
    JsonValue v;
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::Kind::kObject;
      if (consume('}')) return v;
      while (true) {
        std::string k = parse_string();
        expect(':');
        v.object.emplace(std::move(k), parse_value());
        if (consume('}')) return v;
        expect(',');
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      if (consume(']')) return v;
      while (true) {
        v.array.push_back(parse_value());
        if (consume(']')) return v;
        expect(',');
      }
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (c == 't') {
      expect_word("true");
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (c == 'f') {
      expect_word("false");
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (c == 'n') {
      expect_word("null");
      return v;
    }
    // Number.
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) throw std::invalid_argument("json: bad value");
    double d = 0.0;
    const auto [end, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || end != text_.data() + pos_)
      throw std::invalid_argument("json: bad number");
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int nesting_ = 0;
};

const JsonValue kNullValue{};

}  // namespace

const JsonValue& JsonValue::operator[](const std::string& k) const {
  if (!is_object()) return kNullValue;
  const auto it = object.find(k);
  return it == object.end() ? kNullValue : it->second;
}

JsonValue parse_json(std::string_view text) { return Parser(text).parse_document(); }

std::optional<std::int64_t> json_integer(const JsonValue& v, std::int64_t lo, std::int64_t hi) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.number;
  // [-2^63, 2^63) is exactly the doubles int64 holds; NaN fails the test.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0) || d != std::floor(d))
    return std::nullopt;
  const auto i = static_cast<std::int64_t>(d);
  if (i < lo || i > hi) return std::nullopt;
  return i;
}

namespace {

void write_json_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(v.boolean);
      break;
    case JsonValue::Kind::kNumber:
      w.value(v.number);
      break;
    case JsonValue::Kind::kString:
      w.value(v.string);
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& e : v.array) write_json_value(w, e);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.object) {
        w.key(k);
        write_json_value(w, e);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string to_json(const JsonValue& v) {
  JsonWriter w;
  write_json_value(w, v);
  return w.str();
}

}  // namespace verdict::obs
