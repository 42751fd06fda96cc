// A minimal JSON parser shared by the bench-reporting tools (bench_compare
// parses the committed BENCH_*.json artifacts with it) and the test
// suite. Recursive descent over the full value grammar (objects, arrays,
// strings with escapes, numbers, true/false/null). No external
// dependencies by design — the repo builds hermetically.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace s4tf::json {

// Deepest array/object nesting ParseJson accepts. The parser recurses once
// per level, so the cap bounds its stack; the emitters here write at most
// five levels.
inline constexpr int kMaxJsonDepth = 256;

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value = nullptr;

  bool is_object() const { return std::holds_alternative<JsonObject>(value); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value); }
  bool is_number() const { return std::holds_alternative<double>(value); }
  bool is_string() const {
    return std::holds_alternative<std::string>(value);
  }

  const JsonObject& object() const { return std::get<JsonObject>(value); }
  const JsonArray& array() const { return std::get<JsonArray>(value); }
  double number() const { return std::get<double>(value); }
  const std::string& str() const { return std::get<std::string>(value); }

  bool has(const std::string& key) const {
    return is_object() && object().count(key) > 0;
  }
  const JsonValue& at(const std::string& key) const {
    return object().at(key);
  }
};

namespace json_detail {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          return Fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                      " levels");
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        out->value = std::move(s);
        return true;
      }
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          out->value = true;
          return true;
        }
        return Fail("bad literal");
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          out->value = false;
          return true;
        }
        return Fail("bad literal");
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          out->value = nullptr;
          return true;
        }
        return Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    JsonObject object;
    SkipWs();
    if (Consume('}')) {
      out->value = std::move(object);
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Fail("expected ',' or '}'");
    }
    out->value = std::move(object);
    return true;
  }

  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    JsonArray array;
    SkipWs();
    if (Consume(']')) {
      out->value = std::move(array);
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Fail("expected ',' or ']'");
    }
    out->value = std::move(array);
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("bad escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          for (std::size_t k = 0; k < 4; ++k) {
            if (pos_ + k >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + k]))) {
              pos_ += k;
              return Fail("bad \\u escape");
            }
          }
          const unsigned long code =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // ASCII range only — all the emitters here ever produce.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Digit(std::size_t at) const {
    return at < text_.size() && text_[at] >= '0' && text_[at] <= '9';
  }

  // JSON's number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
  // is checked before strtod converts the span: strtod alone would also
  // take inf, nan, hex and a leading '+'. On failure the offset points at
  // the first character that breaks the grammar, or at the start of a
  // number too large for a double. Underflow keeps strtod's nearest
  // double (0 or a subnormal).
  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;  // ParseValue saw a character here
    if (!Digit(pos_)) return Fail("bad number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (Digit(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!Digit(pos_)) return Fail("bad number");
      while (Digit(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!Digit(pos_)) return Fail("bad number");
      while (Digit(pos_)) ++pos_;
    }
    const double value =
        std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    if (std::isinf(value)) {
      pos_ = start;
      return Fail("number out of range");
    }
    out->value = value;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace json_detail

// Parses `text` into `out`. On failure, including nesting deeper than
// kMaxJsonDepth, returns false and fills `error` with the byte offset.
inline bool ParseJson(const std::string& text, JsonValue* out,
                      std::string* error = nullptr) {
  return json_detail::Parser(text, error).Parse(out);
}

// Escapes a string for embedding in a JSON document (ASCII control
// characters become \u escapes).
inline std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
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
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace s4tf::json
