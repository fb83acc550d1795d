#ifndef DURASSD_TESTS_JSON_VALUE_H_
#define DURASSD_TESTS_JSON_VALUE_H_

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"

namespace durassd {

namespace json_value_internal {

constexpr int kMaxDepth = 64;

inline void SkipWs(const char** p, const char* end) {
  while (*p < end && (**p == ' ' || **p == '\t' || **p == '\n' ||
                      **p == '\r')) {
    ++*p;
  }
}

inline bool ParseString(const char** p, const char* end, std::string* out) {
  if (*p >= end || **p != '"') return false;
  ++*p;
  out->clear();
  while (*p < end) {
    const char c = **p;
    ++*p;
    if (c == '"') return true;
    if (c == '\\') {
      if (*p >= end) return false;
      const char e = **p;
      ++*p;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (end - *p < 4) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = (*p)[i];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return false;
          }
          *p += 4;
          // UTF-8 encode (surrogate pairs not needed for our own output).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    } else {
      out->push_back(c);
    }
  }
  return false;  // Unterminated.
}

}  // namespace json_value_internal

/// Tiny recursive-descent JSON parser that reads JsonWriter's output back
/// in tests (bench `--json` schema, metrics snapshot, tracer JSONL).
/// Numbers are held as doubles; this is a diagnostic reader, not a
/// general-purpose library.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  /// Parses `text` as one JSON document (trailing whitespace allowed).
  /// Returns false on malformed input.
  static bool Parse(Slice text, JsonValue* out) {
    *out = JsonValue();
    const char* p = text.data();
    const char* end = text.data() + text.size();
    if (!ParseValue(&p, end, out, 0)) return false;
    json_value_internal::SkipWs(&p, end);
    return p == end;
  }

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const {
    if (type_ != Type::kObject) return nullptr;
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
  }

 private:
  static bool ParseValue(const char** p, const char* end, JsonValue* out,
                         int depth);

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

inline bool JsonValue::ParseValue(const char** p, const char* end,
                                  JsonValue* out, int depth) {
  using json_value_internal::ParseString;
  using json_value_internal::SkipWs;
  if (depth > json_value_internal::kMaxDepth) return false;
  SkipWs(p, end);
  if (*p >= end) return false;
  const char c = **p;
  if (c == '{') {
    ++*p;
    out->type_ = Type::kObject;
    SkipWs(p, end);
    if (*p < end && **p == '}') {
      ++*p;
      return true;
    }
    while (true) {
      SkipWs(p, end);
      std::string key;
      if (!ParseString(p, end, &key)) return false;
      SkipWs(p, end);
      if (*p >= end || **p != ':') return false;
      ++*p;
      JsonValue child;
      if (!ParseValue(p, end, &child, depth + 1)) return false;
      out->object_.emplace(std::move(key), std::move(child));
      SkipWs(p, end);
      if (*p >= end) return false;
      if (**p == ',') {
        ++*p;
        continue;
      }
      if (**p == '}') {
        ++*p;
        return true;
      }
      return false;
    }
  }
  if (c == '[') {
    ++*p;
    out->type_ = Type::kArray;
    SkipWs(p, end);
    if (*p < end && **p == ']') {
      ++*p;
      return true;
    }
    while (true) {
      JsonValue child;
      if (!ParseValue(p, end, &child, depth + 1)) return false;
      out->array_.push_back(std::move(child));
      SkipWs(p, end);
      if (*p >= end) return false;
      if (**p == ',') {
        ++*p;
        continue;
      }
      if (**p == ']') {
        ++*p;
        return true;
      }
      return false;
    }
  }
  if (c == '"') {
    out->type_ = Type::kString;
    return ParseString(p, end, &out->string_);
  }
  if (strncmp(*p, "true", std::min<size_t>(4, end - *p)) == 0) {
    out->type_ = Type::kBool;
    out->bool_ = true;
    *p += 4;
    return true;
  }
  if (strncmp(*p, "false", std::min<size_t>(5, end - *p)) == 0) {
    out->type_ = Type::kBool;
    out->bool_ = false;
    *p += 5;
    return true;
  }
  if (strncmp(*p, "null", std::min<size_t>(4, end - *p)) == 0) {
    out->type_ = Type::kNull;
    *p += 4;
    return true;
  }
  // Number. strtod needs a NUL-terminated buffer; numbers are short.
  char buf[64];
  size_t n = 0;
  while (*p + n < end && n < sizeof(buf) - 1) {
    const char d = (*p)[n];
    if ((d >= '0' && d <= '9') || d == '-' || d == '+' || d == '.' ||
        d == 'e' || d == 'E') {
      buf[n] = d;
      ++n;
    } else {
      break;
    }
  }
  if (n == 0) return false;
  buf[n] = '\0';
  char* num_end = nullptr;
  out->number_ = strtod(buf, &num_end);
  if (num_end != buf + n) return false;
  out->type_ = Type::kNumber;
  *p += n;
  return true;
}

}  // namespace durassd

#endif  // DURASSD_TESTS_JSON_VALUE_H_
