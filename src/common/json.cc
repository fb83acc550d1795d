#include "common/json.h"

#include <cmath>
#include <cstdio>

namespace durassd {

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // Value follows its key; no comma.
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_.push_back(',');
    has_element_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  has_element_.push_back(false);
}

void JsonWriter::EndObject() {
  out_.push_back('}');
  has_element_.pop_back();
}

void JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  has_element_.push_back(false);
}

void JsonWriter::EndArray() {
  out_.push_back(']');
  has_element_.pop_back();
}

void JsonWriter::Key(Slice name) {
  MaybeComma();
  out_.push_back('"');
  Escape(name, &out_);
  out_.append("\":");
  pending_key_ = true;
}

void JsonWriter::String(Slice value) {
  MaybeComma();
  out_.push_back('"');
  Escape(value, &out_);
  out_.push_back('"');
}

void JsonWriter::Int(int64_t value) {
  MaybeComma();
  char buf[32];
  snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out_.append(buf);
}

void JsonWriter::Uint(uint64_t value) {
  MaybeComma();
  char buf[32];
  snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
  out_.append(buf);
}

void JsonWriter::Double(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_.append("null");  // JSON has no Inf/NaN.
    return;
  }
  char buf[40];
  snprintf(buf, sizeof(buf), "%.12g", value);
  out_.append(buf);
}

void JsonWriter::Bool(bool value) {
  MaybeComma();
  out_.append(value ? "true" : "false");
}

void JsonWriter::Raw(Slice json) {
  MaybeComma();
  out_.append(json.data(), json.size());
}

void JsonWriter::Escape(Slice value, std::string* out) {
  for (size_t i = 0; i < value.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(value[i]);
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (c < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
}

}  // namespace durassd
