#ifndef DURASSD_COMMON_JSON_H_
#define DURASSD_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"

namespace durassd {

/// Minimal streaming JSON writer: appends well-formed JSON to a string,
/// inserting commas automatically. No external dependencies — this is the
/// emitter behind the bench `--json` schema, the metrics snapshot, and the
/// tracer's JSONL export.
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("iops"); w.Double(1234.5);
///   w.Key("tags"); w.BeginArray(); w.String("a"); w.EndArray();
///   w.EndObject();
///   w.str()  // {"iops":1234.5,"tags":["a"]}
class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(Slice name);
  void String(Slice value);
  void Int(int64_t value);
  void Uint(uint64_t value);
  void Double(double value);
  void Bool(bool value);
  /// Splices a pre-serialized JSON value (object/array/literal) verbatim.
  void Raw(Slice json);

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

  static void Escape(Slice value, std::string* out);

 private:
  void MaybeComma();

  std::string out_;
  /// One entry per open container: true once the first element was written.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace durassd

#endif  // DURASSD_COMMON_JSON_H_
