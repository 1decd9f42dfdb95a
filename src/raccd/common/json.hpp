// The one JSON reader: a small DOM for the documents the tools read back —
// BENCH_*.json metric logs (metrics/diff, raccd-report) and Chrome Trace
// Event files (obs/trace_validate).
//
// Strict RFC 8259 values, with two limits that keep hostile input an error
// rather than a crash: nesting deeper than kMaxDepth and trailing bytes
// after the top-level value are both rejected. \u escapes outside ASCII
// decode to '?' (every name the tools compare is ASCII).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace raccd::json {

inline constexpr std::size_t kMaxDepth = 256;

struct Member;

struct Value {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<Member> object;  ///< members in document order

  /// Object member by key (the last one on duplicates); nullptr when this
  /// is not an object or has no such member.
  [[nodiscard]] const Value* get(std::string_view key) const;
};

struct Member {
  std::string key;
  Value value;
};

/// Parse one JSON document into `out`. Returns "" or an error naming the
/// byte offset where parsing stopped.
[[nodiscard]] std::string parse(std::string_view text, Value& out);

}  // namespace raccd::json
