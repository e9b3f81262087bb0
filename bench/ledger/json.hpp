// Just enough JSON for the ledger: a value tree, a strict parser (result
// files and BENCHMARK.json are read back by `compare`), and string
// escaping for the writers.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace ledger::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< in file order

  /// Member lookup; null when absent or when this is not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;
};

/// Parse one JSON document; throws std::runtime_error naming the offset.
Value parse(const std::string& text);
/// Read and parse a file; throws std::runtime_error on I/O or syntax error.
Value parse_file(const std::string& path);

/// `s` as a quoted JSON string literal.
std::string quote(const std::string& s);
/// A finite double with all its significant digits (17), or 0 for a
/// non-finite value (JSON has no NaN).
std::string number(double v);

}  // namespace ledger::json
