#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ledger::json {

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value document() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  Value value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    Value v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.kind = Value::Kind::kObject;
      if (consume('}')) return v;
      do {
        skip_ws();
        std::string key = string_body();
        expect(':');
        v.object.emplace_back(std::move(key), value());
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      ++pos_;
      v.kind = Value::Kind::kArray;
      if (consume(']')) return v;
      do {
        v.array.push_back(value());
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string = string_body();
    } else if (literal("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.kind = Value::Kind::kBool;
    } else if (literal("null")) {
      v.kind = Value::Kind::kNull;
    } else {
      v.kind = Value::Kind::kNumber;
      v.number = number_body();
    }
    return v;
  }

  std::string string_body() {
    if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // The ledger only ever writes ASCII; keep code points < 0x80
            // and replace anything else rather than decode UTF-16.
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            const long cp = std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16);
            pos_ += 4;
            c = cp < 0x80 ? static_cast<char>(cp) : '?';
            break;
          }
          default: c = e;  // \" \\ \/
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  double number_body() {
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) fail("unexpected character");
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).document(); }

Value parse_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  try {
    return parse(ss.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace ledger::json
