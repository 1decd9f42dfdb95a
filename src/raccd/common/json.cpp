#include "raccd/common/json.hpp"

#include <algorithm>
#include <charconv>

#include "raccd/common/format.hpp"

namespace raccd::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  [[nodiscard]] std::string parse(Value& out) {
    if (value(out, 0)) {
      skip_ws();
      if (pos_ == text_.size()) return "";
      fail("trailing bytes after the top-level value");
    }
    return strprintf("%s at offset %zu", err_, pos_);
  }

 private:
  bool fail(const char* what) {
    if (err_ == nullptr) err_ = what;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] bool string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      switch (const char esc = text_[pos_++]) {
        case '"':
        case '\\':
        case '/': out += esc; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          const char* first = text_.data() + pos_;
          const char* last = text_.data() + std::min(pos_ + 4, text_.size());
          const auto r = std::from_chars(first, last, code, 16);
          if (last - first != 4 || r.ptr != last) return fail("bad \\u escape");
          pos_ += 4;
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  [[nodiscard]] bool number(double& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E') {
        break;
      }
      ++pos_;
    }
    const char* last = text_.data() + pos_;
    const auto r = std::from_chars(text_.data() + start, last, out);
    if (pos_ == start || r.ec != std::errc{} || r.ptr != last) {
      pos_ = start;
      return fail("bad number");
    }
    return true;
  }

  [[nodiscard]] bool value(Value& out, std::size_t depth) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth >= kMaxDepth) return fail("nesting deeper than 256");
      ++pos_;
      const char close = c == '{' ? '}' : ']';
      out.kind = c == '{' ? Value::Kind::kObject : Value::Kind::kArray;
      if (consume(close)) return true;
      do {
        Value* slot = nullptr;
        if (c == '{') {
          Member& m = out.object.emplace_back();
          if (!string(m.key)) return false;
          if (!consume(':')) return fail("expected ':'");
          slot = &m.value;
        } else {
          slot = &out.array.emplace_back();
        }
        if (!value(*slot, depth + 1)) return false;
      } while (consume(','));
      return consume(close) || fail(c == '{' ? "expected ',' or '}'" : "expected ',' or ']'");
    }
    if (c == '"') {
      out.kind = Value::Kind::kString;
      return string(out.string);
    }
    if (c == 't' || c == 'f') {
      out.kind = Value::Kind::kBool;
      out.boolean = c == 't';
      return literal(out.boolean ? "true" : "false");
    }
    if (c == 'n') {
      out.kind = Value::Kind::kNull;
      return literal("null");
    }
    out.kind = Value::Kind::kNumber;
    return number(out.number);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* err_ = nullptr;
};

}  // namespace

const Value* Value::get(std::string_view key) const {
  for (auto it = object.rbegin(); it != object.rend(); ++it) {
    if (it->key == key) return &it->value;
  }
  return nullptr;
}

std::string parse(std::string_view text, Value& out) {
  out = Value{};
  return Parser(text).parse(out);
}

}  // namespace raccd::json
