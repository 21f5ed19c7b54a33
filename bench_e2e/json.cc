#include "bench_e2e/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace declust::bench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    DECLUST_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(std::string_view what) const {
    return Status::InvalidArgument("JSON: " + std::string(what) +
                                   " at offset " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end");
    Json v;
    const char c = text_[pos_];
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++pos_;
      SkipSpace();
      if (Consume("}")) return v;
      while (true) {
        SkipSpace();
        DECLUST_ASSIGN_OR_RETURN(std::string key, ParseString());
        SkipSpace();
        if (!Consume(":")) return Error("expected ':'");
        DECLUST_ASSIGN_OR_RETURN(Json member, ParseValue(depth + 1));
        v.object.emplace_back(std::move(key), std::move(member));
        SkipSpace();
        if (Consume("}")) return v;
        if (!Consume(",")) return Error("expected ',' or '}'");
      }
    }
    if (c == '[') {
      v.type = Json::Type::kArray;
      ++pos_;
      SkipSpace();
      if (Consume("]")) return v;
      while (true) {
        DECLUST_ASSIGN_OR_RETURN(Json element, ParseValue(depth + 1));
        v.array.push_back(std::move(element));
        SkipSpace();
        if (Consume("]")) return v;
        if (!Consume(",")) return Error("expected ',' or ']'");
      }
    }
    if (c == '"') {
      v.type = Json::Type::kString;
      DECLUST_ASSIGN_OR_RETURN(v.string, ParseString());
      return v;
    }
    if (Consume("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (Consume("false")) {
      v.type = Json::Type::kBool;
      return v;
    }
    if (Consume("null")) return v;
    // strtod needs a terminated buffer; numbers are short.
    size_t end = pos_;
    while (end < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[end]) !=
               std::string_view::npos) {
      ++end;
    }
    const std::string token(text_.substr(pos_, end - pos_));
    char* stop = nullptr;
    v.number = std::strtod(token.c_str(), &stop);
    if (token.empty() || stop != token.c_str() + token.size()) {
      return Error("bad value");
    }
    v.type = Json::Type::kNumber;
    pos_ = end;
    return v;
  }

  Result<std::string> ParseString() {
    if (!Consume("\"")) return Error("expected string");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // Only the ASCII range is needed by the documents read here.
          if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16));
          out += code < 0x80 ? static_cast<char>(code) : '?';
          pos_ += 4;
          break;
        }
        default: out += e; break;
      }
    }
    return Error("unterminated string");
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Get(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::Number(std::string_view key, double fallback) const {
  const Json* v = Get(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
}

std::string Json::String(std::string_view key) const {
  const Json* v = Get(key);
  return v != nullptr && v->type == Type::kString ? v->string : "";
}

Result<Json> ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

Result<Json> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = ParseJson(buf.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace declust::bench
