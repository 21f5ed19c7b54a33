#include "src/common/spec.h"

#include <charconv>
#include <cmath>
#include <optional>

#include "src/common/parse.h"

namespace declust::spec {

namespace {

constexpr Value kNodeIndex = Integer(0, 1 << 20);

/// The shortest "%g"-style spelling of `v` that parses back to `v`
/// exactly. Values with at most six significant digits print as "%g" does.
std::string FormatNumber(double v) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general).ptr;
  return std::string(buf, end);
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::string Quoted(std::string_view s) {
  std::string out = "'";
  out.append(s);
  out += '\'';
  return out;
}

std::string FormatValue(double v, Atom atom) {
  switch (atom) {
    case Atom::kInteger:
      return std::to_string(static_cast<int64_t>(v));
    case Atom::kDuration:
      return FormatMs(v);
    case Atom::kNumber:
      break;
  }
  return FormatNumber(v);
}

/// "a number in [0, 1]", "an integer >= 1", "a duration > 0s", ...
std::string Describe(const Value& v) {
  std::string out = v.atom == Atom::kInteger    ? "an integer"
                    : v.atom == Atom::kDuration ? "a duration"
                                                : "a number";
  if (v.hi == DBL_MAX) {
    return out + (v.lo_open ? " > " : " >= ") + FormatValue(v.lo, v.atom);
  }
  return out + " in " + (v.lo_open ? "(" : "[") + FormatValue(v.lo, v.atom) +
         ", " + FormatValue(v.hi, v.atom) + (v.hi_open ? ")" : "]");
}

/// Parses `s` as `v`'s atom and checks its range; durations come back in
/// milliseconds. The charset test keeps hex, inf and nan from strtod.
std::optional<double> ParseValue(std::string_view s, const Value& v) {
  double scale = 1.0;
  if (v.atom == Atom::kDuration) {
    scale = 1000.0;
    if (s.ends_with("ms")) {
      scale = 1.0;
      s.remove_suffix(2);
    } else if (s.ends_with('s')) {
      s.remove_suffix(1);
    }
  }
  if (s.empty() || s.find_first_not_of("0123456789+-.eE") !=
                       std::string_view::npos) {
    return std::nullopt;
  }
  double x = 0.0;
  if (v.atom == Atom::kInteger) {
    const auto parsed = ParseInt64(s);
    if (!parsed.ok()) return std::nullopt;
    x = static_cast<double>(*parsed);
  } else {
    const auto parsed = ParseDouble(s, -DBL_MAX, DBL_MAX);
    if (!parsed.ok()) return std::nullopt;
    x = *parsed * scale;
  }
  const bool above = v.lo_open ? x > v.lo : x >= v.lo;
  const bool below = v.hi_open ? x < v.hi : x <= v.hi;
  if (!std::isfinite(x) || !above || !below) return std::nullopt;
  return x;
}

/// Fills a head from `s`; false when `s` does not spell one.
bool ParseHead(const Head& head, std::string_view s, void* record) {
  switch (head.atom) {
    case HeadAtom::kNone:
      return true;
    case HeadAtom::kWord:
      return s == head.word;
    case HeadAtom::kValue: {
      const auto v = ParseValue(s, head.value);
      if (v) head.field.Set(record, *v);
      return v.has_value();
    }
    case HeadAtom::kNode:
    case HeadAtom::kNodeRange: {
      if (!s.starts_with("node")) return false;
      s.remove_prefix(4);
      const auto dash = head.atom == HeadAtom::kNodeRange
                            ? s.find('-')
                            : std::string_view::npos;
      const auto lo = ParseValue(s.substr(0, dash), kNodeIndex);
      const auto hi = dash == std::string_view::npos
                          ? lo
                          : ParseValue(s.substr(dash + 1), kNodeIndex);
      if (!lo || !hi || *lo > *hi) return false;
      head.field.Set(record, *lo);
      if (head.atom == HeadAtom::kNodeRange) head.field2.Set(record, *hi);
      return true;
    }
    case HeadAtom::kObjective: {
      const auto lt = s.find('<');
      if (!s.starts_with('p') || lt == std::string_view::npos) return false;
      const std::string_view q = s.substr(1, lt - 1);
      if (q != "50" && q != "95" && q != "99") return false;
      const auto bound =
          ParseValue(s.substr(lt + 1), ExcludeLo(Duration()));
      if (!bound) return false;
      head.field.Set(record, q == "50" ? 50 : q == "95" ? 95 : 99);
      head.field2.Set(record, *bound);
      return true;
    }
  }
  return false;
}

/// What a head must look like, for its error message.
std::string HeadSyntax(const Head& head) {
  switch (head.atom) {
    case HeadAtom::kNode:
      return "target must be nodeN with N " + Describe(kNodeIndex);
    case HeadAtom::kNodeRange:
      return "target must be nodeA or nodeA-B with A <= B, each " +
             Describe(kNodeIndex);
    case HeadAtom::kWord:
      return "target must be " + Quoted(head.word);
    case HeadAtom::kValue:
      return "must be " + Describe(head.value);
    case HeadAtom::kObjective:
      return "objective must be pQQ<BOUND with QQ one of 50, 95, 99 and "
             "BOUND " +
             Describe(ExcludeLo(Duration()));
    case HeadAtom::kNone:
      break;
  }
  return "";  // kNone: ParseHead never fails
}

std::string FormatHead(const Head& head, const void* record) {
  const auto node = [&](const Field& f) {
    return std::to_string(static_cast<int>(f.Get(record)));
  };
  switch (head.atom) {
    case HeadAtom::kNone:
      return "";
    case HeadAtom::kWord:
      return std::string(head.word);
    case HeadAtom::kValue:
      return FormatValue(head.field.Get(record), head.value.atom);
    case HeadAtom::kNode:
      return "node" + node(head.field);
    case HeadAtom::kNodeRange: {
      std::string out = "node" + node(head.field);
      if (head.field2.Get(record) != head.field.Get(record)) {
        out += '-';
        out += node(head.field2);
      }
      return out;
    }
    case HeadAtom::kObjective: {
      // append(), not an operator+ chain: GCC 12's -Wrestrict flags the
      // latter with a false positive at -O3.
      std::string out = "p";
      out.append(node(head.field));
      out += '<';
      out.append(FormatMs(head.field2.Get(record)));
      return out;
    }
  }
  return "";
}

}  // namespace

Result<std::vector<Item>> Grammar::Split(std::string_view spec) const {
  const auto error = [this](const std::string& what) {
    return Status::InvalidArgument(std::string(plan) + ": " + what);
  };
  std::vector<Item> items;
  std::vector<char> seen(kinds.size(), 0);
  while (!spec.empty()) {
    const auto semi = spec.find(';');
    const std::string_view text = Trim(spec.substr(0, semi));
    spec = semi == std::string_view::npos ? std::string_view()
                                          : spec.substr(semi + 1);
    if (text.empty()) continue;
    const auto colon = text.find(':');
    if (colon == std::string_view::npos) {
      return error("missing ':' in " + std::string(noun) + " " +
                   Quoted(text));
    }
    const std::string_view name = Trim(text.substr(0, colon));
    size_t k = 0;
    while (k < kinds.size() && kinds[k].name != name) ++k;
    if (k == kinds.size()) {
      std::string expected;
      for (size_t i = 0; i < kinds.size(); ++i) {
        if (i > 0) expected += i + 1 == kinds.size() ? " or " : ", ";
        expected += kinds[i].name;
      }
      return error("unknown kind " + Quoted(name) + " (expected " + expected +
                   ")");
    }
    const Kind& kind = kinds[k];
    if (kind.once && seen[k]) {
      return error("duplicate '" + std::string(name) + ":' item");
    }
    seen[k] = 1;
    Item item;
    item.kind = static_cast<int>(k);
    item.text = text;
    const std::string_view body = Trim(text.substr(colon + 1));
    if (kind.head.atom == HeadAtom::kNone) {
      item.options = body;
      item.has_options = !body.empty();
    } else {
      const auto end = body.find(kind.head_end);
      item.head = Trim(body.substr(0, end));
      item.has_options = end != std::string_view::npos;
      if (item.has_options) item.options = body.substr(end + 1);
    }
    items.push_back(item);
  }
  return items;
}

Status Grammar::FillRecord(const Item& item, void* record) const {
  const Kind& kind = kinds[static_cast<size_t>(item.kind)];
  const auto error = [&](const std::string& what) {
    return Status::InvalidArgument(std::string(plan) + ": " + what);
  };
  if (!ParseHead(kind.head, item.head, record)) {
    return error(std::string(kind.name) + " " + HeadSyntax(kind.head) +
                 ", got " + Quoted(item.head));
  }
  std::vector<char> seen(kind.keys.size(), 0);
  // Every ',' opens an option, so an empty one (",,", a trailing ',' or
  // nothing after head_end) is an error rather than skipped.
  std::string_view rest = item.options;
  while (item.has_options) {
    const auto comma = rest.find(',');
    const std::string_view option = Trim(rest.substr(0, comma));
    const auto eq = option.find('=');
    if (eq == std::string_view::npos) {
      return error("expected key=value, got " + Quoted(option));
    }
    const std::string_view name = option.substr(0, eq);
    const std::string_view text = option.substr(eq + 1);
    size_t k = 0;
    while (k < kind.keys.size() && kind.keys[k].name != name) ++k;
    if (k == kind.keys.size()) {
      return error("unknown option " + Quoted(name) + " for " +
                   std::string(kind.name));
    }
    // A repeated key is almost certainly a typo'd spec; last-wins would
    // silently run something other than what the user wrote.
    if (seen[k]) {
      return error("duplicate key " + Quoted(name) + " in " +
                   std::string(noun) + " " + Quoted(item.text));
    }
    seen[k] = 1;
    const Key& key = kind.keys[k];
    const auto v = ParseValue(text, key.value);
    if (!v) {
      return error(std::string(kind.name) + " " + std::string(name) +
                   " must be " + Describe(key.value) + ", got " +
                   Quoted(text));
    }
    key.field.Set(record, *v);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  for (size_t k = 0; k < kind.keys.size(); ++k) {
    if (kind.keys[k].presence == Presence::kRequired && !seen[k]) {
      return error(std::string(noun) + " " + Quoted(item.text) + " has no " +
                   std::string(kind.keys[k].name) + "=");
    }
  }
  return Status::OK();
}

void Grammar::PrintRecord(int k, const void* record, const void* defaults,
                          std::string* out) const {
  const Kind& kind = kinds[static_cast<size_t>(k)];
  if (!out->empty()) *out += ';';
  out->append(kind.name);
  *out += ':';
  *out += FormatHead(kind.head, record);
  char sep = kind.head.atom == HeadAtom::kNone ? '\0' : kind.head_end;
  for (const Key& key : kind.keys) {
    const double v = key.field.Get(record);
    if (key.presence == Presence::kOptional && v == key.field.Get(defaults)) {
      continue;
    }
    if (sep != '\0') *out += sep;
    sep = ',';
    out->append(key.name);
    *out += '=';
    *out += FormatValue(v, key.value.atom);
  }
}

std::string FormatMs(double ms) {
  // The range test keeps the int64 casts defined for any finite duration.
  if (std::fabs(ms) < 0x1p63 &&
      ms == static_cast<double>(static_cast<int64_t>(ms)) &&
      static_cast<int64_t>(ms) % 1000 == 0) {
    return std::to_string(static_cast<int64_t>(ms) / 1000) + "s";
  }
  return FormatNumber(ms) + "ms";
}

}  // namespace declust::spec
