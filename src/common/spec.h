// The plan grammar: one parser and one canonical printer behind the
// --faults, --recovery, --resize, --open and --control specs (DESIGN.md,
// "Plan grammar").
//
// A spec is a ';'-separated list of items, each `kind:[head][@]key=value,...`.
// A plan declares a Grammar: its kinds and, for each kind, the head it takes
// and the keys it accepts. A key names its atom and range, whether it is
// required or defaulted, and the record field it fills. Splitting, value
// parsing, range checks, error messages and the printer all come from that
// table, so a plan keeps only its semantic code (ordering, cross-item rules
// and Validate).
#pragma once

#include <cfloat>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace declust::spec {

/// How a value is spelled. Numbers are decimal (digits, sign, point and
/// exponent: no hex, inf or nan) and finite. Durations are numbers with an
/// optional `ms` or `s` suffix (default seconds), held in milliseconds.
enum class Atom : uint8_t { kNumber, kInteger, kDuration };

/// A value's atom and the range it must lie in; an open end excludes its
/// bound. `hi` at DBL_MAX means unbounded above.
struct Value {
  Atom atom = Atom::kNumber;
  double lo = 0.0;
  double hi = DBL_MAX;
  bool lo_open = false;
  bool hi_open = false;
};

constexpr Value Number(double lo, double hi = DBL_MAX) {
  return {Atom::kNumber, lo, hi};
}
constexpr Value Integer(double lo, double hi) {
  return {Atom::kInteger, lo, hi};
}
/// A duration >= 0.
constexpr Value Duration() { return {Atom::kDuration, 0.0}; }
/// `v` without its low end, e.g. ExcludeLo(Duration()) is a duration > 0.
constexpr Value ExcludeLo(Value v) {
  v.lo_open = true;
  return v;
}
/// `v` without its high end.
constexpr Value ExcludeHi(Value v) {
  v.hi_open = true;
  return v;
}

/// The record member a head or key fills, with the record's type erased so
/// that one table describes every kind of a plan. Values pass as double:
/// every int and int64 field a plan fills is exactly representable.
class Field {
 public:
  constexpr Field() = default;

  /// The field for member pointer `M`, e.g. Field::Of<&RepairEvent::node>().
  template <auto M>
  static constexpr Field Of() {
    using Traits = MemberTraits<decltype(M)>;
    using Record = typename Traits::Record;
    Field f;
    f.get_ = [](const void* r) {
      return static_cast<double>(static_cast<const Record*>(r)->*M);
    };
    f.set_ = [](void* r, double v) {
      static_cast<Record*>(r)->*M = static_cast<typename Traits::Type>(v);
    };
    return f;
  }

  double Get(const void* record) const { return get_(record); }
  void Set(void* record, double v) const { set_(record, v); }

 private:
  template <typename>
  struct MemberTraits;
  template <typename R, typename T>
  struct MemberTraits<T R::*> {
    using Record = R;
    using Type = T;
  };

  double (*get_)(const void*) = nullptr;
  void (*set_)(void*, double) = nullptr;
};

/// Shorthand for Field::Of<M>().
template <auto M>
inline constexpr Field Into = Field::Of<M>();

/// Whether a key must be given, and when the printer writes it.
enum class Presence : uint8_t {
  kRequired,  ///< must be given; always printed
  kOptional,  ///< defaults to the record's initial value; printed otherwise
  kShown,     ///< defaults like kOptional, but always printed
};

/// One `key=value` option of a kind.
struct Key {
  std::string_view name;
  Value value;
  Field field;
  Presence presence = Presence::kOptional;
};

/// The copy-throttle pair of recovery repairs, resize items and control's
/// scale: item: rate=R in MB/s of copied data (0, the default, is
/// unthrottled) and batch=P pages per copy batch (default
/// kDefaultBatchPages).
inline constexpr int kDefaultBatchPages = 8;
constexpr Key RateKey(Field mb_per_sec) {
  return {"rate", Number(0, 1e9), mb_per_sec};
}
constexpr Key BatchKey(Field pages) {
  return {"batch", Integer(1, 1 << 20), pages};
}

/// What an item carries between `kind:` and its options.
enum class HeadAtom : uint8_t {
  kNone,       ///< no head: the options start right after `kind:`
  kNode,       ///< nodeN
  kNodeRange,  ///< nodeA or nodeA-B, A <= B (B defaults to A)
  kWord,       ///< one fixed word, filling nothing
  kValue,      ///< a Value
  kObjective,  ///< pQQ<BOUND: QQ one of 50, 95, 99, BOUND a duration > 0
};

struct Head {
  HeadAtom atom = HeadAtom::kNone;
  Value value;            ///< kValue only
  Field field;            ///< node, low node, value or quantile
  Field field2;           ///< high node or objective bound
  std::string_view word;  ///< kWord only
};

constexpr Head NodeHead(Field node) {
  Head h;
  h.atom = HeadAtom::kNode;
  h.field = node;
  return h;
}
constexpr Head NodeRangeHead(Field lo, Field hi) {
  Head h = NodeHead(lo);
  h.atom = HeadAtom::kNodeRange;
  h.field2 = hi;
  return h;
}
constexpr Head WordHead(std::string_view word) {
  Head h;
  h.atom = HeadAtom::kWord;
  h.word = word;
  return h;
}
constexpr Head ValueHead(Value value, Field field) {
  Head h;
  h.atom = HeadAtom::kValue;
  h.value = value;
  h.field = field;
  return h;
}
constexpr Head ObjectiveHead(Field quantile, Field bound) {
  Head h = NodeRangeHead(quantile, bound);
  h.atom = HeadAtom::kObjective;
  return h;
}

/// One item kind: `name:[head][head_end]key=value,...`.
struct Kind {
  std::string_view name;
  Head head = {};
  /// In schema order, which is also the printer's order.
  std::vector<Key> keys = {};
  /// The character that ends a head and starts the options; without it
  /// the item has no options. Unused without a head.
  char head_end = '@';
  /// At most one item of this kind per spec.
  bool once = false;
};

/// One item of a spec, split but not yet parsed.
struct Item {
  int kind = 0;               ///< index into Grammar::kinds
  std::string_view text;      ///< the whole item, trimmed
  std::string_view head;      ///< trimmed; empty without a head
  std::string_view options;   ///< the text after the head (or `kind:`)
  bool has_options = false;
};

/// A plan's grammar: its kinds, and the words its messages use.
struct Grammar {
  std::string_view plan;  ///< message prefix, e.g. "faults"
  std::string_view noun;  ///< what an item is called, "event" or "item"
  std::vector<Kind> kinds;

  /// Splits `spec` into its items (empty ones skipped), resolving each
  /// kind and rejecting an unknown kind, a missing ':' and a second item
  /// of a `once` kind.
  Result<std::vector<Item>> Split(std::string_view spec) const;

  /// Parses `item`'s head and options into `record`, which must be the
  /// record type the item's kind was declared with. Fields without an
  /// option keep their value, which is their default.
  template <typename R>
  Status Fill(const Item& item, R* record) const {
    return FillRecord(item, record);
  }

  /// Appends the canonical form of one `kind` item holding `record` to
  /// `out` (';'-separated). kOptional keys equal to a default-initialized
  /// R's are omitted. The printed form is a fixed point of parse-then-print.
  template <typename R>
  void Print(int kind, const R& record, std::string* out) const {
    const R defaults{};
    PrintRecord(kind, &record, &defaults, out);
  }

 private:
  Status FillRecord(const Item& item, void* record) const;
  void PrintRecord(int kind, const void* record, const void* defaults,
                   std::string* out) const;
};

/// A time in ms as the plans print it: whole seconds as "Ns", anything
/// else as "<ms>ms" in the shortest "%g" style that parses back exactly.
std::string FormatMs(double ms);

}  // namespace declust::spec
