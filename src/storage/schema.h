// Relation schema: named attributes over an integer domain.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/storage/types.h"

namespace declust::storage {

/// \brief Definition of one attribute.
struct AttributeDef {
  std::string name;
};

/// \brief How a derived attribute is computed from a stored one:
/// (base % modulus) * scale + offset, where modulus 0 means the base value
/// itself. Covers every Wisconsin attribute derived from unique1, e.g.
/// twentyPercent = (unique1, 5, 1, 0), oddOnePercent = (unique1, 100, 2, 1).
struct Derivation {
  AttrId base = 0;
  Value modulus = 0;
  Value scale = 1;
  Value offset = 0;

  Value Apply(Value base_value) const {
    return (modulus == 0 ? base_value : base_value % modulus) * scale +
           offset;
  }
};

/// \brief An ordered list of attributes: the stored ones first (ids
/// 0..num_stored()-1), then the derived ones, which a Relation computes
/// from a stored attribute instead of storing.
class Schema {
 public:
  Schema() = default;
  /// A schema of stored attributes only.
  explicit Schema(std::vector<AttributeDef> attrs);

  /// Appends a derived attribute (id num_attributes()). Its base must be a
  /// stored attribute, and the modulus must not be negative.
  [[nodiscard]] Status AddDerived(std::string name, Derivation rule);

  int num_attributes() const { return static_cast<int>(attrs_.size()); }
  /// Attributes a Relation stores per tuple.
  int num_stored() const { return num_stored_; }
  const AttributeDef& attribute(AttrId i) const {
    return attrs_[static_cast<size_t>(i)];
  }
  /// The rule of derived attribute `i` (requires i >= num_stored()).
  const Derivation& derivation(AttrId i) const {
    return rules_[static_cast<size_t>(i - num_stored_)];
  }

  /// Index of the attribute named `name`.
  Result<AttrId> AttrIndex(std::string_view name) const;

  bool HasAttribute(std::string_view name) const {
    return AttrIndex(name).ok();
  }

 private:
  std::vector<AttributeDef> attrs_;
  // rules_[i - num_stored_] derives attribute i.
  std::vector<Derivation> rules_;
  int num_stored_ = 0;
};

}  // namespace declust::storage
