#include "src/storage/schema.h"

namespace declust::storage {

Schema::Schema(std::vector<AttributeDef> attrs)
    : attrs_(std::move(attrs)), num_stored_(static_cast<int>(attrs_.size())) {}

Status Schema::AddDerived(std::string name, Derivation rule) {
  if (rule.base < 0 || rule.base >= num_attributes()) {
    return Status::OutOfRange("derived attribute " + name + ": base " +
                              std::to_string(rule.base) +
                              " is not an attribute");
  }
  if (rule.base >= num_stored_) {
    return Status::InvalidArgument("derived attribute " + name + ": base " +
                                   attrs_[static_cast<size_t>(rule.base)].name +
                                   " is itself derived");
  }
  if (rule.modulus < 0) {
    return Status::InvalidArgument("derived attribute " + name +
                                   ": negative modulus");
  }
  attrs_.push_back(AttributeDef{std::move(name)});
  rules_.push_back(rule);
  return Status::OK();
}

Result<AttrId> Schema::AttrIndex(std::string_view name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return static_cast<AttrId>(i);
  }
  return Status::NotFound(std::string("no attribute named ") +
                          std::string(name));
}

}  // namespace declust::storage
