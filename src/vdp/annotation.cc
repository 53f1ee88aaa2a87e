#include "vdp/annotation.h"

#include "common/strings.h"

namespace squirrel {

void Annotation::Set(const std::string& node, const std::string& attr,
                     AttrMode mode) {
  modes_[node][attr] = mode;
}

Status Annotation::SetAll(const Vdp& vdp, const std::string& node,
                          AttrMode mode) {
  SQ_ASSIGN_OR_RETURN(const VdpNode* n, vdp.Get(node));
  for (const auto& a : n->schema.attrs()) Set(node, a.name, mode);
  return Status::OK();
}

Status Annotation::SetFromSpec(const Vdp& vdp, const std::string& node,
                               const std::string& spec) {
  SQ_ASSIGN_OR_RETURN(const VdpNode* n, vdp.Get(node));
  for (const auto& piece : Split(spec, ',')) {
    auto fields = Split(std::string(StripWhitespace(piece)), ' ');
    // Expect "<attr> <m|v>"; tolerate extra whitespace.
    std::vector<std::string> tokens;
    for (auto& f : fields) {
      if (!StripWhitespace(f).empty()) {
        tokens.emplace_back(StripWhitespace(f));
      }
    }
    if (tokens.size() != 2 || (tokens[1] != "m" && tokens[1] != "v")) {
      return Status::InvalidArgument("bad annotation entry: '" + piece +
                                     "' (want \"attr m\" or \"attr v\")");
    }
    if (!n->schema.Contains(tokens[0])) {
      return Status::NotFound("annotation for unknown attribute " +
                              tokens[0] + " of node " + node);
    }
    Set(node, tokens[0],
        tokens[1] == "m" ? AttrMode::kMaterialized : AttrMode::kVirtual);
  }
  return Status::OK();
}

AttrMode Annotation::ModeOf(const std::string& node,
                            const std::string& attr) const {
  auto nit = modes_.find(node);
  if (nit == modes_.end()) return AttrMode::kMaterialized;
  auto ait = nit->second.find(attr);
  if (ait == nit->second.end()) return AttrMode::kMaterialized;
  return ait->second;
}

std::vector<std::string> Annotation::MaterializedAttrs(
    const Vdp& vdp, const std::string& node) const {
  std::vector<std::string> out;
  const VdpNode* n = vdp.Find(node);
  if (n == nullptr) return out;
  for (const auto& a : n->schema.attrs()) {
    if (IsMaterialized(node, a.name)) out.push_back(a.name);
  }
  return out;
}

std::vector<std::string> Annotation::VirtualAttrs(
    const Vdp& vdp, const std::string& node) const {
  std::vector<std::string> out;
  const VdpNode* n = vdp.Find(node);
  if (n == nullptr) return out;
  for (const auto& a : n->schema.attrs()) {
    if (!IsMaterialized(node, a.name)) out.push_back(a.name);
  }
  return out;
}

bool Annotation::FullyMaterialized(const Vdp& vdp,
                                   const std::string& node) const {
  return VirtualAttrs(vdp, node).empty();
}

bool Annotation::FullyVirtual(const Vdp& vdp, const std::string& node) const {
  return MaterializedAttrs(vdp, node).empty();
}

bool Annotation::IsHybrid(const Vdp& vdp, const std::string& node) const {
  return !FullyMaterialized(vdp, node) && !FullyVirtual(vdp, node);
}

Status Annotation::Validate(const Vdp& vdp) const {
  for (const auto& [node, attr_modes] : modes_) {
    SQ_ASSIGN_OR_RETURN(const VdpNode* n, vdp.Get(node));
    if (n->is_leaf) {
      return Status::InvalidArgument("leaf node " + node +
                                     " cannot be annotated");
    }
    for (const auto& [attr, mode] : attr_modes) {
      (void)mode;
      if (!n->schema.Contains(attr)) {
        return Status::NotFound("annotated attribute " + attr +
                                " not in schema of node " + node);
      }
    }
  }
  // Implementation restriction: set nodes (difference) store distinct full
  // tuples, so projecting them onto a strict attribute subset would need
  // duplicate handling the paper does not define. Require fully
  // materialized or fully virtual difference nodes.
  for (const auto& name : vdp.DerivedNames()) {
    const VdpNode* n = vdp.Find(name);
    if (n->def && n->def->kind() == NodeDef::Kind::kDiff &&
        IsHybrid(vdp, name)) {
      return Status::Unsupported(
          "difference node " + name +
          " cannot be hybrid (fully materialize or fully virtualize it)");
    }
  }
  return Status::OK();
}

std::string Annotation::NodeToString(const Vdp& vdp,
                                     const std::string& node) const {
  const VdpNode* n = vdp.Find(node);
  if (n == nullptr) return node + "[?]";
  std::vector<std::string> parts;
  for (const auto& a : n->schema.attrs()) {
    parts.push_back(a.name +
                    (IsMaterialized(node, a.name) ? "^m" : "^v"));
  }
  return node + "[" + Join(parts, ", ") + "]";
}

std::string Annotation::ToString(const Vdp& vdp) const {
  std::string out;
  for (const auto& name : vdp.DerivedNames()) {
    out += NodeToString(vdp, name) + "\n";
  }
  return out;
}

// SetAll cannot fail below: every derived name is a node of vdp.

Annotation WarehouseAnnotation(const Vdp& vdp) {
  Annotation ann;
  for (const auto& name : vdp.DerivedNames()) {
    if (!vdp.Find(name)->exported) {
      (void)ann.SetAll(vdp, name, AttrMode::kVirtual);
    }
  }
  return ann;
}

Annotation FullyVirtualAnnotation(const Vdp& vdp) {
  Annotation ann;
  for (const auto& name : vdp.DerivedNames()) {
    (void)ann.SetAll(vdp, name, AttrMode::kVirtual);
  }
  return ann;
}

}  // namespace squirrel
