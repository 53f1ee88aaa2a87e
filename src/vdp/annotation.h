// Per-attribute materialized/virtual annotations of a VDP (paper §5.1).
//
// An annotation maps each attribute of each non-leaf node to m or v. The
// materialized projection of a node is what the local store actually holds;
// virtual attributes are computed on demand by the VAP.

#ifndef SQUIRREL_VDP_ANNOTATION_H_
#define SQUIRREL_VDP_ANNOTATION_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "vdp/vdp.h"

namespace squirrel {

/// Mode of one attribute.
enum class AttrMode { kMaterialized, kVirtual };

/// \brief An annotation for a whole VDP. Unset attributes default to
/// materialized, so `Annotation()` is the fully materialized annotation.
class Annotation {
 public:
  Annotation() = default;

  /// The fully materialized annotation (explicit, for readability).
  static Annotation AllMaterialized() { return Annotation(); }

  /// Sets one attribute's mode.
  void Set(const std::string& node, const std::string& attr, AttrMode mode);

  /// Sets every attribute of \p node (per \p vdp's schema) to \p mode.
  Status SetAll(const Vdp& vdp, const std::string& node, AttrMode mode);

  /// Parses the paper's bracket notation "r1 m, r3 v, s1 m, s2 v" for one
  /// node and applies it.
  Status SetFromSpec(const Vdp& vdp, const std::string& node,
                     const std::string& spec);

  /// Mode of an attribute (materialized if never set).
  AttrMode ModeOf(const std::string& node, const std::string& attr) const;

  /// True iff the attribute is materialized.
  bool IsMaterialized(const std::string& node, const std::string& attr) const {
    return ModeOf(node, attr) == AttrMode::kMaterialized;
  }

  /// Materialized attributes of \p node, in schema order.
  std::vector<std::string> MaterializedAttrs(const Vdp& vdp,
                                             const std::string& node) const;
  /// Virtual attributes of \p node, in schema order.
  std::vector<std::string> VirtualAttrs(const Vdp& vdp,
                                        const std::string& node) const;

  /// True iff every attribute of \p node is materialized.
  bool FullyMaterialized(const Vdp& vdp, const std::string& node) const;
  /// True iff every attribute of \p node is virtual.
  bool FullyVirtual(const Vdp& vdp, const std::string& node) const;
  /// True iff \p node mixes materialized and virtual attributes.
  bool IsHybrid(const Vdp& vdp, const std::string& node) const;

  /// Checks every annotated (node, attr) exists in the VDP and that leaves
  /// are not annotated.
  Status Validate(const Vdp& vdp) const;

  /// Renders "T[r1^m, r3^v, s1^m, s2^v]" for a node.
  std::string NodeToString(const Vdp& vdp, const std::string& node) const;
  /// Renders all non-leaf nodes, one per line.
  std::string ToString(const Vdp& vdp) const;

 private:
  // node -> attr -> mode (absent = materialized)
  std::map<std::string, std::map<std::string, AttrMode>> modes_;
};

/// The [ZGHW95] warehouse: export nodes fully materialized, every other
/// derived node fully virtual, so the view is kept with no auxiliary data
/// and maintenance polls the sources (Example 2.2 generalizes it).
Annotation WarehouseAnnotation(const Vdp& vdp);

/// The virtual approach of the paper's §1: every derived node virtual, so
/// the sources are passive virtual-contributors and every query decomposes
/// to them.
Annotation FullyVirtualAnnotation(const Vdp& vdp);

}  // namespace squirrel

#endif  // SQUIRREL_VDP_ANNOTATION_H_
