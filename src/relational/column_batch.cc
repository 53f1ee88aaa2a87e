#include "relational/column_batch.h"

#include <cstring>
#include <utility>

namespace squirrel {

namespace {

uint64_t DoubleBits(double d) {
  uint64_t u;
  static_assert(sizeof(u) == sizeof(d));
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Approximate per-entry overhead of an interned string: the std::string
/// object, the map node, and bucket share. Rough but stable, which is what
/// budget accounting needs.
constexpr size_t kInternOverhead = 64;

}  // namespace

StringArena::~StringArena() {
  if (budget_ != nullptr) ReleaseGlobalBudget(budget_, charged_);
}

uint32_t StringArena::Intern(std::string_view s) {
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(std::string_view(strings_.back()), id);
  const size_t bytes = s.size() + kInternOverhead;
  if (MemoryBudget* b = ChargeGlobalBudget(bytes)) {
    budget_ = b;
    charged_ += bytes;
  }
  return id;
}

std::optional<uint32_t> StringArena::Find(std::string_view s) const {
  auto it = ids_.find(s);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

ColumnBatch::ColumnBatch(size_t num_columns, std::vector<size_t> built,
                         size_t rows)
    : columns_(num_columns), built_(std::move(built)) {
  for (size_t c : built_) {
    columns_[c].tags.reserve(rows);
    columns_[c].bits.reserve(rows);
  }
}

void ColumnBatch::AppendRow(const Tuple& t) {
  ++rows_;
  for (size_t c : built_) {
    Column& col = columns_[c];
    const Value& v = t.at(c);
    switch (v.type()) {
      case ValueType::kNull:
        col.tags.push_back(kTagNull);
        col.bits.push_back(0);
        break;
      case ValueType::kInt:
        col.tags.push_back(kTagInt);
        col.bits.push_back(static_cast<uint64_t>(v.AsInt()));
        break;
      case ValueType::kDouble:
        col.tags.push_back(kTagDouble);
        col.bits.push_back(DoubleBits(v.AsDouble()));
        break;
      case ValueType::kString:
        col.tags.push_back(kTagString);
        if (!arena_) arena_ = std::make_unique<StringArena>();
        col.bits.push_back(arena_->Intern(v.AsString()));
        break;
    }
  }
}

}  // namespace squirrel
