#include "mediator/durability/serialize.h"

#include <algorithm>
#include <cstring>

#include "mediator/durability/integrity.h"
#include "relational/parser.h"

namespace squirrel {

namespace {

Status Truncated(const char* what) {
  return Status::Internal(std::string("corrupt record: truncated ") + what);
}

}  // namespace

// ---- BinaryWriter ---------------------------------------------------------

void BinaryWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
}

void BinaryWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
}

void BinaryWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BinaryWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

// ---- BinaryReader ---------------------------------------------------------

Result<uint8_t> BinaryReader::GetU8() {
  if (remaining() < 1) return Truncated("u8");
  return static_cast<uint8_t>(bytes_[pos_++]);
}

Result<uint32_t> BinaryReader::GetU32() {
  if (remaining() < 4) return Truncated("u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++])) << (8 * i);
  }
  return v;
}

Result<uint64_t> BinaryReader::GetU64() {
  if (remaining() < 8) return Truncated("u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++])) << (8 * i);
  }
  return v;
}

Result<int64_t> BinaryReader::GetI64() {
  SQ_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> BinaryReader::GetDouble() {
  SQ_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BinaryReader::GetString() {
  SQ_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (remaining() < len) return Truncated("string body");
  std::string s = bytes_.substr(pos_, len);
  pos_ += len;
  return s;
}

// ---- Value ----------------------------------------------------------------

void EncodeValue(BinaryWriter* w, const Value& v) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      w->PutI64(v.AsInt());
      break;
    case ValueType::kDouble:
      w->PutDouble(v.AsDouble());
      break;
    case ValueType::kString:
      w->PutString(v.AsString());
      break;
  }
}

Result<Value> DecodeValue(BinaryReader* r) {
  SQ_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value();
    case ValueType::kInt: {
      SQ_ASSIGN_OR_RETURN(int64_t v, r->GetI64());
      return Value(v);
    }
    case ValueType::kDouble: {
      SQ_ASSIGN_OR_RETURN(double v, r->GetDouble());
      return Value(v);
    }
    case ValueType::kString: {
      SQ_ASSIGN_OR_RETURN(std::string v, r->GetString());
      return Value(std::move(v));
    }
  }
  return Status::Internal("corrupt record: unknown value tag " +
                          std::to_string(tag));
}

// ---- Tuple ----------------------------------------------------------------

void EncodeTuple(BinaryWriter* w, const Tuple& t) {
  w->PutU32(static_cast<uint32_t>(t.size()));
  for (size_t i = 0; i < t.size(); ++i) EncodeValue(w, t.at(i));
}

Result<Tuple> DecodeTuple(BinaryReader* r) {
  SQ_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  std::vector<Value> values;
  // Clamped reserves throughout the decoders: a corrupted count must surface
  // as a decode error, not a bad_alloc (every element costs >= 1 byte).
  values.reserve(std::min<size_t>(n, r->remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    SQ_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

// ---- Schema ---------------------------------------------------------------

void EncodeSchema(BinaryWriter* w, const Schema& s) {
  w->PutU32(static_cast<uint32_t>(s.size()));
  for (const Attribute& a : s.attrs()) {
    w->PutString(a.name);
    w->PutU8(static_cast<uint8_t>(a.type));
  }
  w->PutU32(static_cast<uint32_t>(s.key().size()));
  for (const std::string& k : s.key()) w->PutString(k);
}

Result<Schema> DecodeSchema(BinaryReader* r) {
  SQ_ASSIGN_OR_RETURN(uint32_t nattrs, r->GetU32());
  std::vector<Attribute> attrs;
  attrs.reserve(std::min<size_t>(nattrs, r->remaining()));
  for (uint32_t i = 0; i < nattrs; ++i) {
    Attribute a;
    SQ_ASSIGN_OR_RETURN(a.name, r->GetString());
    SQ_ASSIGN_OR_RETURN(uint8_t t, r->GetU8());
    if (t > static_cast<uint8_t>(ValueType::kString)) {
      return Status::Internal("corrupt record: bad attribute type");
    }
    a.type = static_cast<ValueType>(t);
    attrs.push_back(std::move(a));
  }
  SQ_ASSIGN_OR_RETURN(uint32_t nkey, r->GetU32());
  std::vector<std::string> key;
  key.reserve(std::min<size_t>(nkey, r->remaining()));
  for (uint32_t i = 0; i < nkey; ++i) {
    SQ_ASSIGN_OR_RETURN(std::string k, r->GetString());
    key.push_back(std::move(k));
  }
  Schema schema(std::move(attrs), std::move(key));
  SQ_RETURN_IF_ERROR(schema.Validate());
  return schema;
}

// ---- Relation -------------------------------------------------------------

void EncodeRelation(BinaryWriter* w, const Relation& rel) {
  w->PutU8(rel.semantics() == Semantics::kBag ? 1 : 0);
  EncodeSchema(w, rel.schema());
  auto rows = rel.SortedRows();
  w->PutU64(rows.size());
  for (const auto& [tuple, count] : rows) {
    EncodeTuple(w, tuple);
    w->PutI64(count);
  }
}

Result<Relation> DecodeRelation(BinaryReader* r) {
  SQ_ASSIGN_OR_RETURN(uint8_t bag, r->GetU8());
  SQ_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(r));
  Relation rel(std::move(schema), bag ? Semantics::kBag : Semantics::kSet);
  SQ_ASSIGN_OR_RETURN(uint64_t nrows, r->GetU64());
  for (uint64_t i = 0; i < nrows; ++i) {
    SQ_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(r));
    SQ_ASSIGN_OR_RETURN(int64_t count, r->GetI64());
    SQ_RETURN_IF_ERROR(rel.Insert(t, count));
  }
  return rel;
}

// ---- Delta ----------------------------------------------------------------

void EncodeDelta(BinaryWriter* w, const Delta& d) {
  EncodeSchema(w, d.schema());
  auto atoms = d.SortedAtoms();
  w->PutU64(atoms.size());
  for (const auto& [tuple, count] : atoms) {
    EncodeTuple(w, tuple);
    w->PutI64(count);
  }
}

Result<Delta> DecodeDelta(BinaryReader* r) {
  SQ_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(r));
  Delta d(std::move(schema));
  SQ_ASSIGN_OR_RETURN(uint64_t natoms, r->GetU64());
  for (uint64_t i = 0; i < natoms; ++i) {
    SQ_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(r));
    SQ_ASSIGN_OR_RETURN(int64_t count, r->GetI64());
    SQ_RETURN_IF_ERROR(d.Add(t, count));
  }
  return d;
}

// ---- MultiDelta -----------------------------------------------------------

void EncodeMultiDelta(BinaryWriter* w, const MultiDelta& md) {
  auto names = md.RelationNames();  // sorted
  w->PutU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    w->PutString(name);
    EncodeDelta(w, *md.Find(name));
  }
}

Result<MultiDelta> DecodeMultiDelta(BinaryReader* r) {
  SQ_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  MultiDelta md;
  for (uint32_t i = 0; i < n; ++i) {
    SQ_ASSIGN_OR_RETURN(std::string name, r->GetString());
    SQ_ASSIGN_OR_RETURN(Delta d, DecodeDelta(r));
    Delta* slot = md.Mutable(name, d.schema());
    SQ_RETURN_IF_ERROR(slot->SmashInPlace(d));
  }
  return md;
}

// ---- UpdateMessage --------------------------------------------------------

void EncodeUpdateMessage(BinaryWriter* w, const UpdateMessage& msg) {
  w->PutString(msg.source);
  w->PutTime(msg.send_time);
  w->PutU64(msg.seq);
  w->PutU64(msg.epoch);
  EncodeMultiDelta(w, msg.delta);
}

Result<UpdateMessage> DecodeUpdateMessage(BinaryReader* r) {
  UpdateMessage msg;
  SQ_ASSIGN_OR_RETURN(msg.source, r->GetString());
  SQ_ASSIGN_OR_RETURN(msg.send_time, r->GetTime());
  SQ_ASSIGN_OR_RETURN(msg.seq, r->GetU64());
  SQ_ASSIGN_OR_RETURN(msg.epoch, r->GetU64());
  SQ_ASSIGN_OR_RETURN(msg.delta, DecodeMultiDelta(r));
  return msg;
}

// ---- Poll messages --------------------------------------------------------

void EncodePollRequest(BinaryWriter* w, const PollRequest& req) {
  w->PutU64(req.id);
  w->PutTime(req.deadline);
  w->PutU8(static_cast<uint8_t>(req.qclass));
  w->PutU32(static_cast<uint32_t>(req.polls.size()));
  for (const PollSpec& p : req.polls) {
    w->PutString(p.relation);
    w->PutU32(static_cast<uint32_t>(p.attrs.size()));
    for (const std::string& a : p.attrs) w->PutString(a);
    // Conditions travel as predicate text; empty = null (true).
    w->PutString(p.cond ? p.cond->ToString() : std::string());
  }
}

Result<PollRequest> DecodePollRequest(BinaryReader* r) {
  PollRequest req;
  SQ_ASSIGN_OR_RETURN(req.id, r->GetU64());
  SQ_ASSIGN_OR_RETURN(req.deadline, r->GetTime());
  SQ_ASSIGN_OR_RETURN(uint8_t cls, r->GetU8());
  if (cls >= kNumQueryClasses) {
    return Status::Internal("corrupt record: bad query class " +
                            std::to_string(cls));
  }
  req.qclass = static_cast<QueryClass>(cls);
  SQ_ASSIGN_OR_RETURN(uint32_t npolls, r->GetU32());
  req.polls.reserve(std::min<size_t>(npolls, r->remaining()));
  for (uint32_t i = 0; i < npolls; ++i) {
    PollSpec p;
    SQ_ASSIGN_OR_RETURN(p.relation, r->GetString());
    SQ_ASSIGN_OR_RETURN(uint32_t nattrs, r->GetU32());
    p.attrs.reserve(std::min<size_t>(nattrs, r->remaining()));
    for (uint32_t j = 0; j < nattrs; ++j) {
      SQ_ASSIGN_OR_RETURN(std::string a, r->GetString());
      p.attrs.push_back(std::move(a));
    }
    SQ_ASSIGN_OR_RETURN(std::string cond_text, r->GetString());
    if (!cond_text.empty()) {
      SQ_ASSIGN_OR_RETURN(p.cond, ParsePredicate(cond_text));
    }
    req.polls.push_back(std::move(p));
  }
  return req;
}

void EncodePollAnswer(BinaryWriter* w, const PollAnswer& ans) {
  w->PutU64(ans.id);
  w->PutString(ans.source);
  w->PutTime(ans.answered_at);
  w->PutU64(ans.epoch);
  w->PutTime(ans.retry_after);
  w->PutU32(static_cast<uint32_t>(ans.results.size()));
  for (const Relation& rel : ans.results) EncodeRelation(w, rel);
}

Result<PollAnswer> DecodePollAnswer(BinaryReader* r) {
  PollAnswer ans;
  SQ_ASSIGN_OR_RETURN(ans.id, r->GetU64());
  SQ_ASSIGN_OR_RETURN(ans.source, r->GetString());
  SQ_ASSIGN_OR_RETURN(ans.answered_at, r->GetTime());
  SQ_ASSIGN_OR_RETURN(ans.epoch, r->GetU64());
  SQ_ASSIGN_OR_RETURN(ans.retry_after, r->GetTime());
  SQ_ASSIGN_OR_RETURN(uint32_t nresults, r->GetU32());
  ans.results.reserve(std::min<size_t>(nresults, r->remaining()));
  for (uint32_t i = 0; i < nresults; ++i) {
    SQ_ASSIGN_OR_RETURN(Relation rel, DecodeRelation(r));
    ans.results.push_back(std::move(rel));
  }
  return ans;
}

uint32_t ChecksumUpdateMessage(const UpdateMessage& msg) {
  BinaryWriter w;
  EncodeUpdateMessage(&w, msg);
  return Crc32c(w.bytes());
}

uint32_t ChecksumSnapshotAnswer(const SnapshotAnswer& ans) {
  BinaryWriter w;
  w.PutU64(ans.id);
  w.PutString(ans.source);
  w.PutTime(ans.answered_at);
  w.PutU64(ans.epoch);
  w.PutU64(ans.announce_seq);
  w.PutU32(static_cast<uint32_t>(ans.relations.size()));
  for (const auto& [name, rel] : ans.relations) {
    w.PutString(name);
    EncodeRelation(&w, rel);
  }
  return Crc32c(w.bytes());
}

bool ChecksumVerifies(const UpdateMessage& msg) {
  return msg.checksum == ChecksumUpdateMessage(msg);
}

bool ChecksumVerifies(const SnapshotAnswer& ans) {
  return ans.checksum == ChecksumSnapshotAnswer(ans);
}

}  // namespace squirrel
