// Deterministic binary serialization of mediator hard state.
//
// Everything the recovery path reads back — repository relations, queued
// update messages, per-source sequence/reflect/quarantine state — is encoded
// with this codec. Determinism is a hard requirement, not a nicety: the
// crash–restart simulation asserts that checkpoint → restore → re-checkpoint
// is byte-identical, which only holds because every container is written in
// sorted order (Relation::SortedRows, Delta::SortedAtoms, std::map) and
// every scalar has exactly one encoding (fixed-width little-endian, doubles
// as IEEE-754 bit patterns).

#ifndef SQUIRREL_MEDIATOR_DURABILITY_SERIALIZE_H_
#define SQUIRREL_MEDIATOR_DURABILITY_SERIALIZE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "delta/delta.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "sim/clock.h"
#include "source/messages.h"

namespace squirrel {

/// \brief Append-only byte sink for the durability codec.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutTime(Time t) { PutDouble(t); }
  /// Length-prefixed byte string.
  void PutString(const std::string& s);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// \brief Bounds-checked cursor over serialized bytes.
///
/// Every Get reports corruption (truncated or malformed input) as a Status
/// instead of reading past the end, so a torn log tail is a recoverable
/// condition rather than undefined behavior.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& bytes) : bytes_(bytes) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<Time> GetTime() { return GetDouble(); }
  Result<std::string> GetString();

  /// True iff the cursor consumed every byte.
  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

// ---- composite encoders/decoders -----------------------------------------
// Encoders never fail; decoders validate structure and fail on corruption.

void EncodeValue(BinaryWriter* w, const Value& v);
Result<Value> DecodeValue(BinaryReader* r);

void EncodeTuple(BinaryWriter* w, const Tuple& t);
Result<Tuple> DecodeTuple(BinaryReader* r);

void EncodeSchema(BinaryWriter* w, const Schema& s);
Result<Schema> DecodeSchema(BinaryReader* r);

void EncodeRelation(BinaryWriter* w, const Relation& rel);
Result<Relation> DecodeRelation(BinaryReader* r);

void EncodeDelta(BinaryWriter* w, const Delta& d);
Result<Delta> DecodeDelta(BinaryReader* r);

void EncodeMultiDelta(BinaryWriter* w, const MultiDelta& md);
Result<MultiDelta> DecodeMultiDelta(BinaryReader* r);

void EncodeUpdateMessage(BinaryWriter* w, const UpdateMessage& msg);
Result<UpdateMessage> DecodeUpdateMessage(BinaryReader* r);

// Poll wire messages, including the overload-protection fields (deadline,
// query class, retry_after). Conditions travel as predicate text (empty =
// null) and are re-parsed on decode; the parser round-trips Expr::ToString.
void EncodePollRequest(BinaryWriter* w, const PollRequest& req);
Result<PollRequest> DecodePollRequest(BinaryReader* r);

void EncodePollAnswer(BinaryWriter* w, const PollAnswer& ans);
Result<PollAnswer> DecodePollAnswer(BinaryReader* r);

// ---- wire-integrity checksums (see integrity.h) ---------------------------
// CRC32C over the message's canonical encoding, EXCLUDING the checksum field
// itself (the WAL codec above deliberately never persists it: checksums are
// verified at receipt, not replayed). Every sender stamps these into the
// message; the mediator verifies every message with ChecksumVerifies and
// treats a mismatch as payload corruption — drop + no dedup-floor advance
// for updates, re-request for snapshots.

uint32_t ChecksumUpdateMessage(const UpdateMessage& msg);
uint32_t ChecksumSnapshotAnswer(const SnapshotAnswer& ans);

/// True iff the stamped checksum equals the recomputed one. Zero is not
/// special: no sender leaves the field unstamped, so a zeroed checksum is a
/// mismatch like any other.
bool ChecksumVerifies(const UpdateMessage& msg);
bool ChecksumVerifies(const SnapshotAnswer& ans);

}  // namespace squirrel

#endif  // SQUIRREL_MEDIATOR_DURABILITY_SERIALIZE_H_
