// Negative-path tests for the storage integrity layer: CRC32C vectors, frame
// verification under truncation and bit flips, the HardState codec fuzzed at
// every offset (decode must error or round-trip — never crash, and under a
// checksummed frame a flipped bit can never masquerade as success), wire
// checksum sensitivity, and the lying-disk decorator's fault surface as seen
// by DurabilityManager::Recover (tail repair, generation fallback, typed
// kCorrupted refusal).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mediator/durability/durability.h"
#include "mediator/durability/faulty_log_device.h"
#include "mediator/durability/integrity.h"
#include "mediator/durability/log_device.h"
#include "mediator/durability/serialize.h"
#include "relational/parser.h"

namespace squirrel {
namespace {

Schema TestSchema(const std::string& decl) {
  auto parsed = ParseSchemaDecl(decl);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->schema;
}

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC32C check value (RFC 3720 appendix B.4 et al.).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, SeededComputationIsIncremental) {
  const std::string all = "the quick brown fox jumps over the lazy dog";
  for (size_t cut = 0; cut <= all.size(); ++cut) {
    uint32_t first = Crc32c(all.data(), cut);
    uint32_t chained = Crc32c(all.data() + cut, all.size() - cut, first);
    EXPECT_EQ(chained, Crc32c(all)) << "cut " << cut;
  }
}

TEST(FrameTest, RoundTripBothClasses) {
  for (FrameClass cls : {FrameClass::kRecord, FrameClass::kCheckpoint}) {
    std::string framed = FrameRecord(cls, /*log_epoch=*/42, "payload bytes");
    EXPECT_EQ(PeekFrameClass(framed), cls);
    FrameInfo info = UnframeRecord(framed);
    EXPECT_TRUE(info.valid);
    EXPECT_EQ(info.frame_class, cls);
    EXPECT_EQ(info.log_epoch, 42u);
    EXPECT_EQ(info.payload, "payload bytes");
  }
  // Empty payloads frame and verify too (abort/shed records are tiny).
  FrameInfo empty = UnframeRecord(FrameRecord(FrameClass::kRecord, 1, ""));
  EXPECT_TRUE(empty.valid);
  EXPECT_EQ(empty.payload, "");
}

TEST(FrameTest, EveryTruncationIsInvalid) {
  std::string framed = FrameRecord(FrameClass::kRecord, 7, "some payload");
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    FrameInfo info = UnframeRecord(framed.substr(0, cut));
    EXPECT_FALSE(info.valid) << "prefix length " << cut;
  }
  // Trailing garbage is also not a valid frame (length mismatch).
  EXPECT_FALSE(UnframeRecord(framed + "x").valid);
}

TEST(FrameTest, EverySingleBitFlipIsDetected) {
  std::string framed = FrameRecord(FrameClass::kCheckpoint, 3, "abcdef");
  for (size_t bit = 0; bit < framed.size() * 8; ++bit) {
    std::string damaged = framed;
    damaged[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    FrameInfo info = UnframeRecord(damaged);
    EXPECT_FALSE(info.valid) << "bit " << bit;
    if (bit >= 32) {
      // A flip OUTSIDE the magic word leaves the class identifiable — the
      // property generation fallback relies on.
      EXPECT_EQ(info.frame_class, FrameClass::kCheckpoint) << "bit " << bit;
      EXPECT_EQ(PeekFrameClass(damaged), FrameClass::kCheckpoint);
    }
  }
}

TEST(FrameTest, ComplementMagicsNeverConfuseClasses) {
  // One flipped magic bit must yield kUnknown, not the OTHER class: the two
  // magic words are bitwise complements, 32 flips apart.
  std::string framed = FrameRecord(FrameClass::kRecord, 1, "x");
  for (size_t bit = 0; bit < 32; ++bit) {
    std::string damaged = framed;
    damaged[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    EXPECT_EQ(PeekFrameClass(damaged), FrameClass::kUnknown) << "bit " << bit;
  }
}

HardState FuzzState() {
  HardState hs;
  Relation t(TestSchema("T(r1, s1)"), Semantics::kBag);
  EXPECT_TRUE(t.Insert(Tuple({1, 100}), 2).ok());
  hs.repos.emplace("T", std::move(t));
  UpdateMessage msg;
  msg.source = "DB1";
  msg.send_time = 3.125;
  msg.seq = 7;
  EXPECT_TRUE(msg.delta.Mutable("R", TestSchema("R(a)"))
                  ->AddInsert(Tuple({5}))
                  .ok());
  hs.queue.push_back(std::move(msg));
  hs.sources["DB1"] = {7, 3.125, false};
  Relation mirror(TestSchema("R(a)"), Semantics::kBag);
  EXPECT_TRUE(mirror.Insert(Tuple({5})).ok());
  hs.mirrors["DB1"].emplace("R", std::move(mirror));
  hs.next_txn_id = 9;
  hs.next_resync_id = 3;
  return hs;
}

TEST(HardStateFuzzTest, TruncationAtEveryOffsetFailsCleanly) {
  std::string bytes = FuzzState().Encode();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto back = HardState::Decode(bytes.substr(0, cut));
    EXPECT_FALSE(back.ok()) << "prefix length " << cut;
  }
}

TEST(HardStateFuzzTest, BitFlipAtEveryOffsetNeverCrashes) {
  // The raw codec may accept a flip that lands in a value (a different but
  // well-formed state) — that is exactly why checkpoints are framed. The
  // codec's own contract: never crash, never read out of bounds, and any
  // accepted decode must be a deterministic fixed point of the codec.
  std::string bytes = FuzzState().Encode();
  Rng rng(20260809);
  for (size_t off = 0; off < bytes.size(); ++off) {
    std::string damaged = bytes;
    damaged[off] ^= static_cast<char>(1u << rng.Uniform(8));
    if (damaged[off] == bytes[off]) continue;  // flip cancelled (paranoia)
    auto back = HardState::Decode(damaged);
    if (back.ok()) {
      std::string re = back->Encode();
      auto again = HardState::Decode(re);
      ASSERT_TRUE(again.ok()) << "offset " << off;
      EXPECT_EQ(again->Encode(), re) << "offset " << off;
    }
  }
}

TEST(HardStateFuzzTest, FramedCheckpointRejectsEveryBitFlip) {
  // Same sweep through the integrity layer: under a frame there is no
  // "plausible but wrong" decode — every flip is caught by the CRC.
  std::string framed =
      FrameRecord(FrameClass::kCheckpoint, 5, FuzzState().Encode());
  Rng rng(20260810);
  for (size_t off = 0; off < framed.size(); ++off) {
    std::string damaged = framed;
    damaged[off] ^= static_cast<char>(1u << rng.Uniform(8));
    if (damaged[off] == framed[off]) continue;
    EXPECT_FALSE(UnframeRecord(damaged).valid) << "offset " << off;
  }
}

TEST(WireChecksumTest, UpdateMessageSensitivity) {
  UpdateMessage msg;
  msg.source = "DB1";
  msg.send_time = 1.5;
  msg.seq = 3;
  msg.epoch = 2;
  EXPECT_TRUE(msg.delta.Mutable("R", TestSchema("R(a)"))
                  ->AddInsert(Tuple({1}))
                  .ok());
  uint32_t base = ChecksumUpdateMessage(msg);
  // The checksum field itself is excluded — stamping must not invalidate.
  msg.checksum = base;
  EXPECT_EQ(ChecksumUpdateMessage(msg), base);
  EXPECT_TRUE(ChecksumVerifies(msg));
  // A zeroed field is a mismatch like any other: this message's true CRC
  // is nonzero, so it must be rejected, not waved through unverified.
  ASSERT_NE(base, 0u);
  UpdateMessage zeroed = msg;
  zeroed.checksum = 0;
  EXPECT_FALSE(ChecksumVerifies(zeroed));
  UpdateMessage other = msg;
  other.seq = 4;
  EXPECT_NE(ChecksumUpdateMessage(other), base);
  EXPECT_FALSE(ChecksumVerifies(other));  // stale stamp after a change
  other = msg;
  other.source = "DB2";
  EXPECT_NE(ChecksumUpdateMessage(other), base);
  other = msg;
  EXPECT_TRUE(other.delta.Mutable("R", TestSchema("R(a)"))
                  ->AddInsert(Tuple({2}))
                  .ok());
  EXPECT_NE(ChecksumUpdateMessage(other), base);
}

TEST(WireChecksumTest, SnapshotAnswerSensitivity) {
  SnapshotAnswer ans;
  ans.id = 1;
  ans.source = "DB1";
  ans.answered_at = 9.0;
  ans.epoch = 2;
  ans.announce_seq = 5;
  Relation r(TestSchema("R(a)"), Semantics::kBag);
  EXPECT_TRUE(r.Insert(Tuple({1})).ok());
  ans.relations.emplace("R", std::move(r));
  uint32_t base = ChecksumSnapshotAnswer(ans);
  ans.checksum = base;
  EXPECT_EQ(ChecksumSnapshotAnswer(ans), base);  // field excluded
  EXPECT_TRUE(ChecksumVerifies(ans));
  // Zeroed checksum over a nonzero true CRC: rejected.
  ASSERT_NE(base, 0u);
  SnapshotAnswer zeroed = ans;
  zeroed.checksum = 0;
  EXPECT_FALSE(ChecksumVerifies(zeroed));
  SnapshotAnswer other = ans;
  other.announce_seq = 6;
  EXPECT_NE(ChecksumSnapshotAnswer(other), base);
  EXPECT_FALSE(ChecksumVerifies(other));  // stale stamp after a change
  other = ans;
  EXPECT_TRUE(other.relations.at("R").Insert(Tuple({2})).ok());
  EXPECT_NE(ChecksumSnapshotAnswer(other), base);
}

// A wire message with every field off its default and a multi-relation,
// multi-op payload, so the fuzz sweeps cross every codec branch
// (UpdateMessage → MultiDelta → Delta → Tuple → Value, plus Schema).
UpdateMessage FuzzMessage() {
  UpdateMessage msg;
  msg.source = "DB2";
  msg.send_time = 12.375;
  msg.seq = 41;
  msg.epoch = 3;
  Delta* r = msg.delta.Mutable("R", TestSchema("R(a, b)"));
  EXPECT_TRUE(r->AddInsert(Tuple({1, 10})).ok());
  EXPECT_TRUE(r->AddInsert(Tuple({2, 20})).ok());
  EXPECT_TRUE(r->AddDelete(Tuple({3, 30})).ok());
  Delta* s = msg.delta.Mutable("S", TestSchema("S(x)"));
  EXPECT_TRUE(s->AddDelete(Tuple({-7})).ok());
  return msg;
}

TEST(WireCodecFuzzTest, UpdateMessageTruncationAtEveryOffsetFailsCleanly) {
  BinaryWriter w;
  EncodeUpdateMessage(&w, FuzzMessage());
  const std::string bytes = w.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string prefix = bytes.substr(0, cut);
    BinaryReader r(prefix);
    auto back = DecodeUpdateMessage(&r);
    // A strict prefix can never decode AND consume every byte: the codec
    // either errors or stops early, so framed receipt paths detect the cut.
    EXPECT_TRUE(!back.ok() || !r.AtEnd()) << "prefix length " << cut;
  }
}

TEST(WireCodecFuzzTest, UpdateMessageBitFlipNeverCrashesOrPassesChecksum) {
  // The receipt-path contract under one flipped wire bit: the decoder must
  // never crash or read out of bounds, and whatever it does accept must be
  // caught downstream — either trailing bytes are left over (framing-length
  // mismatch) or the decoded message no longer matches the sender-stamped
  // CRC32C. A flip that survives decode AND checksum would be a silent
  // payload corruption, the exact hole ChecksumUpdateMessage closes.
  const UpdateMessage original = FuzzMessage();
  const uint32_t stamped = ChecksumUpdateMessage(original);
  BinaryWriter w;
  EncodeUpdateMessage(&w, original);
  const std::string bytes = w.bytes();
  Rng rng(20260811);
  for (size_t off = 0; off < bytes.size(); ++off) {
    std::string damaged = bytes;
    damaged[off] ^= static_cast<char>(1u << rng.Uniform(8));
    if (damaged[off] == bytes[off]) continue;  // flip cancelled (paranoia)
    BinaryReader r(damaged);
    auto back = DecodeUpdateMessage(&r);
    if (!back.ok()) continue;  // clean typed refusal
    EXPECT_TRUE(!r.AtEnd() || ChecksumUpdateMessage(*back) != stamped)
        << "offset " << off << ": a flipped bit decoded cleanly and still "
        << "matched the sender's checksum";
  }
}

TEST(WireCodecFuzzTest, RelationBitFlipDecodeIsFixedPointOrRefusal) {
  // Same sweep over the snapshot-payload codec: any accepted decode must be
  // a deterministic fixed point (re-encode → decode → re-encode stable), so
  // a damaged snapshot can never oscillate through the checksum layer.
  Relation rel(TestSchema("R(a, b, c)"), Semantics::kBag);
  ASSERT_TRUE(rel.Insert(Tuple({1, 2, 3}), 2).ok());
  ASSERT_TRUE(rel.Insert(Tuple({-4, 0, 9}), 1).ok());
  BinaryWriter w;
  EncodeRelation(&w, rel);
  const std::string bytes = w.bytes();
  Rng rng(20260812);
  for (size_t off = 0; off < bytes.size(); ++off) {
    std::string damaged = bytes;
    damaged[off] ^= static_cast<char>(1u << rng.Uniform(8));
    if (damaged[off] == bytes[off]) continue;
    BinaryReader r(damaged);
    auto back = DecodeRelation(&r);
    if (!back.ok()) continue;
    BinaryWriter re;
    EncodeRelation(&re, *back);
    BinaryReader r2(re.bytes());
    auto again = DecodeRelation(&r2);
    ASSERT_TRUE(again.ok()) << "offset " << off;
    BinaryWriter re2;
    EncodeRelation(&re2, *again);
    EXPECT_EQ(re2.bytes(), re.bytes()) << "offset " << off;
  }
}

// A poll request with every overload-protection field off its default
// (deadline, query class) plus per-poll conditions, and a poll answer
// carrying a retry-after rejection hint — so the fuzz sweeps cross the new
// wire fields introduced for deadline propagation.
PollRequest FuzzPollRequest() {
  PollRequest req;
  req.id = 91;
  req.deadline = 87.625;
  req.qclass = QueryClass::kBatch;
  PollSpec p1;
  p1.relation = "R";
  p1.attrs = {"a", "b"};
  auto cond = ParsePredicate("a < 10 AND b IN (-3, 2.5, 'k', 7)");
  EXPECT_TRUE(cond.ok());
  p1.cond = *cond;
  req.polls.push_back(std::move(p1));
  PollSpec p2;
  p2.relation = "S";
  p2.attrs = {"x"};
  req.polls.push_back(std::move(p2));
  return req;
}

PollAnswer FuzzPollAnswer() {
  PollAnswer ans;
  ans.id = 91;
  ans.source = "DB2";
  ans.answered_at = 41.5;
  ans.epoch = 4;
  ans.retry_after = 52.25;
  Relation r(TestSchema("R(a, b)"), Semantics::kBag);
  EXPECT_TRUE(r.Insert(Tuple({1, 2}), 2).ok());
  ans.results.push_back(std::move(r));
  return ans;
}

TEST(WireCodecFuzzTest, PollRequestTruncationAtEveryOffsetFailsCleanly) {
  BinaryWriter w;
  EncodePollRequest(&w, FuzzPollRequest());
  const std::string bytes = w.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string prefix = bytes.substr(0, cut);
    BinaryReader r(prefix);
    auto back = DecodePollRequest(&r);
    EXPECT_TRUE(!back.ok() || !r.AtEnd()) << "prefix length " << cut;
  }
}

TEST(WireCodecFuzzTest, PollRequestBitFlipNeverCrashesDecodeIsFixedPoint) {
  // One flipped bit may hit the deadline (a different but well-formed time),
  // the class byte (out-of-range values are a typed refusal), a count, or
  // the predicate text (re-parsed on decode; garbage is a typed parse
  // error). The contract: never crash, and any accepted decode must be a
  // deterministic fixed point of the codec.
  BinaryWriter w;
  EncodePollRequest(&w, FuzzPollRequest());
  const std::string bytes = w.bytes();
  Rng rng(20260813);
  for (size_t off = 0; off < bytes.size(); ++off) {
    std::string damaged = bytes;
    damaged[off] ^= static_cast<char>(1u << rng.Uniform(8));
    if (damaged[off] == bytes[off]) continue;  // flip cancelled (paranoia)
    BinaryReader r(damaged);
    auto back = DecodePollRequest(&r);
    if (!back.ok()) continue;  // clean typed refusal
    BinaryWriter re;
    EncodePollRequest(&re, *back);
    BinaryReader r2(re.bytes());
    auto again = DecodePollRequest(&r2);
    ASSERT_TRUE(again.ok()) << "offset " << off;
    BinaryWriter re2;
    EncodePollRequest(&re2, *again);
    EXPECT_EQ(re2.bytes(), re.bytes()) << "offset " << off;
    // An accepted decode can never smuggle in an out-of-range class.
    EXPECT_LT(static_cast<uint8_t>(back->qclass), kNumQueryClasses)
        << "offset " << off;
  }
}

TEST(WireCodecFuzzTest, PollAnswerTruncationAtEveryOffsetFailsCleanly) {
  BinaryWriter w;
  EncodePollAnswer(&w, FuzzPollAnswer());
  const std::string bytes = w.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string prefix = bytes.substr(0, cut);
    BinaryReader r(prefix);
    auto back = DecodePollAnswer(&r);
    EXPECT_TRUE(!back.ok() || !r.AtEnd()) << "prefix length " << cut;
  }
}

TEST(WireCodecFuzzTest, PollAnswerBitFlipNeverCrashesDecodeIsFixedPoint) {
  // The retry_after field travels as an IEEE-754 bit pattern: every flip is
  // a different but decodable time, so the fixed-point property is what
  // keeps a damaged rejection hint from oscillating through replays.
  BinaryWriter w;
  EncodePollAnswer(&w, FuzzPollAnswer());
  const std::string bytes = w.bytes();
  Rng rng(20260814);
  for (size_t off = 0; off < bytes.size(); ++off) {
    std::string damaged = bytes;
    damaged[off] ^= static_cast<char>(1u << rng.Uniform(8));
    if (damaged[off] == bytes[off]) continue;
    BinaryReader r(damaged);
    auto back = DecodePollAnswer(&r);
    if (!back.ok()) continue;
    BinaryWriter re;
    EncodePollAnswer(&re, *back);
    BinaryReader r2(re.bytes());
    auto again = DecodePollAnswer(&r2);
    ASSERT_TRUE(again.ok()) << "offset " << off;
    BinaryWriter re2;
    EncodePollAnswer(&re2, *again);
    EXPECT_EQ(re2.bytes(), re.bytes()) << "offset " << off;
  }
}

/// Deterministic corruption for triage tests: flips one byte of chosen LSNs
/// at READ time — the moment recovery looks at the "disk". Flipping at
/// offset 20 (the first payload byte, past magic and crc) guarantees the
/// frame class stays identifiable, which is the scenario each test targets;
/// FaultyLogDevice's seeded flips are exercised by the property sweep.
class ByteFlipDevice : public LogDevice {
 public:
  explicit ByteFlipDevice(LogDevice* inner) : inner_(inner) {}
  void FlipByteAt(uint64_t lsn, size_t offset) { flips_[lsn] = offset; }
  /// Flips a byte of the frame's PAYLOAD and re-frames it, so the record
  /// still verifies and only the payload decoder can object.
  void FlipPayloadByteAt(uint64_t lsn, size_t offset) {
    payload_flips_[lsn] = offset;
  }
  Result<uint64_t> Append(std::string bytes) override {
    return inner_->Append(std::move(bytes));
  }
  Status TruncatePrefix(uint64_t new_begin) override {
    return inner_->TruncatePrefix(new_begin);
  }
  Result<std::vector<LogRecord>> ReadAll() const override {
    SQ_ASSIGN_OR_RETURN(std::vector<LogRecord> records, inner_->ReadAll());
    for (LogRecord& rec : records) {
      auto it = flips_.find(rec.lsn);
      if (it != flips_.end() && it->second < rec.bytes.size()) {
        rec.bytes[it->second] ^= 0x40;
      }
      auto pit = payload_flips_.find(rec.lsn);
      if (pit != payload_flips_.end()) {
        FrameInfo info = UnframeRecord(rec.bytes);
        if (info.valid && pit->second < info.payload.size()) {
          info.payload[pit->second] ^= 0x40;
          rec.bytes =
              FrameRecord(info.frame_class, info.log_epoch, info.payload);
        }
      }
    }
    return records;
  }
  uint64_t NextLsn() const override { return inner_->NextLsn(); }
  uint64_t SizeBytes() const override { return inner_->SizeBytes(); }

 private:
  LogDevice* inner_;
  std::map<uint64_t, size_t> flips_;
  std::map<uint64_t, size_t> payload_flips_;
};

constexpr size_t kPayloadOffset = 20;  // [magic 4][crc 4][len 4][epoch 8]
// Low byte of the HardState version inside a checkpoint payload:
// [tag 1][blob length 4][version 4 LE]...
constexpr size_t kCheckpointVersionOffset = 5;

UpdateMessage Msg(const std::string& source, uint64_t seq, Time send_time) {
  UpdateMessage msg;
  msg.source = source;
  msg.seq = seq;
  msg.send_time = send_time;
  EXPECT_TRUE(msg.delta.Mutable("R", TestSchema("R(a, b)"))
                  ->AddInsert(Tuple({static_cast<int64_t>(seq), 10}))
                  .ok());
  return msg;
}

DurabilityOptions Opts(LogDevice* dev) {
  DurabilityOptions o;
  o.device = dev;
  o.wal = true;
  o.checkpoint_every = 16;
  return o;
}

TEST(FaultyLogDeviceTest, TornAppendSurfacesAtReadAll) {
  MemLogDevice inner;
  StorageFaultPlan plan;
  plan.torn_append_prob = 1.0;
  plan.max_faults = 1;
  plan.skip_appends = 1;
  FaultyLogDevice dev(&inner, plan, /*seed=*/7);
  ASSERT_TRUE(dev.Append("intact record zero").ok());
  ASSERT_TRUE(dev.Append("record one gets torn").ok());
  ASSERT_TRUE(dev.Append("record two intact again").ok());  // budget spent
  EXPECT_EQ(dev.counters().torn, 1u);
  auto records = dev.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].bytes, "intact record zero");
  EXPECT_LT((*records)[1].bytes.size(),
            std::string("record one gets torn").size());
  EXPECT_TRUE(
      std::string("record one gets torn").rfind((*records)[1].bytes, 0) == 0);
  EXPECT_EQ((*records)[2].bytes, "record two intact again");
}

TEST(FaultyLogDeviceTest, EnospcFailsHonestly) {
  MemLogDevice inner;
  StorageFaultPlan plan;
  plan.enospc_prob = 1.0;
  plan.enospc_len = 2;
  plan.max_faults = 1;
  plan.skip_appends = 1;
  FaultyLogDevice dev(&inner, plan, /*seed=*/3);
  ASSERT_TRUE(dev.Append("a").ok());
  EXPECT_EQ(dev.Append("b").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(dev.Append("c").status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(dev.Append("d").ok());  // window drained, budget spent
  EXPECT_EQ(dev.counters().enospc_failures, 2u);
  auto records = dev.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);  // failed appends consumed no LSN
  EXPECT_EQ((*records)[1].bytes, "d");
}

TEST(FaultyLogDeviceTest, LostTruncationResurrectsPreTruncationFile) {
  // The lost-rename window: TruncatePrefix is acked but the rewrite-rename
  // never got its directory fsync. A read-after-crash sees the OLD file —
  // records the truncation "dropped" are back, and every append made after
  // the lie sits on the orphaned inode, invisible. The next clean truncation
  // renames (and dir-fsyncs) again, making the current contents durable.
  MemLogDevice inner;
  StorageFaultPlan plan;
  plan.lost_truncation_prob = 1.0;
  plan.max_faults = 1;
  FaultyLogDevice dev(&inner, plan, /*seed=*/5);
  ASSERT_TRUE(dev.Append("a").ok());
  ASSERT_TRUE(dev.Append("b").ok());
  ASSERT_TRUE(dev.Append("c").ok());
  ASSERT_TRUE(dev.TruncatePrefix(2).ok());  // acked; rename rolled back
  EXPECT_EQ(dev.counters().lost_truncations, 1u);
  auto records = dev.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);  // "dropped" records resurrected
  EXPECT_EQ((*records)[0].bytes, "a");
  EXPECT_EQ((*records)[2].bytes, "c");
  // An append inside the window is acked but lands on the orphaned inode.
  ASSERT_TRUE(dev.Append("d").ok());
  records = dev.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);  // "d" is lost to any read-after-crash
  // A later clean truncation closes the window: the rename + dir fsync make
  // the LATEST contents (including "d") durable.
  ASSERT_TRUE(dev.TruncatePrefix(3).ok());  // budget spent: honest this time
  records = dev.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].lsn, 3u);
  EXPECT_EQ((*records)[0].bytes, "d");
}

TEST(RecoveryTriageTest, LostRenameWindowLosesAckedAppendsUntilHealed) {
  // End-to-end shape of the FileLogDevice bug this models: the checkpoint's
  // log truncation is acked but its rename is not directory-durable, so a
  // crash inside the window recovers the PRE-truncation log and every
  // enqueue logged after the lying ack is gone — exactly the silent
  // acked-then-lost case resync_on_recovery exists for. A later checkpoint
  // whose truncation IS durable heals the log.
  MemLogDevice inner;
  StorageFaultPlan plan;
  plan.lost_truncation_prob = 1.0;
  plan.max_faults = 1;
  FaultyLogDevice dev(&inner, plan, /*seed=*/13);
  DurabilityManager mgr(Opts(&dev));
  // The first checkpoint's truncation draws the fault and arms the window.
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  EXPECT_EQ(dev.counters().lost_truncations, 1u);
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0)).ok());  // acked, orphaned
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 2, 2.0)).ok());  // acked, orphaned
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // Recovery read the pre-truncation file: both acked enqueues are lost,
  // and (as with a dropped-fsync tail) there is nothing left to detect.
  EXPECT_EQ(rec->state.queue.size(), 0u);
  // Heal: the next checkpoint truncates honestly (fault budget spent), so
  // the rename + dir fsync finally land and post-heal records are durable.
  HardState hs;
  hs.next_txn_id = 5;
  ASSERT_TRUE(mgr.WriteCheckpoint(hs).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 3, 3.0)).ok());
  auto rec2 = mgr.Recover();
  ASSERT_TRUE(rec2.ok()) << rec2.status().ToString();
  EXPECT_EQ(rec2->state.next_txn_id, 5u);
  ASSERT_EQ(rec2->state.queue.size(), 1u);
  EXPECT_EQ(rec2->state.queue.front().seq, 3u);
}

TEST(RecoveryTriageTest, TornTailIsRepairedAndCounted) {
  MemLogDevice inner;
  StorageFaultPlan plan;
  plan.torn_append_prob = 1.0;
  plan.max_faults = 1;
  plan.skip_appends = 2;  // checkpoint (LSN 0) + first enqueue stay intact
  FaultyLogDevice dev(&inner, plan, /*seed=*/11);
  DurabilityManager mgr(Opts(&dev));
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0)).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 2, 2.0)).ok());  // torn on disk
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->tail_records_dropped, 1u);
  EXPECT_TRUE(rec->anomalies());
  ASSERT_EQ(rec->state.queue.size(), 1u);  // the intact enqueue survived
  EXPECT_EQ(rec->state.queue.front().seq, 1u);
}

TEST(RecoveryTriageTest, InteriorCorruptionIsTypedRefusal) {
  MemLogDevice inner;
  ByteFlipDevice dev(&inner);
  DurabilityManager mgr(Opts(&dev));
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0)).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 2, 2.0)).ok());  // damaged below
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 3, 3.0)).ok());  // valid AFTER it
  dev.FlipByteAt(2, kPayloadOffset);
  auto rec = mgr.Recover();
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kCorrupted)
      << rec.status().ToString();
  // The diagnostic names the damaged LSN so an operator can find the spot.
  EXPECT_NE(rec.status().ToString().find("LSN"), std::string::npos)
      << rec.status().ToString();
}

TEST(RecoveryTriageTest, DamagedNewestCheckpointFallsBackAGeneration) {
  MemLogDevice inner;
  ByteFlipDevice dev(&inner);
  DurabilityManager mgr(Opts(&dev));
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());  // gen 0, intact
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0)).ok());
  HardState hs;
  hs.next_txn_id = 5;
  ASSERT_TRUE(mgr.WriteCheckpoint(hs).ok());  // gen 1 at LSN 2, damaged
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 2, 2.0)).ok());
  dev.FlipByteAt(2, kPayloadOffset);
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->checkpoint_fallbacks, 1u);
  EXPECT_TRUE(rec->anomalies());
  // Recovery replayed the LONGER suffix behind generation 0: both enqueues.
  ASSERT_EQ(rec->state.queue.size(), 2u);
  EXPECT_EQ(rec->state.sources.at("DB1").last_update_seq, 2u);
}

TEST(RecoveryTriageTest, BothGenerationsDamagedIsTypedRefusal) {
  MemLogDevice inner;
  ByteFlipDevice dev(&inner);
  DurabilityManager mgr(Opts(&dev));
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());    // gen 0 at LSN 0
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0)).ok());
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());    // gen 1 at LSN 2
  dev.FlipByteAt(0, kPayloadOffset);
  dev.FlipByteAt(2, kPayloadOffset);
  auto rec = mgr.Recover();
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kCorrupted)
      << rec.status().ToString();
}

TEST(RecoveryTriageTest, FsyncDropOfTailRecordIsTailRepair) {
  MemLogDevice inner;
  StorageFaultPlan plan;
  plan.fsync_drop_prob = 1.0;
  plan.max_faults = 1;
  plan.skip_appends = 2;
  FaultyLogDevice dev(&inner, plan, /*seed=*/17);
  DurabilityManager mgr(Opts(&dev));
  ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0)).ok());
  ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 2, 2.0)).ok());  // acked, then lost
  auto rec = mgr.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // The record is GONE (not damaged in place), so the detector sees an LSN
  // gap... at the tail, where it is indistinguishable from a quiet log end;
  // the anomaly machinery cannot fire. This is exactly why
  // resync_on_recovery exists — assert the silent case stays silent here.
  EXPECT_EQ(rec->state.queue.size(), 1u);
}

TEST(RecoveryTriageTest, VerifiedButUndecodableCheckpointFallsBackAGeneration) {
  {
    // The newer generation's frame verifies, but its HardState version is
    // unknown: recovery falls back to the older generation and replays the
    // longer suffix behind it.
    MemLogDevice inner;
    ByteFlipDevice dev(&inner);
    DurabilityManager mgr(Opts(&dev));
    ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());  // gen 0, intact
    ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0)).ok());
    HardState hs;
    hs.next_txn_id = 5;
    ASSERT_TRUE(mgr.WriteCheckpoint(hs).ok());  // gen 1 at LSN 2
    ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 2, 2.0)).ok());
    dev.FlipPayloadByteAt(2, kCheckpointVersionOffset);
    auto stored = dev.ReadAll();
    ASSERT_TRUE(stored.ok());
    ASSERT_EQ(stored->at(2).lsn, 2u);
    EXPECT_TRUE(UnframeRecord(stored->at(2).bytes).valid);
    auto rec = mgr.Recover();
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->checkpoint_fallbacks, 1u);
    EXPECT_TRUE(rec->anomalies());
    EXPECT_EQ(rec->checkpoint_lsn, 0u);
    EXPECT_EQ(rec->state.next_txn_id, 1u);  // generation 0's, not 5
    ASSERT_EQ(rec->state.queue.size(), 2u);
  }
  {
    // The only generation is undecodable: nothing to fall back to.
    MemLogDevice inner;
    ByteFlipDevice dev(&inner);
    DurabilityManager mgr(Opts(&dev));
    ASSERT_TRUE(mgr.WriteCheckpoint(HardState{}).ok());
    ASSERT_TRUE(mgr.LogEnqueue(Msg("DB1", 1, 1.0)).ok());
    dev.FlipPayloadByteAt(0, kCheckpointVersionOffset);
    auto rec = mgr.Recover();
    ASSERT_FALSE(rec.ok());
    EXPECT_EQ(rec.status().code(), StatusCode::kCorrupted)
        << rec.status().ToString();
  }
}

}  // namespace
}  // namespace squirrel
