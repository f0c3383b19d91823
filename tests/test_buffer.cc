#include "common/buffer.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "common/sim_clock.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/network.h"

namespace vfps {
namespace {

TEST(BufferTest, RoundTripScalars) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteU32(123456u);
  w.WriteU64(0xDEADBEEFCAFEBABEULL);
  w.WriteI64(-42);
  w.WriteDouble(3.25);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadU8().ValueOrDie(), 7);
  EXPECT_EQ(r.ReadU32().ValueOrDie(), 123456u);
  EXPECT_EQ(r.ReadU64().ValueOrDie(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(r.ReadI64().ValueOrDie(), -42);
  EXPECT_DOUBLE_EQ(r.ReadDouble().ValueOrDie(), 3.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, RoundTripStringsAndVectors) {
  BinaryWriter w;
  w.WriteString("hello vfps");
  w.WriteBytes({1, 2, 3});
  w.WriteDoubleVec({1.5, -2.5, 0.0});
  w.WriteU64Vec({10, 20});
  w.WriteU32Vec({});
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadString().ValueOrDie(), "hello vfps");
  EXPECT_EQ(r.ReadBytes().ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.ReadDoubleVec().ValueOrDie(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.ReadU64Vec().ValueOrDie(), (std::vector<uint64_t>{10, 20}));
  EXPECT_TRUE(r.ReadU32Vec().ValueOrDie().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, TruncatedReadFails) {
  BinaryWriter w;
  w.WriteU32(5);
  BinaryReader r(w.bytes());
  EXPECT_TRUE(r.ReadU64().status().IsOutOfRange());
}

TEST(BufferTest, TruncatedVectorFails) {
  BinaryWriter w;
  w.WriteU32(100);  // claims 100 doubles but provides none
  BinaryReader r(w.bytes());
  EXPECT_TRUE(r.ReadDoubleVec().status().IsOutOfRange());
}

TEST(BufferTest, EmptyStringRoundTrip) {
  BinaryWriter w;
  w.WriteString("");
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadString().ValueOrDie(), "");
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 check value (zlib, IEEE 802.3).
  const std::vector<uint8_t> check = {'1', '2', '3', '4', '5',
                                      '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SensitiveToEveryBit) {
  std::vector<uint8_t> payload(64, 0xA5);
  const uint32_t reference = Crc32(payload);
  for (size_t bit : {size_t{0}, size_t{7}, size_t{200}, payload.size() * 8 - 1}) {
    std::vector<uint8_t> flipped = payload;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(flipped), reference) << "bit " << bit;
  }
}

TEST(BufferTest, CrcFramedRoundTrip) {
  const std::vector<uint8_t> payload = {9, 8, 7, 6, 5};
  BinaryWriter w;
  w.WriteCrcFramed(payload);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadCrcFramed().ValueOrDie(), payload);
  EXPECT_TRUE(r.AtEnd());

  BinaryWriter empty;
  empty.WriteCrcFramed({});
  BinaryReader re(empty.bytes());
  EXPECT_TRUE(re.ReadCrcFramed().ValueOrDie().empty());
}

TEST(BufferTest, CrcFramedDetectsCorruption) {
  BinaryWriter w;
  w.WriteCrcFramed({1, 2, 3, 4});
  // Flip one payload bit (the payload starts after crc u32 + len u32).
  std::vector<uint8_t> wire = w.bytes();
  wire[8] ^= 0x10;
  BinaryReader r(wire);
  EXPECT_TRUE(r.ReadCrcFramed().status().IsCorrupt());
  // A corrupted length field must fail bounds-checked, not crash.
  std::vector<uint8_t> truncated = w.bytes();
  truncated[4] = 0xFF;  // length now claims far more bytes than exist
  BinaryReader rt(truncated);
  EXPECT_TRUE(rt.ReadCrcFramed().status().IsOutOfRange());
}

// Mutation harness for the CRC frame parser, which reads untrusted bytes:
// every single-bit flip and every truncation of a valid frame must come back
// as a non-OK status, never as a payload.
TEST(CrcFramedMutationTest, EveryBitFlipAndTruncationIsRejected) {
  Rng rng(19);
  for (size_t len : {0, 1, 15, 16, 63, 64, 65, 200, 4099}) {
    std::vector<uint8_t> payload(len);
    for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
    BinaryWriter w;
    w.WriteCrcFramed(payload);
    std::vector<uint8_t> frame = w.TakeBytes();
    ASSERT_EQ(BinaryReader(frame).ReadCrcFramed().ValueOrDie(), payload);

    for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
      const uint8_t mask = static_cast<uint8_t>(1u << (bit % 8));
      frame[bit / 8] ^= mask;
      BinaryReader r(frame);
      const auto got = r.ReadCrcFramed();
      ASSERT_FALSE(got.ok()) << "length " << len << " bit " << bit;
      // A flipped CRC or payload bit is Corrupt; a flipped length bit reads
      // past the end (OutOfRange) or hashes the wrong span (Corrupt).
      ASSERT_TRUE(got.status().IsCorrupt() || got.status().IsOutOfRange())
          << got.status().ToString();
      frame[bit / 8] ^= mask;
    }
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      BinaryReader r(frame.data(), cut);
      ASSERT_TRUE(r.ReadCrcFramed().status().IsOutOfRange())
          << "length " << len << " truncated at " << cut;
    }
  }
}

// One packed CKKS ciphertext's worth of bytes through the framed ARQ under
// heavy corruption: every delivered payload is byte-exact.
TEST(ReliableChannelTest, CorruptHeavyLinkDeliversCiphertextExactly) {
  net::FaultSpec spec;
  spec.corrupt_prob = 0.5;
  spec.drop_prob = 0.1;
  spec.duplicate_prob = 0.1;
  net::RetryPolicy policy;
  policy.max_attempts = 24;
  net::SimNetwork network;
  SimClock clock;
  network.EnableFaults(spec, 3, &clock);
  net::ReliableChannel chan(&network, &clock, policy);
  Rng rng(23);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint8_t> payload(131072);
    for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
    ASSERT_TRUE(chan.Send(0, 1, payload).ok());
    auto got = chan.Recv(0, 1);
    ASSERT_TRUE(got.ok()) << "round " << round << ": "
                          << got.status().ToString();
    ASSERT_EQ(*got, payload) << "round " << round;
  }
  EXPECT_GT(network.fault_stats().corrupted, 0u);
}

TEST(BufferTest, SizeTracksWrites) {
  BinaryWriter w;
  EXPECT_EQ(w.size(), 0u);
  w.WriteU64(1);
  EXPECT_EQ(w.size(), 8u);
  w.WriteDoubleVec({1.0, 2.0});
  EXPECT_EQ(w.size(), 8u + 4u + 16u);
}

}  // namespace
}  // namespace vfps
