// Cell framing tests: every cell is exactly cell_size bytes regardless of
// payload, round-trips under the right key, and any tamper — header, body,
// or truncation — is rejected through the AEAD tag (or the header
// pre-checks the tag also covers).
#include "circuit/cell.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"

namespace odtn::circuit {
namespace {

struct Fixture {
  CellCodec cells{kDefaultCellSize};
  crypto::Drbg drbg{std::uint64_t{7}};
  util::Bytes key = util::Bytes(32, 0x21);
};

util::Bytes payload_of(std::size_t n) { return util::Bytes(n, 0x5a); }

TEST(Cell, RoundTripPreservesEverything) {
  Fixture f;
  auto payload = payload_of(100);
  auto cell = f.cells.seal(0xdeadbeef, CellCommand::kRelay, payload, f.key,
                           f.drbg);
  auto out = f.cells.open(cell, f.key);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->circuit_id, 0xdeadbeefu);
  EXPECT_EQ(out->command, CellCommand::kRelay);
  EXPECT_EQ(out->payload, payload);
}

TEST(Cell, ConstantSizeForEveryPayloadLength) {
  Fixture f;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{100},
                        f.cells.max_payload()}) {
    auto cell =
        f.cells.seal(1, CellCommand::kRelay, payload_of(n), f.key, f.drbg);
    EXPECT_EQ(cell.size(), f.cells.cell_size()) << "payload " << n;
    auto out = f.cells.open(cell, f.key);
    ASSERT_TRUE(out.has_value()) << "payload " << n;
    EXPECT_EQ(out->payload.size(), n);
  }
}

TEST(Cell, CellsForCountsPartialCells) {
  Fixture f;
  const std::size_t cap = f.cells.max_payload();
  EXPECT_EQ(f.cells.cells_for(0), 1u);  // empty packets still cost a cell
  EXPECT_EQ(f.cells.cells_for(1), 1u);
  EXPECT_EQ(f.cells.cells_for(cap), 1u);
  EXPECT_EQ(f.cells.cells_for(cap + 1), 2u);
  EXPECT_EQ(f.cells.cells_for(3 * cap), 3u);
}

TEST(Cell, OversizedPayloadThrows) {
  Fixture f;
  EXPECT_THROW(f.cells.seal(1, CellCommand::kRelay,
                            payload_of(f.cells.max_payload() + 1), f.key,
                            f.drbg),
               std::invalid_argument);
}

TEST(Cell, CodecRejectsOutOfRangeCellSize) {
  EXPECT_THROW(CellCodec(kMinCellSize - 1), std::invalid_argument);
  EXPECT_THROW(CellCodec(kMaxCellSize + 1), std::invalid_argument);
  EXPECT_NO_THROW(CellCodec{kMinCellSize});
  EXPECT_NO_THROW(CellCodec{kMaxCellSize});
}

TEST(Cell, HeaderTamperFailsAuthentication) {
  Fixture f;
  auto cell =
      f.cells.seal(42, CellCommand::kExtend, payload_of(64), f.key, f.drbg);
  // The header is plaintext but bound into the AEAD as associated data:
  // flipping any header byte (here a circuit-id byte) must fail the open.
  for (std::size_t i = 1; i < kCellHeaderSize - 1; ++i) {
    auto tampered = cell;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(f.cells.open(tampered, f.key).has_value()) << "byte " << i;
  }
}

TEST(Cell, BodyAndTagTamperFailAuthentication) {
  Fixture f;
  auto cell =
      f.cells.seal(42, CellCommand::kRelay, payload_of(64), f.key, f.drbg);
  for (std::size_t i : {kCellHeaderSize + crypto::kAeadNonceSize,
                        cell.size() / 2, cell.size() - 1}) {
    auto tampered = cell;
    tampered[i] ^= 0x80;
    EXPECT_FALSE(f.cells.open(tampered, f.key).has_value()) << "byte " << i;
  }
}

TEST(Cell, TruncationRejected) {
  Fixture f;
  auto cell =
      f.cells.seal(42, CellCommand::kRelay, payload_of(64), f.key, f.drbg);
  for (std::size_t n : {cell.size() - 1, cell.size() / 2, std::size_t{0}}) {
    auto truncated = cell;
    truncated.resize(n);
    EXPECT_FALSE(f.cells.open(truncated, f.key).has_value()) << "size " << n;
  }
}

TEST(Cell, WrongVersionAndUnknownCommandRejected) {
  Fixture f;
  auto cell =
      f.cells.seal(42, CellCommand::kRelay, payload_of(64), f.key, f.drbg);
  auto bad_version = cell;
  bad_version[0] = kCellVersion + 1;
  EXPECT_FALSE(f.cells.open(bad_version, f.key).has_value());
  auto bad_command = cell;
  bad_command[5] = 0;  // below kCreate
  EXPECT_FALSE(f.cells.open(bad_command, f.key).has_value());
  bad_command[5] = 99;  // above kPadding
  EXPECT_FALSE(f.cells.open(bad_command, f.key).has_value());
}

TEST(Cell, WrongKeyRejected) {
  Fixture f;
  auto cell =
      f.cells.seal(42, CellCommand::kRelay, payload_of(64), f.key, f.drbg);
  util::Bytes other(32, 0x22);
  EXPECT_FALSE(f.cells.open(cell, other).has_value());
}

TEST(Cell, OpenIntoMatchesOpen) {
  Fixture f;
  auto payload = payload_of(200);
  auto cell =
      f.cells.seal(7, CellCommand::kCreate, payload, f.key, f.drbg);
  auto expected = f.cells.open(cell, f.key);
  ASSERT_TRUE(expected.has_value());

  Cell out;
  CellScratch scratch;
  ASSERT_TRUE(f.cells.open_into(cell, f.key, out, scratch));
  EXPECT_EQ(out.circuit_id, expected->circuit_id);
  EXPECT_EQ(out.command, expected->command);
  EXPECT_EQ(out.payload, expected->payload);

  // Reusing the same scratch/out for a second cell must not leak state.
  auto cell2 =
      f.cells.seal(8, CellCommand::kDestroy, payload_of(3), f.key, f.drbg);
  ASSERT_TRUE(f.cells.open_into(cell2, f.key, out, scratch));
  EXPECT_EQ(out.circuit_id, 8u);
  EXPECT_EQ(out.command, CellCommand::kDestroy);
  EXPECT_EQ(out.payload.size(), 3u);
}

TEST(Cell, MinimumCellStillRoundTrips) {
  CellCodec tiny(kMinCellSize);
  crypto::Drbg drbg{std::uint64_t{3}};
  util::Bytes key(32, 1);
  EXPECT_EQ(tiny.max_payload(), 1u);
  auto cell = tiny.seal(1, CellCommand::kPadding, payload_of(1), key, drbg);
  EXPECT_EQ(cell.size(), kMinCellSize);
  auto out = tiny.open(cell, key);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, payload_of(1));
}

}  // namespace
}  // namespace odtn::circuit
