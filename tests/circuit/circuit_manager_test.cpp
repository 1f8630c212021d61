// CircuitManager tests: the one audited build/peel/forward implementation
// both onion protocols are policies over. Covers the wire-mode end-to-end
// lifecycle, cell-stream tamper detection, peel mismatches, the kNone
// zero-knob contract (no RNG draws, no crypto), and the cell-command rule.
#include "circuit/circuit_manager.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "groups/group_directory.hpp"
#include "groups/key_manager.hpp"
#include "onion/onion.hpp"
#include "util/rng.hpp"

namespace odtn::circuit {
namespace {

using Peel = CircuitManager::Peel;

struct Fixture {
  explicit Fixture(bool wire, bool crypto = true)
      : dir(100, 5), keys(dir, 1), rng(13) {
    cctx.keys = &keys;
    cctx.codec = &codec;
    cctx.crypto = crypto;
    cctx.wire = wire;
  }

  CircuitManager make() { return CircuitManager(cctx, rng); }

  groups::GroupDirectory dir;
  groups::KeyManager keys;
  onion::OnionCodec codec;
  util::Rng rng;
  CircuitContext cctx;
  util::Bytes payload = util::Bytes(200, 0x11);
  std::vector<GroupId> route = {1, 2, 3};
};

// Walks one circuit source(0) -> 5 -> 9 -> 20 -> dest(99) through the
// manager, the same shape the single-copy policy drives.
bool walk(CircuitManager& cm, Fixture& f, CircuitId id) {
  return cm.forward(id, 0, 5, Peel::relay(1, 2)) &&
         cm.forward(id, 5, 9, Peel::relay(2, 3)) &&
         cm.forward(id, 9, 20, Peel::last_relay(3, 99)) &&
         cm.forward(id, 20, 99, Peel::inbox(f.payload));
}

TEST(CircuitManager, WireModeEndToEndVerifies) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  EXPECT_TRUE(walk(cm, f, id));
  EXPECT_TRUE(cm.link_ok());
  EXPECT_TRUE(cm.circuit_ok(id));
  EXPECT_TRUE(cm.verified(id));
}

TEST(CircuitManager, BlobModeEndToEndVerifies) {
  Fixture f(/*wire=*/false);
  auto cm = f.make();
  EXPECT_FALSE(cm.wire_enabled());
  CircuitId id = cm.open(f.payload, 99, f.route);
  EXPECT_TRUE(walk(cm, f, id));
  EXPECT_TRUE(cm.verified(id));
  // No cells cross contacts outside wire mode.
  EXPECT_EQ(cm.wire_cells(), 0u);
  EXPECT_EQ(cm.wire_bytes(), 0u);
}

TEST(CircuitManager, WireAccountingMatchesCrossings) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  ASSERT_TRUE(walk(cm, f, id));
  // 3 relay peels + 1 inbox open = 4 contact crossings; the onion packet is
  // constant-size, so each costs exactly cells_per_packet() cells.
  const std::uint64_t expected = 4 * cm.cells_per_packet();
  EXPECT_EQ(cm.wire_cells(), expected);
  EXPECT_EQ(cm.wire_bytes(), expected * cm.cell_codec().cell_size());
}

TEST(CircuitManager, CellTapSeesEveryCellAtConstantSize) {
  Fixture f(/*wire=*/true);
  std::vector<CellEvent> events;
  f.cctx.tap = [&events](const CellEvent& e) { events.push_back(e); };
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  ASSERT_TRUE(walk(cm, f, id));

  ASSERT_EQ(events.size(), cm.wire_cells());
  for (const auto& e : events) {
    // The observable unit is the constant cell size — never packet shape.
    EXPECT_EQ(e.bytes, cm.cell_codec().cell_size());
    EXPECT_EQ(e.circuit_id, id);
  }
  // First crossing opens the circuit; later hops extend; delivery relays.
  EXPECT_EQ(events.front().command, CellCommand::kCreate);
  EXPECT_EQ(events.back().command, CellCommand::kRelay);
  EXPECT_EQ(events.front().sender, 0u);
  EXPECT_EQ(events.front().receiver, 5u);
  EXPECT_EQ(events.back().sender, 20u);
  EXPECT_EQ(events.back().receiver, 99u);
}

TEST(CircuitManager, TamperedCellBreaksTheLink) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  const util::Bytes& key = f.keys.group_key(1);
  auto cell = cm.cell_codec().seal(0, CellCommand::kRelay, f.payload, key,
                                   cm.drbg());
  ASSERT_TRUE(cm.on_cell(key, cell));

  auto tampered = cm.cell_codec().seal(0, CellCommand::kRelay, f.payload,
                                       key, cm.drbg());
  tampered[tampered.size() / 2] ^= 0x01;
  EXPECT_FALSE(cm.on_cell(key, tampered));

  auto truncated = cm.cell_codec().seal(0, CellCommand::kRelay, f.payload,
                                        key, cm.drbg());
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(cm.on_cell(key, truncated));
}

TEST(CircuitManager, ReassemblyReproducesThePayloadStream) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  const util::Bytes& key = f.keys.group_key(2);
  const auto& cells = cm.cell_codec();
  // Fragment a multi-cell packet by hand and feed the cells in order.
  util::Bytes packet(2 * cells.max_payload() + 17, 0x3c);
  const std::size_t n = cells.cells_for(packet.size());
  EXPECT_EQ(n, 3u);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t off = i * cells.max_payload();
    const std::size_t len =
        std::min(cells.max_payload(), packet.size() - off);
    auto cell = cells.seal(
        1, CellCommand::kRelay,
        std::span<const std::uint8_t>(packet.data() + off, len), key,
        cm.drbg());
    ASSERT_TRUE(cm.on_cell(key, cell)) << "cell " << i;
  }
  EXPECT_EQ(cm.reassembled(), packet);
}

TEST(CircuitManager, ExpectMismatchMarksCircuitNotVerified) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  // Right key, wrong expectation: the peel opens but names group 2, not 4.
  EXPECT_FALSE(cm.forward(id, 0, 5, Peel::relay(1, 4)));
  EXPECT_FALSE(cm.circuit_ok(id));
  EXPECT_FALSE(cm.verified(id));
  EXPECT_TRUE(cm.link_ok());  // the link itself was fine
}

TEST(CircuitManager, WrongKeyPeelFailsAndLeavesPacketIntact) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  const util::Bytes before = cm.wire(id);
  EXPECT_FALSE(cm.forward(id, 0, 5, Peel::relay(4, 2)));
  EXPECT_EQ(cm.wire(id), before);  // policy may keep walking with the packet
  EXPECT_FALSE(cm.verified(id));
}

TEST(CircuitManager, CloneSharesThePacketAndStartsFresh) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  CircuitId copy = cm.clone(id);
  EXPECT_NE(copy, id);
  EXPECT_EQ(cm.wire(copy), cm.wire(id));
  // Both copies can be walked independently.
  EXPECT_TRUE(walk(cm, f, id));
  EXPECT_TRUE(walk(cm, f, copy));
  EXPECT_TRUE(cm.verified(id));
  EXPECT_TRUE(cm.verified(copy));
}

TEST(CircuitManager, CellCommandsFollowTheFirstCrossing) {
  Fixture f(/*wire=*/true);
  std::vector<CellEvent> events;
  f.cctx.tap = [&events](const CellEvent& e) { events.push_back(e); };
  auto cm = f.make();
  const std::size_t per_packet = cm.cells_per_packet();
  // The command of crossing `i` (0-based) in the tap's stream.
  auto command = [&](std::size_t i) {
    return events.at(i * per_packet).command;
  };

  // A relay peel on a circuit's first crossing creates it; later relay
  // peels extend it; the inbox crossing relays.
  CircuitId walked = cm.open(f.payload, 99, f.route);
  CircuitId clone = cm.clone(walked);
  ASSERT_TRUE(walk(cm, f, walked));
  EXPECT_EQ(command(0), CellCommand::kCreate);
  EXPECT_EQ(command(1), CellCommand::kExtend);
  EXPECT_EQ(command(2), CellCommand::kExtend);
  EXPECT_EQ(command(3), CellCommand::kRelay);

  // A clone has never crossed: its first relay peel creates it too.
  ASSERT_TRUE(cm.forward(clone, 0, 5, Peel::relay(1, 2)));
  EXPECT_EQ(command(4), CellCommand::kCreate);

  // A carrier crossing relays, and the relay peel after it extends: a
  // carrier-first circuit never sends kCreate.
  CircuitId carried = cm.open(f.payload, 99, f.route);
  cm.forward(carried, 0, 7, Peel::carry());
  ASSERT_TRUE(cm.forward(carried, 7, 5, Peel::relay(1, 2)));
  EXPECT_EQ(command(5), CellCommand::kRelay);
  EXPECT_EQ(command(6), CellCommand::kExtend);
  EXPECT_EQ(events.size(), 7 * per_packet);
}

TEST(CircuitManager, InboxWithoutSenderOpensInPlace) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  ASSERT_TRUE(cm.forward(id, 0, 5, Peel::relay(1, 2)));
  ASSERT_TRUE(cm.forward(id, 5, 9, Peel::relay(2, 3)));
  ASSERT_TRUE(cm.forward(id, 9, 20, Peel::last_relay(3, 99)));
  const std::uint64_t cells = cm.wire_cells();
  // dst already holds the packet: no contact is crossed, only opened.
  EXPECT_TRUE(cm.forward(id, CircuitManager::kNoSender, 99,
                         Peel::inbox(f.payload)));
  EXPECT_EQ(cm.wire_cells(), cells);
  EXPECT_TRUE(cm.verified(id));
  // Anyone else's inbox key cannot open it.
  CircuitId other = cm.clone(id);
  EXPECT_FALSE(cm.forward(other, CircuitManager::kNoSender, 98,
                          Peel::inbox(f.payload)));
  EXPECT_FALSE(cm.verified(other));
}

TEST(CircuitManager, RealModeDrawsExactlyOneSeed) {
  Fixture f(/*wire=*/false);
  util::Rng reference(13);
  CircuitManager cm(f.cctx, f.rng);
  // The constructor consumed exactly one draw (the legacy DRBG-seed
  // position); the streams must re-align after skipping one.
  reference.next();
  EXPECT_EQ(f.rng.next(), reference.next());
}

TEST(CircuitManager, NoCryptoModeDrawsNothingAndSkipsCrypto) {
  Fixture f(/*wire=*/false, /*crypto=*/false);
  util::Rng reference(13);
  auto cm = f.make();
  EXPECT_EQ(f.rng.next(), reference.next());  // zero constructor draws

  EXPECT_FALSE(cm.crypto_enabled());
  CircuitId id = cm.open(f.payload, 99, f.route);
  EXPECT_TRUE(cm.wire(id).empty());  // no onion is built
  // Peels succeed vacuously.
  EXPECT_TRUE(cm.forward(id, 0, 5, Peel::relay(1, 2)));
  EXPECT_TRUE(cm.forward(id, 5, 99, Peel::inbox(f.payload)));
  // ... but nothing is "verified" without crypto.
  EXPECT_FALSE(cm.verified(id));
  EXPECT_EQ(cm.wire_cells(), 0u);
}

TEST(CircuitManager, WireRequiresCrypto) {
  Fixture f(/*wire=*/true, /*crypto=*/false);
  auto cm = f.make();
  EXPECT_FALSE(cm.wire_enabled());  // wire is meaningless without crypto
}

TEST(CircuitManager, NullKeysOrCodecThrows) {
  Fixture f(/*wire=*/false);
  CircuitContext bad = f.cctx;
  bad.keys = nullptr;
  EXPECT_THROW(CircuitManager(bad, f.rng), std::invalid_argument);
  bad = f.cctx;
  bad.codec = nullptr;
  EXPECT_THROW(CircuitManager(bad, f.rng), std::invalid_argument);
  bad = f.cctx;
  bad.wire = true;
  bad.cell_size = kMinCellSize - 1;
  EXPECT_THROW(CircuitManager(bad, f.rng), std::invalid_argument);
}

TEST(CircuitManager, SendCrossesWithoutPeeling) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  const util::Bytes before = cm.wire(id);
  EXPECT_TRUE(cm.forward(id, 0, 7, Peel::carry()));  // plain carrier handoff
  EXPECT_EQ(cm.wire(id), before);
  EXPECT_TRUE(cm.link_ok());
  EXPECT_EQ(cm.wire_cells(), cm.cells_per_packet());
}

}  // namespace
}  // namespace odtn::circuit
