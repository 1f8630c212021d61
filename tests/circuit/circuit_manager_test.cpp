// CircuitManager tests: the one audited build/peel/forward implementation
// both onion protocols are policies over. Covers the wire-mode end-to-end
// lifecycle, cell-stream tamper detection, Expect mismatches, the kNone
// zero-knob contract (no RNG draws, no crypto), and truncate semantics.
#include "circuit/circuit_manager.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "groups/group_directory.hpp"
#include "groups/key_manager.hpp"
#include "onion/onion.hpp"
#include "util/rng.hpp"

namespace odtn::circuit {
namespace {

using Expect = CircuitManager::Expect;

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
  if (!cm.extend(id, 0, 5, f.keys.group_key(1), Expect::relay_to(2))) {
    return false;
  }
  if (!cm.extend(id, 5, 9, f.keys.group_key(2), Expect::relay_to(3))) {
    return false;
  }
  if (!cm.extend(id, 9, 20, f.keys.group_key(3), Expect::deliver_to(99))) {
    return false;
  }
  return cm.deliver(id, 20, 99, f.payload);
}

TEST(CircuitManager, WireModeEndToEndVerifies) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  EXPECT_EQ(cm.status(id), CircuitStatus::kCreate);
  EXPECT_TRUE(walk(cm, f, id));
  EXPECT_EQ(cm.status(id), CircuitStatus::kEstablished);
  EXPECT_EQ(cm.hops(id), 3u);
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
  // 3 extends + 1 deliver = 4 contact crossings; the onion packet is
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
  EXPECT_FALSE(cm.extend(id, 0, 5, f.keys.group_key(1), Expect::relay_to(4)));
  EXPECT_FALSE(cm.circuit_ok(id));
  EXPECT_FALSE(cm.verified(id));
  EXPECT_TRUE(cm.link_ok());  // the link itself was fine
}

TEST(CircuitManager, WrongKeyPeelFailsAndLeavesPacketIntact) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  const util::Bytes before = cm.wire(id);
  EXPECT_FALSE(cm.extend(id, 0, 5, f.keys.group_key(4), Expect::relay_to(2)));
  EXPECT_EQ(cm.wire(id), before);  // policy may keep walking with the packet
  EXPECT_FALSE(cm.verified(id));
}

TEST(CircuitManager, CloneSharesThePacketAndStartsFresh) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  CircuitId id = cm.open(f.payload, 99, f.route);
  CircuitId copy = cm.clone(id);
  EXPECT_NE(copy, id);
  EXPECT_EQ(cm.status(copy), CircuitStatus::kCreate);
  EXPECT_EQ(cm.wire(copy), cm.wire(id));
  // Both copies can be walked independently.
  EXPECT_TRUE(walk(cm, f, id));
  EXPECT_TRUE(walk(cm, f, copy));
  EXPECT_TRUE(cm.verified(id));
  EXPECT_TRUE(cm.verified(copy));
}

TEST(CircuitManager, TruncateFollowsTheStateMachine) {
  Fixture f(/*wire=*/true);
  auto cm = f.make();
  // From kCreate, kTruncated is illegal -> falls through to kDestroyed.
  CircuitId fresh = cm.open(f.payload, 99, f.route);
  cm.truncate(fresh);
  EXPECT_EQ(cm.status(fresh), CircuitStatus::kDestroyed);

  // After a hop the circuit is in flight -> kTruncated, and may rebuild.
  CircuitId walked = cm.open(f.payload, 99, f.route);
  ASSERT_TRUE(cm.extend(walked, 0, 5, f.keys.group_key(1),
                        Expect::relay_to(2)));
  cm.truncate(walked);
  EXPECT_EQ(cm.status(walked), CircuitStatus::kTruncated);
  EXPECT_TRUE(cm.advance(walked, CircuitStatus::kExtend));
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
  // The state machine still advances; peels succeed vacuously.
  util::Bytes no_key;
  EXPECT_TRUE(cm.extend(id, 0, 5, no_key, Expect::relay_to(2)));
  EXPECT_EQ(cm.status(id), CircuitStatus::kCreated);
  EXPECT_TRUE(cm.deliver(id, 5, 99, f.payload));
  EXPECT_EQ(cm.status(id), CircuitStatus::kEstablished);
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
  cm.send(id, 0, 7);  // plain carrier handoff
  EXPECT_EQ(cm.status(id), CircuitStatus::kCreated);
  EXPECT_EQ(cm.hops(id), 0u);
  EXPECT_EQ(cm.wire(id), before);
  EXPECT_TRUE(cm.link_ok());
  EXPECT_EQ(cm.wire_cells(), cm.cells_per_packet());
}

}  // namespace
}  // namespace odtn::circuit
