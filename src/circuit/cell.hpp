// Fixed-size cell framing for the wire-accurate circuit layer.
//
// Everything a contact carries in wire mode is a cell of exactly
// `cell_size` bytes (default 512, Tor-style), so an observer of the public
// network sees only a stream of equal-length AEAD blobs — cell counts, not
// packet shapes, are the sole traffic signal (the property the
// compromised-relay adversary measures).
//
// Layout (authenticated with crypto::aead, ChaCha20-Poly1305):
//
//   +---------+------------+---------+-------+----------------------+-----+
//   | version | circuit id | command | nonce | len ‖ payload ‖ pad  | tag |
//   |   1 B   |    4 B     |   1 B   | 12 B  |  (encrypted body)    | 16B |
//   +---------+------------+---------+-------+----------------------+-----+
//   \________ plaintext header _____/
//
// The 6-byte header is plaintext (a relay must route on the circuit id
// without the session key) but is bound into the AEAD as associated data,
// so any header tamper — like any body tamper or truncation — fails the
// tag check and open() reports nullopt. The body is an encrypted 2-byte
// little-endian payload length, the payload, and zero padding out to the
// constant body size; padding is hidden by the cipher.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"
#include "util/bytes.hpp"

namespace odtn::circuit {

/// Circuit identifier carried in every cell header. Manager-local (ids are
/// per-source, as in Tor: the pair (link, id) names the circuit).
using CircuitId = std::uint32_t;

inline constexpr std::uint8_t kCellVersion = 1;
/// Plaintext header: version(1) + circuit id(4) + command(1).
inline constexpr std::size_t kCellHeaderSize = 6;
/// Encrypted length prefix inside the body.
inline constexpr std::size_t kCellBodyLenSize = 2;
/// Default on-the-wire cell size in bytes.
inline constexpr std::size_t kDefaultCellSize = 512;
/// Smallest usable cell: header + nonce + length prefix + 1 payload byte
/// + tag.
inline constexpr std::size_t kMinCellSize =
    kCellHeaderSize + crypto::kAeadNonceSize + kCellBodyLenSize + 1 +
    crypto::kAeadTagSize;
/// Largest cell the 2-byte length prefix can describe.
inline constexpr std::size_t kMaxCellSize = 65535;

/// Cell commands, mirroring the minitor circuit state machine's wire
/// vocabulary: kCreate opens a circuit on a link, kExtend pushes it one
/// hop further, kRelay carries established-circuit traffic, kDestroy tears
/// down, kPadding is cover traffic. kCreated is the acknowledgement.
enum class CellCommand : std::uint8_t {
  kCreate = 1,
  kCreated = 2,
  kExtend = 3,
  kRelay = 4,
  kDestroy = 5,
  kPadding = 6,
};

/// A decoded cell: header fields plus the authenticated payload.
struct Cell {
  CircuitId circuit_id = 0;
  CellCommand command = CellCommand::kPadding;
  util::Bytes payload;
};

/// Reusable buffers for the _into variants; one scratch per sealer/opener
/// makes steady-state cell processing allocation-free (the PR-4
/// zero-allocation contract).
struct CellScratch {
  util::Bytes nonce;
  util::Bytes body;
  util::Bytes sealed;
};

class CellCodec {
 public:
  /// Throws std::invalid_argument unless kMinCellSize <= cell_size <=
  /// kMaxCellSize.
  explicit CellCodec(std::size_t cell_size = kDefaultCellSize);

  std::size_t cell_size() const { return cell_size_; }
  /// Payload capacity of one cell.
  std::size_t max_payload() const { return max_payload_; }
  /// Number of cells needed to carry `bytes` payload bytes (>= 1: even an
  /// empty packet costs one cell on the wire).
  std::size_t cells_for(std::size_t bytes) const;

  /// Seals one cell of exactly cell_size() bytes. The nonce is drawn from
  /// `drbg`. Throws if `payload` exceeds max_payload().
  util::Bytes seal(CircuitId circuit_id, CellCommand command,
                   std::span<const std::uint8_t> payload,
                   const util::Bytes& key, crypto::Drbg& drbg) const;

  /// In-place seal: writes the cell into `out` (resized, capacity reused).
  void seal_into(CircuitId circuit_id, CellCommand command,
                 std::span<const std::uint8_t> payload, const util::Bytes& key,
                 crypto::Drbg& drbg, util::Bytes& out,
                 CellScratch& scratch) const;

  /// Authenticates and decodes one cell. Returns nullopt on wrong size,
  /// unknown version/command, tampered header/body, or truncation (all
  /// surface as AEAD tag failure or header rejection).
  std::optional<Cell> open(const util::Bytes& cell,
                           const util::Bytes& key) const;

  /// In-place open: decodes into `out` (payload capacity reused). Returns
  /// false exactly when open() would return nullopt.
  bool open_into(const util::Bytes& cell, const util::Bytes& key, Cell& out,
                 CellScratch& scratch) const;

 private:
  std::size_t cell_size_;
  std::size_t body_size_;     // encrypted body: len prefix + payload + pad
  std::size_t max_payload_;
};

}  // namespace odtn::circuit
