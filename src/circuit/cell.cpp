#include "circuit/cell.hpp"

#include <cstring>
#include <stdexcept>

namespace odtn::circuit {

namespace {

bool known_command(std::uint8_t c) {
  return c >= static_cast<std::uint8_t>(CellCommand::kCreate) &&
         c <= static_cast<std::uint8_t>(CellCommand::kPadding);
}

}  // namespace

CellCodec::CellCodec(std::size_t cell_size) : cell_size_(cell_size) {
  if (cell_size_ < kMinCellSize || cell_size_ > kMaxCellSize) {
    throw std::invalid_argument("CellCodec: cell_size out of range");
  }
  body_size_ = cell_size_ - kCellHeaderSize - crypto::kAeadNonceSize -
               crypto::kAeadTagSize;
  max_payload_ = body_size_ - kCellBodyLenSize;
}

std::size_t CellCodec::cells_for(std::size_t bytes) const {
  if (bytes == 0) return 1;
  return (bytes + max_payload_ - 1) / max_payload_;
}

void CellCodec::seal_into(CircuitId circuit_id, CellCommand command,
                          std::span<const std::uint8_t> payload,
                          const util::Bytes& key, crypto::Drbg& drbg,
                          util::Bytes& out, CellScratch& scratch) const {
  if (payload.size() > max_payload_) {
    throw std::invalid_argument("CellCodec::seal: payload exceeds capacity");
  }
  drbg.generate_into(crypto::kAeadNonceSize, scratch.nonce);

  // Body plaintext: length prefix, payload, zero padding (hidden by the
  // cipher) out to the constant body size.
  scratch.body.assign(body_size_, 0);
  scratch.body[0] = static_cast<std::uint8_t>(payload.size());
  scratch.body[1] = static_cast<std::uint8_t>(payload.size() >> 8);
  if (!payload.empty()) {
    std::memcpy(scratch.body.data() + kCellBodyLenSize, payload.data(),
                payload.size());
  }

  out.resize(cell_size_);
  out[0] = kCellVersion;
  out[1] = static_cast<std::uint8_t>(circuit_id);
  out[2] = static_cast<std::uint8_t>(circuit_id >> 8);
  out[3] = static_cast<std::uint8_t>(circuit_id >> 16);
  out[4] = static_cast<std::uint8_t>(circuit_id >> 24);
  out[5] = static_cast<std::uint8_t>(command);
  std::memcpy(out.data() + kCellHeaderSize, scratch.nonce.data(),
              crypto::kAeadNonceSize);

  crypto::aead_seal_into(
      key, scratch.nonce,
      std::span<const std::uint8_t>(out.data(), kCellHeaderSize), scratch.body,
      scratch.sealed);
  std::memcpy(out.data() + kCellHeaderSize + crypto::kAeadNonceSize,
              scratch.sealed.data(), scratch.sealed.size());
}

util::Bytes CellCodec::seal(CircuitId circuit_id, CellCommand command,
                            std::span<const std::uint8_t> payload,
                            const util::Bytes& key, crypto::Drbg& drbg) const {
  util::Bytes out;
  CellScratch scratch;
  seal_into(circuit_id, command, payload, key, drbg, out, scratch);
  return out;
}

bool CellCodec::open_into(const util::Bytes& cell, const util::Bytes& key,
                          Cell& out, CellScratch& scratch) const {
  if (cell.size() != cell_size_) return false;
  if (cell[0] != kCellVersion || !known_command(cell[5])) return false;

  const std::span<const std::uint8_t> aad(cell.data(), kCellHeaderSize);
  const std::span<const std::uint8_t> nonce(cell.data() + kCellHeaderSize,
                                            crypto::kAeadNonceSize);
  const std::span<const std::uint8_t> sealed(
      cell.data() + kCellHeaderSize + crypto::kAeadNonceSize,
      cell.size() - kCellHeaderSize - crypto::kAeadNonceSize);
  if (!crypto::aead_open_into(key, nonce, aad, sealed, scratch.body)) {
    return false;
  }
  const std::size_t len = static_cast<std::size_t>(scratch.body[0]) |
                          (static_cast<std::size_t>(scratch.body[1]) << 8);
  if (len > max_payload_) return false;

  out.circuit_id = util::get_u32le(cell, 1);
  out.command = static_cast<CellCommand>(cell[5]);
  out.payload.assign(scratch.body.begin() + kCellBodyLenSize,
                     scratch.body.begin() +
                         static_cast<long>(kCellBodyLenSize + len));
  return true;
}

std::optional<Cell> CellCodec::open(const util::Bytes& cell,
                                    const util::Bytes& key) const {
  Cell out;
  CellScratch scratch;
  if (!open_into(cell, key, out, scratch)) return std::nullopt;
  return out;
}

}  // namespace odtn::circuit
