// Micro-benchmarks (google-benchmark) for the crypto substrate: the
// per-forward cost a deployment would actually pay.
//
// Driver flags (--json / --baseline / --max-regression-pct): see
// bench_gate.hpp — the shared median-capture + regression-gate driver.
#include <benchmark/benchmark.h>

#include "alloc_counter.hpp"
#include "bench_gate.hpp"
#include "common/realization.hpp"

#include "circuit/cell.hpp"
#include "circuit/circuit_manager.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "groups/group_directory.hpp"
#include "groups/key_manager.hpp"
#include "onion/onion.hpp"

namespace {

using namespace odtn;

void BM_Sha256(benchmark::State& state) {
  util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  util::Bytes key(32, 1);
  util::Bytes data(1024, 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_ChaCha20(benchmark::State& state) {
  util::Bytes key(32, 1), nonce(12, 2);
  util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xef);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::chacha20_xor(key, nonce, 0, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AeadSealOpen(benchmark::State& state) {
  util::Bytes key(32, 1), nonce(12, 2), aad;
  util::Bytes data(1024, 0x42);
  for (auto _ : state) {
    auto sealed = crypto::aead_seal(key, nonce, aad, data);
    benchmark::DoNotOptimize(crypto::aead_open(key, nonce, aad, sealed));
  }
}
BENCHMARK(BM_AeadSealOpen);

// The Montgomery ladder: the reference ECDH, which the wire path no longer
// runs (KeyManager::session_key computes the same bytes with one comb).
void BM_X25519(benchmark::State& state) {
  bench::Stream s(1);
  auto a = crypto::generate_keypair(s.rng());
  auto b = crypto::generate_keypair(s.rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::shared_secret(a.private_key, b.public_key));
  }
}
BENCHMARK(BM_X25519);

// The fixed-base comb: what KeyManager::node_identity pays for an
// identity's public key.
void BM_X25519Base(benchmark::State& state) {
  bench::Stream s(1);
  auto a = crypto::generate_keypair(s.rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::x25519_base(a.private_key));
  }
}
BENCHMARK(BM_X25519Base);

// One secure-link key for a pair asked for the first time: what a wire
// run pays per new contact pair (the comb over the two private keys'
// product, the HKDF, and the higher endpoint's private key on first use).
// Each manager is asked every pair once, and a new one (next seed) starts
// when they run out, so the session cache never hits. allocs_per_key counts
// every heap allocation in the loop (the managers' own included) per key.
void BM_SessionKey(benchmark::State& state) {
  groups::GroupDirectory dir(100, 5);
  std::uint64_t seed = 1;
  groups::KeyManager keys(dir, seed);
  NodeId lo = 0, hi = 1;
  const std::uint64_t allocs_before = bench::alloc_count();
  std::uint64_t derived = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys.session_key(lo, hi).data());
    ++derived;
    if (++hi == dir.node_count()) {
      if (++lo == dir.node_count() - 1) {
        lo = 0;
        keys = groups::KeyManager(dir, ++seed);
      }
      hi = lo + 1;
    }
  }
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;
  state.counters["allocs_per_key"] =
      derived == 0 ? 0.0
                   : static_cast<double>(allocs) / static_cast<double>(derived);
}
BENCHMARK(BM_SessionKey);

void BM_Drbg(benchmark::State& state) {
  crypto::Drbg drbg(std::uint64_t{7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(drbg.generate(64));
  }
}
BENCHMARK(BM_Drbg);

void BM_OnionBuild(benchmark::State& state) {
  groups::GroupDirectory dir(100, 5);
  groups::KeyManager keys(dir, 1);
  onion::OnionCodec codec;
  crypto::Drbg drbg(std::uint64_t{9});
  util::Bytes payload(200, 0x11);
  std::vector<GroupId> route;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    route.push_back(static_cast<GroupId>(i + 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.build(payload, 99, route, keys, drbg));
  }
}
BENCHMARK(BM_OnionBuild)->Arg(3)->Arg(5)->Arg(10);

void BM_OnionPeel(benchmark::State& state) {
  groups::GroupDirectory dir(100, 5);
  groups::KeyManager keys(dir, 1);
  onion::OnionCodec codec;
  crypto::Drbg drbg(std::uint64_t{9});
  util::Bytes payload(200, 0x11);
  std::vector<GroupId> route = {1, 2, 3};
  util::Bytes wire = codec.build(payload, 99, route, keys, drbg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.peel(wire, keys.group_key(1), drbg));
  }
}
BENCHMARK(BM_OnionPeel);

void BM_OnionPeelView(benchmark::State& state) {
  groups::GroupDirectory dir(100, 5);
  groups::KeyManager keys(dir, 1);
  onion::OnionCodec codec;
  crypto::Drbg drbg(std::uint64_t{9});
  util::Bytes payload(200, 0x11);
  std::vector<GroupId> route = {1, 2, 3};
  util::Bytes wire = codec.build(payload, 99, route, keys, drbg);
  onion::PeelScratch scratch;
  // Warm the scratch buffers so the loop measures — and the counter
  // asserts — the steady-state zero-allocation path.
  benchmark::DoNotOptimize(
      codec.peel_view(wire, keys.group_key(1), drbg, scratch));
  const std::uint64_t allocs_before = bench::alloc_count();
  std::uint64_t peels = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec.peel_view(wire, keys.group_key(1), drbg, scratch));
    ++peels;
  }
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;
  state.counters["allocs_per_peel"] =
      peels == 0 ? 0.0
                 : static_cast<double>(allocs) / static_cast<double>(peels);
}
BENCHMARK(BM_OnionPeelView);

void BM_CellSeal(benchmark::State& state) {
  const auto cell_size = static_cast<std::size_t>(state.range(0));
  circuit::CellCodec cells(cell_size);
  crypto::Drbg drbg(std::uint64_t{11});
  util::Bytes key(32, 7);
  util::Bytes payload(cells.max_payload(), 0x5a);
  util::Bytes out;
  circuit::CellScratch scratch;
  // Warm the scratch buffers (same zero-allocation assertion as above).
  cells.seal_into(1, circuit::CellCommand::kRelay, payload, key, drbg, out,
                  scratch);
  const std::uint64_t allocs_before = bench::alloc_count();
  std::uint64_t sealed = 0;
  for (auto _ : state) {
    cells.seal_into(1, circuit::CellCommand::kRelay, payload, key, drbg, out,
                    scratch);
    benchmark::DoNotOptimize(out.data());
    ++sealed;
  }
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;
  state.counters["allocs_per_cell"] =
      sealed == 0 ? 0.0
                  : static_cast<double>(allocs) / static_cast<double>(sealed);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cell_size));
}
BENCHMARK(BM_CellSeal)->Arg(512)->Arg(4096);

// One full circuit lifecycle (open, three relay peels, the inbox open) with
// the manager (and its circuit table) rebuilt per iteration so memory
// stays bounded. Arg 0 = one-blob secure links, 1 = wire cells. The
// KeyManager lives across iterations, so its session keys are cached after
// the first one: this times the AEAD and onion work of a circuit, not the
// secure-link key derivations (BM_SessionKey times those).
void BM_CircuitExtend(benchmark::State& state) {
  groups::GroupDirectory dir(100, 5);
  groups::KeyManager keys(dir, 1);
  onion::OnionCodec codec;
  bench::Stream s(13);
  circuit::CircuitContext cctx;
  cctx.keys = &keys;
  cctx.codec = &codec;
  cctx.crypto = true;
  cctx.wire = state.range(0) != 0;
  util::Bytes payload(200, 0x11);
  std::vector<GroupId> route = {1, 2, 3};
  using Peel = circuit::CircuitManager::Peel;
  for (auto _ : state) {
    circuit::CircuitManager cm(cctx, s.rng());
    circuit::CircuitId id = cm.open(payload, 99, route);
    cm.forward(id, 0, 5, Peel::relay(1, 2));
    cm.forward(id, 5, 9, Peel::relay(2, 3));
    cm.forward(id, 9, 20, Peel::last_relay(3, 99));
    benchmark::DoNotOptimize(cm.forward(id, 20, 99, Peel::inbox(payload)));
  }
}
BENCHMARK(BM_CircuitExtend)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  return odtn::bench_gate::run(argc, argv, "micro_crypto");
}
