#include "routing/alar.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"

namespace odtn::routing {

AlarRouting::AlarRouting(AlarOptions options, CryptoMode crypto,
                         const groups::KeyManager* keys)
    : options_(options), crypto_(crypto), keys_(keys) {
  if (options_.segments == 0 || options_.segments > 255) {
    throw std::invalid_argument("AlarRouting: bad segment count");
  }
  if (options_.threshold == 0 || options_.threshold > options_.segments) {
    throw std::invalid_argument("AlarRouting: bad threshold");
  }
  if (crypto_ == CryptoMode::kReal && keys_ == nullptr) {
    throw std::invalid_argument("AlarRouting: kReal requires a KeyManager");
  }
}

AlarResult AlarRouting::route(const trace::ContactTrace& trace,
                              const MessageSpec& spec) {
  if (spec.src == spec.dst) {
    throw std::invalid_argument("route: src == dst");
  }
  if (spec.src >= trace.node_count() || spec.dst >= trace.node_count()) {
    throw std::invalid_argument("route: unknown endpoint");
  }
  const std::size_t n = trace.node_count();
  const std::size_t s = options_.segments;
  const Time deadline = spec.start + spec.ttl;

  AlarResult result;
  result.initial_receivers.assign(s, kInvalidNode);

  // Real crypto: Shamir-split the payload; seal each segment to dst.
  crypto::Drbg drbg(spec.src ^ (static_cast<std::uint64_t>(spec.dst) << 20) ^
                    0x5a17bd02ULL);
  std::vector<util::Bytes> sealed(s);
  std::vector<crypto::Share> shares;
  if (crypto_ == CryptoMode::kReal) {
    shares = crypto::shamir_split(spec.payload, options_.threshold, s, drbg);
    for (std::size_t i = 0; i < s; ++i) {
      util::Bytes plain;
      plain.push_back(shares[i].x);
      util::append(plain, shares[i].data);
      util::Bytes nonce = drbg.generate_nonce();
      sealed[i] = nonce;
      util::append(sealed[i], crypto::aead_seal(keys_->inbox_key(spec.dst),
                                                nonce, {}, plain));
    }
  }

  // holdings[v] = bitmask of segments node v carries. The source holds all
  // segments but, per ALAR, releases each to a *different* first receiver
  // and stops advertising it afterwards (that is the localization
  // defense: no bystander sees the source emit twice... per segment).
  std::vector<std::uint64_t> holdings(n, 0);
  // The source holds every segment from the start (it only *releases*
  // them, never floods, and must not be re-infected by the epidemic).
  holdings[spec.src] =
      s >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << s) - 1);
  std::vector<bool> was_initial_receiver(n, false);
  std::size_t next_segment_to_release = 0;
  std::size_t dst_segments = 0;

  auto give = [&](NodeId to, std::size_t seg, Time t) {
    holdings[to] |= (std::uint64_t{1} << seg);
    ++result.transmissions;
    if (to == spec.dst) {
      ++dst_segments;
      if (dst_segments == options_.threshold && !result.delivered) {
        result.delivered = true;
        result.delay = t - spec.start;
      }
    }
  };

  // Events are time-sorted: jump straight to the message's start instead of
  // scanning the pre-start prefix.
  const auto& events = trace.events();
  auto first = std::lower_bound(events.begin(), events.end(), spec.start,
                                [](const trace::ContactEvent& e, Time t) {
                                  return e.time < t;
                                });
  for (auto it = first; it != events.end(); ++it) {
    const auto& event = *it;
    if (event.time >= deadline) break;
    if (result.delivered) break;

    for (auto [u, v] : {std::pair<NodeId, NodeId>{event.a, event.b},
                        std::pair<NodeId, NodeId>{event.b, event.a}}) {
      // Source release phase: hand the next unreleased segment to a node
      // that has not served as an initial receiver yet (each segment gets
      // a *different* first receiver — the anti-localization property).
      if (u == spec.src && next_segment_to_release < s && v != spec.src &&
          !was_initial_receiver[v] && v != spec.dst) {
        was_initial_receiver[v] = true;
        result.initial_receivers[next_segment_to_release] = v;
        give(v, next_segment_to_release, event.time);
        ++next_segment_to_release;
        continue;
      }
      // Epidemic phase: u passes every segment v lacks.
      std::uint64_t missing = holdings[u] & ~holdings[v];
      if (u == spec.src) missing = 0;  // source only releases, never floods
      for (std::size_t seg = 0; seg < s && missing != 0; ++seg) {
        std::uint64_t bit = std::uint64_t{1} << seg;
        if (missing & bit) {
          give(v, seg, event.time);
          missing &= ~bit;
          if (result.delivered) break;
        }
      }
      if (result.delivered) break;
    }
  }

  result.segments_at_destination = dst_segments;

  if (result.delivered && crypto_ == CryptoMode::kReal) {
    // Destination-side reconstruction from the first `threshold` segments
    // (order does not matter for Shamir).
    std::vector<crypto::Share> received;
    std::uint64_t dst_mask = holdings[spec.dst];
    for (std::size_t i = 0; i < s && received.size() < options_.threshold;
         ++i) {
      if (!(dst_mask & (std::uint64_t{1} << i))) continue;
      util::Bytes nonce(sealed[i].begin(), sealed[i].begin() + 12);
      util::Bytes body(sealed[i].begin() + 12, sealed[i].end());
      auto plain =
          crypto::aead_open(keys_->inbox_key(spec.dst), nonce, {}, body);
      if (!plain.has_value() || plain->empty()) continue;
      crypto::Share share;
      share.x = (*plain)[0];
      share.data.assign(plain->begin() + 1, plain->end());
      received.push_back(std::move(share));
    }
    result.crypto_verified =
        received.size() >= options_.threshold &&
        crypto::shamir_reconstruct(received, options_.threshold) ==
            spec.payload;
  }

  return result;
}

}  // namespace odtn::routing
