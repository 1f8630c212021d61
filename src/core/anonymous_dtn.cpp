#include "core/anonymous_dtn.hpp"

#include <stdexcept>

#include "routing/baselines.hpp"

namespace odtn::core {

AnonymousDtn::AnonymousDtn(std::unique_ptr<graph::ContactGraph> graph,
                           std::unique_ptr<trace::ContactTrace> trace,
                           std::size_t group_size, std::uint64_t seed)
    : graph_(std::move(graph)), trace_(std::move(trace)), rng_(seed) {
  std::size_t n = 0;
  if (graph_ != nullptr) {
    n = graph_->node_count();
    contacts_ = std::make_unique<sim::PoissonContactModel>(*graph_, rng_);
    rates_ = graph_.get();
  } else if (trace_ != nullptr) {
    n = trace_->node_count();
    contacts_ = std::make_unique<sim::TraceContactModel>(*trace_);
    estimated_rates_ =
        std::make_unique<graph::ContactGraph>(trace_->estimate_rates());
    rates_ = estimated_rates_.get();
  } else {
    throw std::invalid_argument("AnonymousDtn: no contact source");
  }
  directory_ = std::make_unique<groups::GroupDirectory>(n, group_size, &rng_);
  keys_ = std::make_unique<groups::KeyManager>(*directory_,
                                               seed ^ 0x6b21f4d98c3e05a7ULL);
  codec_ = std::make_unique<onion::OnionCodec>();
}

AnonymousDtn AnonymousDtn::over_random_graph(std::size_t nodes,
                                             std::size_t group_size,
                                             std::uint64_t seed,
                                             double min_ict, double max_ict) {
  // odtn-lint: allow(rng) — xor-tweaked sub-stream predates
  // util::derive_seed; the sequence is pinned by published figure tables and
  // byte-identity goldens
  util::Rng graph_rng(seed ^ 0x9a3c1b5d7ULL);
  auto g = std::make_unique<graph::ContactGraph>(
      graph::random_contact_graph(nodes, graph_rng, min_ict, max_ict));
  return AnonymousDtn(std::move(g), nullptr, group_size, seed);
}

AnonymousDtn AnonymousDtn::over_graph(graph::ContactGraph graph,
                                      std::size_t group_size,
                                      std::uint64_t seed) {
  return AnonymousDtn(std::make_unique<graph::ContactGraph>(std::move(graph)),
                      nullptr, group_size, seed);
}

AnonymousDtn AnonymousDtn::over_trace(trace::ContactTrace trace,
                                      std::size_t group_size,
                                      std::uint64_t seed) {
  return AnonymousDtn(nullptr,
                      std::make_unique<trace::ContactTrace>(std::move(trace)),
                      group_size, seed);
}

std::size_t AnonymousDtn::node_count() const {
  return contacts_->node_count();
}

routing::DeliveryResult AnonymousDtn::send(NodeId src, NodeId dst,
                                           const util::Bytes& payload,
                                           const SendOptions& options) {
  routing::OnionContext ctx;
  ctx.directory = directory_.get();
  ctx.keys = keys_.get();
  ctx.codec = codec_.get();
  ctx.crypto = routing::CryptoMode::kReal;

  routing::MessageSpec spec = options;  // the shared parameter block
  spec.src = src;
  spec.dst = dst;
  spec.payload = payload;

  if (options.copies == 1) {
    routing::SingleCopyOnionRouting protocol(ctx);
    return protocol.route(*contacts_, spec, rng_);
  }
  routing::MultiCopyOnionRouting protocol(ctx, options.spray);
  return protocol.route(*contacts_, spec, rng_);
}

routing::DeliveryResult AnonymousDtn::send_spray_and_wait(NodeId src,
                                                          NodeId dst,
                                                          std::size_t copies,
                                                          Time ttl,
                                                          Time start) {
  routing::MessageSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.start = start;
  spec.ttl = ttl;
  spec.copies = copies;
  routing::SprayAndWaitRouting protocol;
  return protocol.route(*contacts_, spec);
}

routing::DeliveryResult AnonymousDtn::send_epidemic(NodeId src, NodeId dst,
                                                    Time ttl, Time start) {
  routing::MessageSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.start = start;
  spec.ttl = ttl;
  routing::EpidemicRouting protocol;
  return protocol.route(*contacts_, spec);
}

}  // namespace odtn::core
