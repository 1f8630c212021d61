// ALAR — Anti-Localization Anonymous Routing (Lu et al., Comput. Netw.
// 2010), the third anonymous-DTN scheme in the paper's related work
// (Sec. VI-C): "an Epidemic-like protocol that hides the source location
// by dividing a message into several segments and then sending them to
// different receivers; meanwhile the sender's identifier is not
// protected."
//
// The source splits the message into `segments` segments, any `threshold`
// of which rebuild it (ALAR's original scheme needs all of them, tau = s).
// Each segment is handed to a *different* first receiver — so no single
// bystander observes the source transmitting the whole message, which is
// what defeats localization — and from there spreads epidemically. The
// destination has the message once `threshold` distinct segments arrive.
// Segments are abstract (a bit each in a 64-bit mask, hence s <= 64): the
// comparison of Sec. VI-C is delivery, cost and source exposure, none of
// which depends on the segment bytes.
//
// Simulated over an explicit contact trace (for random graphs, sample one
// with trace::sample_poisson_trace): segment spreading is a joint process
// on shared contacts, which an event walk captures exactly.
#pragma once

#include "routing/types.hpp"
#include "trace/contact_trace.hpp"

namespace odtn::routing {

struct AlarOptions {
  std::size_t segments = 4;   // s: segments the message is divided into
  std::size_t threshold = 4;  // tau: segments dst needs (ALAR: tau = s)
};

struct AlarResult {
  bool delivered = false;
  Time delay = kTimeInfinity;
  /// Total transmissions over all segment epidemics (the flooding price).
  std::size_t transmissions = 0;
  /// Segments the destination had received by the deadline.
  std::size_t segments_at_destination = 0;
  /// First receiver of each segment (kInvalidNode if never handed off).
  std::vector<NodeId> initial_receivers;
};

class AlarRouting {
 public:
  explicit AlarRouting(AlarOptions options = {});

  /// Routes one message over the trace. `spec.num_relays`/`spec.copies`
  /// are ignored (ALAR has its own segment parameters).
  AlarResult route(const trace::ContactTrace& trace, const MessageSpec& spec);

 private:
  AlarOptions options_;
};

}  // namespace odtn::routing
