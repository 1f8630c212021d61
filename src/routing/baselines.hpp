// Non-anonymous DTN routing baselines.
//
// The paper compares the onion protocols' forwarding cost against plain
// (non-anonymous) DTN routing (Fig. 11), and its related-work section is
// built on these classics — so the library ships them as first-class
// protocols:
//
//  * SprayAndWaitRouting — spray-and-wait [Spyropoulos et al. 2005]: the
//    message starts with L tickets at the source; a holder with t > 1
//    tickets hands some to the first ticketless node it meets, and every
//    holder waits for the destination. Cost <= 2L - 1. Source spray hands
//    one ticket per contact, so only the source sprays; binary spray (the
//    variant shown optimal in their analysis) hands floor(t/2) and spreads
//    the copies exponentially faster. Direct delivery is L = 1: the source
//    holds the message until it meets the destination.
//  * EpidemicRouting — flooding [Vahdat & Becker 2000]: every holder copies
//    the message at every contact with a node that lacks it. Maximal
//    delivery rate, maximal cost.
#pragma once

#include "routing/types.hpp"
#include "sim/contact_model.hpp"

namespace odtn::routing {

class SprayAndWaitRouting {
 public:
  /// How a holder with t > 1 tickets splits them at a spray contact.
  enum class Split {
    kSource,  // hand 1 ticket: the source sprays L - 1 copies itself
    kBinary,  // hand floor(t/2) tickets
  };

  explicit SprayAndWaitRouting(Split split = Split::kSource) : split_(split) {}

  /// Uses `spec.copies` as L; `spec.num_relays` is ignored.
  DeliveryResult route(sim::ContactModel& contacts, const MessageSpec& spec);

 private:
  Split split_;
};

class EpidemicRouting {
 public:
  /// Floods until delivery or deadline. `transmissions` counts every copy
  /// made (including those after first delivery up to the stop condition:
  /// epidemic keeps spreading until the deadline, but the simulation stops
  /// early once every node is infected).
  DeliveryResult route(sim::ContactModel& contacts, const MessageSpec& spec);
};

}  // namespace odtn::routing
