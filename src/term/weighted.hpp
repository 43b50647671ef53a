// Weighted-message termination detection, originator and participant sides
// (paper Section 4: "One that is particularly appropriate to HyperFile is
// the weighted messages algorithm, which has been implemented in our
// prototype").
//
// Protocol:
//  * The originator creates the query holding weight 1.
//  * Every computation message (remote dereference, start-query) carries a
//    nonzero portion of the sender's held weight.
//  * A participant accumulates the weight of every message it receives; when
//    its local working set drains it gives up all held weight at once
//    (release_all): to the originator on the result message, or, when the
//    drain has nothing to report, to the last dereference it sends (the
//    paper's idle site handing its weight to its last message; the
//    receiver then owns it like any other received weight). The originator
//    only ever lends shares of the master weight (borrow).
//  * Termination: the originator's working set is empty and it has recovered
//    weight exactly 1.
//
// Safety: weights are conserved, so weight 1 at an idle originator implies
// no message is in flight and no participant holds work. Liveness: every
// drain returns weight, and weights are exact dyadic fractions (term/weight
// .hpp), so the sum reaches exactly 1.
//
// Thread ownership (DESIGN.md §10): deliberately lock-free. Originator and
// participant state is confined to the owning site's event-loop thread;
// weight is borrowed for outgoing messages only after ParallelExecution's
// pool join (workers provably idle), so no cross-thread access exists to
// synchronize. The TSan CI job dynamically checks this confinement.
#pragma once

#include "term/weight.hpp"

namespace hyperfile {

/// Originator side: holds the residual weight and judges termination.
class WeightedTerminationOriginator {
 public:
  WeightedTerminationOriginator() : held_(Weight::one()) {}

  /// Weight to attach to an outgoing computation message.
  Weight borrow() { return held_.split(); }

  /// Weight returned by a participant (or by our own completed local work).
  void repay(Weight w) { held_.add(w); }

  /// True iff all weight has come home. The caller must additionally check
  /// that its own working set is empty before declaring termination.
  bool all_weight_home() const { return held_.is_one(); }

  const Weight& held() const { return held_; }

 private:
  Weight held_;
};

/// Participant side: accumulates incoming weight, releases it on drain.
class WeightedTerminationParticipant {
 public:
  /// Record the weight carried by an incoming computation message.
  void receive(Weight w) { held_.add(std::move(w)); }

  /// Weight to attach when this participant itself forwards a computation
  /// message (chasing a pointer onward to a third site).
  /// Precondition: holding nonzero weight (an active participant always is —
  /// activity began with a weighted message).
  Weight borrow() { return held_.split(); }

  /// Working set drained: surrender everything for the drain's last
  /// message — its ResultMessage, or its last dereference when there is
  /// nothing to report.
  Weight release_all() { return held_.take_all(); }

  bool holding() const { return !held_.is_zero(); }
  const Weight& held() const { return held_; }

 private:
  Weight held_;
};

}  // namespace hyperfile
