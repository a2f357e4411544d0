//===- counterexample/UnifyingSearch.h - Product-parser search -*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The outward search for unifying counterexamples (paper §5).
///
/// Two copies of the parser are simulated in parallel on a product parser;
/// one copy is forced to take the conflict's reduction, the other its shift
/// (or second reduction). A search \e configuration holds, per copy, a
/// sequence of state-items (valid transitions and production steps) and a
/// list of partial derivations (Fig. 8). Successors follow Fig. 10:
/// shared transitions, per-copy production steps, reverse transitions and
/// reverse production steps (to prepare reductions that need more left
/// context), and per-copy reductions. Configurations are explored in order
/// of increasing cost; repeating a production step within the same state
/// pays a steep surcharge, which is how the paper postpones potentially
/// infinite expansions (§5.4).
///
/// A configuration is accepted once both copies have performed their
/// conflict action, consumed the conflict terminal, and reduced everything
/// to a single derivation of the same nonterminal: the two derivations are
/// then distinct parses of one string — a unifying counterexample.
///
/// By default, reverse transitions may only enter states on the shortest
/// lookahead-sensitive path, trading completeness for speed exactly as the
/// implementation section (§6) describes; extended search lifts the
/// restriction.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_COUNTEREXAMPLE_UNIFYINGSEARCH_H
#define LALRCEX_COUNTEREXAMPLE_UNIFYINGSEARCH_H

#include "counterexample/Counterexample.h"
#include "counterexample/LookaheadSensitiveSearch.h"
#include "support/Budget.h"

#include <chrono>
#include <optional>
#include <string>

namespace lalrcex {

/// Tuning knobs for the unifying search.
struct UnifyingOptions {
  /// Wall-clock budget; the paper uses 5 seconds per conflict. Zero
  /// disables the deadline; negative values create an already-expired
  /// deadline (deterministic timeouts for tests).
  double TimeLimitSeconds = 5.0;
  /// Allow reverse transitions through states off the shortest
  /// lookahead-sensitive path (the paper's -extendedsearch).
  bool ExtendedSearch = false;
  /// Deterministic step budget: explored configurations.
  size_t MaxConfigurations = 2'000'000;
  /// Byte budget for the search's accounted memory (configuration pool,
  /// visited set, derivation lists).
  size_t MemoryLimitBytes = ResourceLimits::Unlimited;
  /// Cooperative cancellation; trip from any thread to stop the search.
  CancellationToken Cancellation;

  /// Cost surcharge for repeating a production step within the same state
  /// (the paper's "postpone infinite expansions" rule, §5.4). Exposed for
  /// the ablation benchmark; 0 disables the postponement.
  int DuplicateProductionCost = 500;

  /// Optional observability sink: wall time, configuration and bucket-queue
  /// counters, peak arena bytes, and guard trips (unifying.* metrics).
  /// Never affects the search result.
  MetricsRegistry *Metrics = nullptr;
};

/// Why the search stopped.
enum class UnifyingStatus {
  Found,       ///< unifying counterexample constructed
  Exhausted,   ///< no unifying counterexample exists within the (possibly
               ///< restricted) search space
  TimedOut,    ///< the wall-clock budget ran out
  LimitHit,    ///< MaxConfigurations reached
  MemoryLimit, ///< MemoryLimitBytes exceeded by accounted allocations
  Cancelled,   ///< the cancellation token was tripped
  Error,       ///< recoverable internal error (malformed search state or
               ///< allocation failure); see UnifyingResult::Message
};

/// Search outcome. The search never throws: internal errors and
/// allocation failures surface as Status == Error with the partial
/// statistics intact.
struct UnifyingResult {
  UnifyingStatus Status = UnifyingStatus::Exhausted;
  std::optional<Counterexample> Example;
  size_t ConfigurationsExplored = 0;
  /// Peak accounted memory of the search.
  size_t PeakBytes = 0;
  /// Human-readable detail for Status == Error.
  std::string Message;
  /// True when Status == Error was caused by an allocation failure.
  bool BadAlloc = false;
};

/// Runs product-parser searches for one conflict.
class UnifyingSearch {
public:
  explicit UnifyingSearch(const StateItemGraph &Graph);

  /// Searches for a unifying counterexample for the conflict between the
  /// reduce item at \p ReduceNode and the item at \p OtherNode (the shift
  /// item with the conflict terminal after the dot, or the second reduce
  /// item of a reduce/reduce conflict), under terminal \p ConflictTerm. \p Slsp is the shortest lookahead-sensitive path for
  /// the reduce item, used to restrict reverse transitions unless extended
  /// search is enabled.
  /// Never throws: budget exhaustion, cancellation, allocation failure,
  /// and malformed search state all surface through UnifyingResult.
  UnifyingResult search(StateItemGraph::NodeId ReduceNode,
                        StateItemGraph::NodeId OtherNode, Symbol ConflictTerm,
                        const LssPath *Slsp,
                        const UnifyingOptions &Opts) const;

private:
  void searchImpl(StateItemGraph::NodeId ReduceNode,
                  StateItemGraph::NodeId OtherNode, Symbol ConflictTerm,
                  const LssPath *Slsp,
                  const UnifyingOptions &Opts, ResourceGuard &Guard,
                  UnifyingResult &Result,
                  std::optional<std::chrono::steady_clock::time_point>
                      &StoppedAt) const;

  const StateItemGraph &Graph;
  const Grammar &G;
  const GrammarAnalysis &Analysis;
};

} // namespace lalrcex

#endif // LALRCEX_COUNTEREXAMPLE_UNIFYINGSEARCH_H
