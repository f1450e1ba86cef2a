//===--- Por.h - Ample-set partial-order reduction --------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ample-set selector behind `espmc --por`. Built once per search
/// from the static independence analysis (src/analysis/Independence.h),
/// then consulted at every expanded state to pick a subset of the
/// enabled moves that provably suffices for the checked properties.
///
/// The selection discharges the classic ample-set side conditions:
///
///  * C0 (nonempty): only nonempty proper subsets are returned; a
///    deadlocked state has no moves and is always "fully" expanded, so
///    deadlock detection is unaffected.
///  * C1 (dependency closure): starting from one seed process, the
///    closure pulls in every process that could reach the opposite end
///    of a channel one of the closed processes has a dynamically-enabled
///    case on (guards are frozen while a process is blocked, and
///    endpoint reachability is the analysis's transitive per-stop fact).
///    The ample set is then every enabled move whose participants lie
///    inside the closure — a persistent set: the first move touching a
///    closed process on any path of the full graph is an ample move.
///  * C2 (invisibility): moves of visibility-clique members (channels
///    that can raise AmbiguousDispatch) and moves whose commit bodies
///    free heap objects or halt are never placed in an ample set, so
///    the error predicates those moves feed stay observable. Leak and
///    assertion checks are evaluated on every visited state as before.
///  * C3 (cycle proviso): handled lazily by the search engine. A worker
///    whose stack is the whole search (`--jobs 1`) keeps the set of
///    on-stack states; an edge from a reduced frame back onto the stack
///    closes a cycle, and the *target* frame is upgraded to full
///    expansion (every cycle through a back edge passes through its
///    target, and any cycle of the final reduced graph contains a back
///    edge, so each gets a fully expanded state — which also resolves
///    the ignoring problem). Workers that hand subtrees to each other
///    (`--jobs N`, N >= 2) have no global stack and use the
///    conservative variant: any ample edge whose visited-set insert
///    fails upgrades its source frame, so their reduced counts can
///    exceed the one-worker ones (verdicts are unaffected either way).
///
/// Whenever a condition cannot be discharged the selector falls back to
/// full expansion, so `--por` can never weaken a verdict. Counts can
/// shrink (goldens gain `--por` variants); all counterexamples remain
/// replayTrace-valid because ample moves are real enabled moves.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_MC_POR_H
#define ESP_MC_POR_H

#include "analysis/Independence.h"
#include "runtime/Machine.h"

#include <cstddef>
#include <vector>

namespace esp {
namespace mc_detail {

/// The per-search ample-set selector. Const after construction and
/// thread-safe: ParallelSearch shares one instance across all workers.
class PorContext {
public:
  /// \p EnvBudgeted must be true when the search runs under a finite
  /// per-channel environment budget (McOptions::EnvSendBudget != 0):
  /// sends on one channel then share that channel's counter, so two
  /// processes receiving from the same channel become dependent through
  /// it — the closure additionally pulls same-direction endpoints.
  explicit PorContext(const ModuleIR &Module, bool EnvBudgeted = false);

  /// Reorders \p Moves so a valid ample subset forms a prefix and
  /// returns the subset's size; returns Moves.size() when no eligible
  /// proper subset exists (full expansion). The partition is stable, so
  /// the result is deterministic for a deterministic move enumeration.
  size_t selectAmple(const Machine &M, std::vector<Move> &Moves) const;

private:
  /// Dependency closure seeded at process \p Seed over the current stop
  /// configuration; returns the closed process-set bitmask.
  uint64_t closure(const Machine &M, const int *Stop, unsigned Seed) const;

  /// C2 check: may applying \p Mv free heap objects or halt a process
  /// before its next stop?
  bool moveHeapUnsafe(const Move &Mv, const int *Stop) const;

  IndependenceInfo Info;
  uint64_t CliqueMask = 0;
  bool EnvBudgeted = false;
};

} // namespace mc_detail
} // namespace esp

#endif // ESP_MC_POR_H
