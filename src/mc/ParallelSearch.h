//===--- ParallelSearch.h - The model checker's search engine ---*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one search engine behind checkModel and `espmc --jobs N` (SPIN's
/// DFS plus its multicore and swarm modes). N >= 1 workers each own a
/// private Machine built from the shared read-only ModuleIR and explore
/// subtrees handed out as (checkpoint snapshot, move-prefix) work items
/// — the representation the snapshot-stride replay already produces —
/// with work-stealing when a worker's local stack drains. Visited states
/// go into the sharded backends of StateStore.h, whose fingerprints do
/// not depend on the worker count, so a completed exhaustive search
/// reports the identical verdict and identical StatesStored /
/// StatesExplored / Transitions at any N.
///
/// With one worker there is no one to hand work to, so the worker never
/// offloads: its stack is the whole search, it publishes its DFS depth
/// as the progress frontier, and under --por it applies the on-stack
/// cycle proviso (upgrade the back edge's target). Offloading workers
/// cannot see each other's stacks and upgrade the source frame of every
/// failed insert instead, which keeps --por sound but gives up most of
/// its reduction at N >= 2.
///
/// Three modes:
///  * exhaustive/bit-state: one cooperative search over a shared
///    visited set; the first violation wins, ties broken
///    deterministically by DFS order (lexicographically smallest
///    move-index path among the candidates found before the stop
///    propagates);
///  * swarm (bit-state, N >= 2): independent full searches per worker
///    with distinct hash seeds and randomized move order; coverage is
///    the union of the workers';
///  * simulation: runs partitioned across workers, per-run seeds
///    derived from McOptions::Seed, so every run takes the same walk at
///    any N.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_MC_PARALLELSEARCH_H
#define ESP_MC_PARALLELSEARCH_H

#include "mc/ModelChecker.h"

namespace esp {
namespace mc_detail {

/// Machine configuration for verification mode: deep-copy transfers
/// (the paper's semantic model) over a bounded object table, with the
/// environment's per-channel send budget.
MachineOptions verifyMachineOptions(const McOptions &Options);

/// Runs the search with \p Jobs >= 1 workers. Called by checkModel(),
/// which resolves McOptions::Jobs == 0 to the hardware concurrency.
McResult runSearch(const ModuleIR &Module, const McOptions &Options,
                   unsigned Jobs);

} // namespace mc_detail
} // namespace esp

#endif // ESP_MC_PARALLELSEARCH_H
