//===--- SafetyHarness.h - Per-process memory-safety verification -*- C++ -*-=//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's per-process memory-safety verification (§4.4/§5.3): since
/// channel transfer is semantically a deep copy, processes share no
/// objects and memory safety is a *local* property — each process can be
/// verified separately against a nondeterministic environment that sends
/// every possible value (over bounded scalar domains) on the channels the
/// process reads and accepts everything the process writes.
///
/// BoundedEnvModel enumerates the value space of a channel's element type
/// with a mixed-radix encoding: ints range over a small domain, bools
/// over both values, records/unions/arrays over the product/sum/power of
/// their component spaces.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_MC_SAFETYHARNESS_H
#define ESP_MC_SAFETYHARNESS_H

#include "mc/ModelChecker.h"

#include <set>
#include <string>
#include <vector>

namespace esp {

/// Environment that sends all values of a bounded domain on the driven
/// channels. Used standalone in tests and by verifyProcessMemorySafety.
class BoundedEnvModel : public EnvModel {
public:
  BoundedEnvModel(std::set<std::string> DrivenChannels,
                  std::vector<int64_t> IntDomain = {0, 1},
                  unsigned ArrayLen = 1)
      : Driven(std::move(DrivenChannels)), IntDomain(std::move(IntDomain)),
        ArrayLen(ArrayLen) {}

  unsigned numVariants(const ChannelDecl *Chan) const override;
  Value makeVariant(const ChannelDecl *Chan, unsigned Index,
                    Heap &H) const override;

  /// Size of the value space of \p T under this domain (saturates at
  /// 1<<20 to keep enumeration sane).
  uint64_t countVariants(const Type *T) const;

private:
  /// Uninit, with nothing left allocated, when \p H is full.
  Value buildVariant(const Type *T, uint64_t Index, Heap &H) const;

  std::set<std::string> Driven;
  std::vector<int64_t> IntDomain;
  unsigned ArrayLen;
};

struct SafetyOptions {
  std::vector<int64_t> IntDomain = {0, 1};
  unsigned ArrayLen = 1;
  McOptions Mc;
};

/// Verifies the memory safety of one process in isolation (§5.3). The
/// environment drives every channel the process receives from and
/// consumes everything it sends. Returns the model-checking result;
/// a Violation verdict means a memory bug (or assertion failure) was
/// found, with a counterexample trace.
McResult verifyProcessMemorySafety(const Program &Prog,
                                   const std::string &ProcessName,
                                   const SafetyOptions &Options);

/// Verifies a *cluster* of processes together (`espmc --process a,b`):
/// the named processes run concurrently, channels between them
/// rendezvous for real, and the environment drives exactly the channels
/// some kept process receives from that no kept process writes. With
/// more than one process the interleaving space grows multiplicatively,
/// which is what `--por` is for. A single-name cluster differs from
/// verifyProcessMemorySafety only when the process writes a channel it
/// also reads (the cluster keeps such a channel internal).
McResult verifyProcessClusterMemorySafety(
    const Program &Prog, const std::vector<std::string> &ProcessNames,
    const SafetyOptions &Options);

} // namespace esp

#endif // ESP_MC_SAFETYHARNESS_H
