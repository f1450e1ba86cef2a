//===--- mc.cpp - mc_vmmc: §5.3 cluster safety search over VMMC -----------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Five model-checking phases over the VMMC firmware, each run through
/// checkModel on the isolated cluster module verifyProcessClusterMemory-
/// Safety builds, with the environment wrapped in MeteredEnv (counts
/// makeVariant calls; the traced run also times them). No simulator, no
/// random input. The traced run adds a seeded probe walk that times each
/// public Machine call, the visited-set insert and the ample-set
/// selection one by one.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "analysis/Independence.h"
#include "driver/Driver.h"
#include "mc/ModelChecker.h"
#include "mc/Por.h"
#include "mc/SafetyHarness.h"
#include "mc/StateStore.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "vmmc/EspFirmwareSource.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>

using namespace esp;
using namespace espbench;

namespace {

const std::vector<std::string> kWideCluster = {"pageTable", "deliver"};
const std::vector<std::string> kDeepCluster = {"rxDemux", "txWindow"};

// Full-search goldens of pageTable+deliver at --env-budget 4.
constexpr uint64_t kFullExplored = 697'273;
constexpr uint64_t kFullStored = 63'393;
// Sequential --por at --env-budget 32.
constexpr uint64_t kPorSeqExplored = 278'889;
constexpr uint64_t kPorSeqStored = 47'489;

struct Phase {
  const char *Name;
  bool Deep;         ///< rxDemux+txWindow instead of pageTable+deliver.
  uint32_t Budget;   ///< --env-budget (0 = unbudgeted).
  unsigned Jobs;
  bool Por;
  uint64_t MaxStates;
};

const Phase kPhases[] = {
    {"full_seq", false, 4, 1, false, 10'000'000},
    {"full_par", false, 4, 3, false, 10'000'000},
    {"por_seq", false, 32, 1, true, 10'000'000},
    {"por_par", false, 4, 3, true, 10'000'000},
    {"deep", true, 0, 1, false, 50'000},
};

/// The isolated cluster module and its environment, built exactly as
/// verifyProcessClusterMemorySafety builds them.
struct Harness {
  ModuleIR Module;
  std::unique_ptr<BoundedEnvModel> Env;
};

Harness isolate(const Program &Prog, const std::vector<std::string> &Names) {
  ModuleIR Full = lowerProgram(Prog);
  Harness H;
  H.Module.Prog = Full.Prog;
  for (ProcIR &P : Full.Procs)
    if (std::find(Names.begin(), Names.end(), P.Proc->Name) != Names.end())
      H.Module.Procs.push_back(std::move(P));
  std::set<std::string> Read, Written;
  for (const ProcIR &P : H.Module.Procs)
    for (const Inst &I : P.Insts) {
      if (I.Kind != InstKind::Block)
        continue;
      for (const IRCase &Case : I.Cases)
        (Case.IsIn ? Read : Written).insert(Case.Channel->Name);
    }
  std::set<std::string> Driven;
  for (const std::string &Name : Read)
    if (!Written.count(Name))
      Driven.insert(Name);
  H.Env = std::make_unique<BoundedEnvModel>(Driven);
  return H;
}

struct McSetup {
  SourceManager SM;
  DiagnosticEngine Diags{SM};
  CompileResult CR;
  Harness Wide, Deep;
};

/// Environment decorator: forwards to the wrapped model and counts
/// makeVariant calls (timing them too when asked). Counts go to one
/// cache line per thread, written only by that thread, so the untimed
/// wrapper adds no shared-memory traffic to the parallel search.
class MeteredEnv : public EnvModel {
public:
  MeteredEnv(const EnvModel &Inner, bool Timed) : Inner(Inner), Timed(Timed) {}

  unsigned numVariants(const ChannelDecl *Chan) const override {
    return Inner.numVariants(Chan);
  }
  Value makeVariant(const ChannelDecl *Chan, unsigned Index,
                    Heap &H) const override {
    Cell &C = Cells[threadSlot() % kCells];
    C.Builds.store(C.Builds.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    if (!Timed)
      return Inner.makeVariant(Chan, Index, H);
    Clock::time_point T0 = Clock::now();
    Value V = Inner.makeVariant(Chan, Index, H);
    C.Ns.store(C.Ns.load(std::memory_order_relaxed) +
                   nsBetween(T0, Clock::now()),
               std::memory_order_relaxed);
    return V;
  }

  /// Totals; read after the search returned (its workers are joined).
  uint64_t builds() const { return sum(&Cell::Builds); }
  uint64_t buildNs() const { return sum(&Cell::Ns); }

private:
  static constexpr unsigned kCells = 64;
  struct alignas(64) Cell {
    std::atomic<uint64_t> Builds{0};
    std::atomic<uint64_t> Ns{0};
  };

  static unsigned threadSlot() {
    static std::atomic<unsigned> Next{0};
    thread_local unsigned Slot = Next.fetch_add(1);
    return Slot;
  }
  uint64_t sum(std::atomic<uint64_t> Cell::*Field) const {
    uint64_t Total = 0;
    for (const Cell &C : Cells)
      Total += (C.*Field).load(std::memory_order_relaxed);
    return Total;
  }

  const EnvModel &Inner;
  bool Timed;
  mutable Cell Cells[kCells];
};

struct PhaseRun {
  McResult Res;
  double Seconds = 0;
  uint64_t EnvBuilds = 0;
  uint64_t EnvBuildNs = 0;
};

PhaseRun runPhase(const Phase &P, McSetup &M, bool Timed, Spans &S) {
  Harness &H = P.Deep ? M.Deep : M.Wide;
  MeteredEnv Env(*H.Env, Timed);
  McOptions Mc;
  Mc.MaxStates = P.MaxStates;
  Mc.EnvSendBudget = P.Budget;
  Mc.Jobs = P.Jobs;
  Mc.Por = P.Por;
  Mc.Env = &Env;
  PhaseRun Out;
  Spans::Scope Span(S, std::string("mc.checkModel ") + P.Name);
  Clock::time_point T0 = Clock::now();
  Out.Res = checkModel(H.Module, Mc);
  Out.Seconds = secondsSince(T0);
  Out.EnvBuilds = Env.builds();
  Out.EnvBuildNs = Env.buildNs();
  return Out;
}

void checkPhase(const Phase &P, const McResult &Res, Report &R) {
  std::string Name = P.Name;
  bool Ok = !Res.foundViolation();
  if (Name == "full_seq" || Name == "full_par")
    Ok = Ok && Res.Verdict == McVerdict::OK &&
         Res.StatesExplored == kFullExplored && Res.StatesStored == kFullStored;
  else if (Name == "por_seq")
    Ok = Ok && Res.Verdict == McVerdict::OK &&
         Res.StatesExplored == kPorSeqExplored &&
         Res.StatesStored == kPorSeqStored;
  else if (Name == "por_par") // Its count varies run to run.
    Ok = Ok && Res.Verdict == McVerdict::OK && Res.StatesStored <= kFullStored;
  R.check(Ok, "mc " + Name + ": " + std::to_string(Res.StatesExplored) +
                  " explored / " + std::to_string(Res.StatesStored) +
                  " stored");
}

std::unique_ptr<McSetup> setUp(Report &R, Spans &S) {
  auto M = std::make_unique<McSetup>();
  {
    Spans::Scope Span(S, "driver.compile");
    M->CR = compileBuffer(M->SM, M->Diags, "vmmc.esp",
                          vmmc::getVmmcEspSource());
  }
  R.check(M->CR.Success, "compile VMMC firmware");
  if (!M->CR.Success)
    return nullptr;
  Spans::Scope Span(S, "mc.isolate");
  M->Wide = isolate(*M->CR.Prog, kWideCluster);
  M->Deep = isolate(*M->CR.Prog, kDeepCluster);
  return M;
}

bool sameSearch(const McResult &A, const McResult &B) {
  return A.Verdict == B.Verdict && A.StatesExplored == B.StatesExplored &&
         A.StatesStored == B.StatesStored && A.Transitions == B.Transitions &&
         A.MaxDepthReached == B.MaxDepthReached;
}

/// The counter-only wrapper must not change the search: checkModel with
/// MeteredEnv equals verifyProcessClusterMemorySafety's own run.
void selfTest(McSetup &M, Report &R, Spans &S) {
  Spans::Scope Span(S, "selftest");
  struct Case {
    bool Deep;
    uint32_t Budget;
    uint64_t MaxStates;
  };
  for (const Case &C : {Case{false, 3, 10'000'000}, Case{true, 0, 5'000}}) {
    SafetyOptions SO;
    SO.Mc.EnvSendBudget = C.Budget;
    SO.Mc.MaxStates = C.MaxStates;
    McResult Plain = verifyProcessClusterMemorySafety(
        *M.CR.Prog, C.Deep ? kDeepCluster : kWideCluster, SO);
    Harness &H = C.Deep ? M.Deep : M.Wide;
    MeteredEnv Env(*H.Env, false);
    McOptions Mc = SO.Mc;
    Mc.Env = &Env;
    McResult Wrapped = checkModel(H.Module, Mc);
    R.check(sameSearch(Plain, Wrapped) && Env.builds() > 0,
            std::string("selftest: metered search differs on ") +
                (C.Deep ? "rxDemux+txWindow" : "pageTable+deliver"));
  }
}

/// Mean cost of each public Machine call along a seeded random walk
/// (with backtracking) over a harness module, plus the visited-set
/// insert and the ample-set selection the engines make per state.
struct Probe {
  enum { Enumerate, Apply, Serialize, Snapshot, Restore, Insert, Ample, N };
  uint64_t Calls[N] = {};
  uint64_t Ns[N] = {};

  template <typename F> void time(int K, F &&Fn) {
    Clock::time_point T0 = Clock::now();
    Fn();
    Ns[K] += nsBetween(T0, Clock::now());
    ++Calls[K];
  }
  double meanNs(int K) const { return Calls[K] ? double(Ns[K]) / Calls[K] : 0; }
};

void probeWalk(const Harness &H, uint64_t Seed, unsigned Steps, Probe &P) {
  MachineOptions MO;
  MO.MaxObjects = McOptions().MaxObjects;
  MO.ReuseObjectIds = true;
  MO.DeepCopyTransfers = true;
  Machine M(H.Module, MO);
  M.setEnvModel(H.Env.get());
  M.start();
  const Machine::Snapshot Root = M.snapshot();
  mc_detail::PorContext Por(H.Module);
  VisitedSet Visited = VisitedSet::hashCompact(/*Wide=*/false);
  std::string Buf;
  uint64_t Rng = Seed;
  auto Next = [&Rng] { // splitmix64
    uint64_t Z = (Rng += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  };
  Machine::Snapshot Here;
  std::vector<Move> Moves, Ample;
  for (unsigned I = 0; I != Steps; ++I) {
    P.time(Probe::Snapshot, [&] { Here = M.snapshot(); });
    P.time(Probe::Enumerate, [&] { Moves = M.enumerateMoves(); });
    P.time(Probe::Serialize, [&] { M.serializeState(Buf); });
    P.time(Probe::Insert, [&] { Visited.insert(Buf); });
    if (Moves.empty() || M.error()) {
      P.time(Probe::Restore, [&] { M.restore(Root); });
      continue;
    }
    Ample = Moves;
    P.time(Probe::Ample, [&] { Por.selectAmple(M, Ample); });
    const Move &Mv = Moves[Next() % Moves.size()];
    P.time(Probe::Apply, [&] { M.applyMove(Mv); });
    if (M.error())
      P.time(Probe::Restore, [&] { M.restore(Root); });
    else if (Next() % 8 == 0) // Backtrack one step now and then.
      P.time(Probe::Restore, [&] { M.restore(Here); });
  }
}

void traced(const BenchOptions &Opt, McSetup &M, Report &R, Spans &S) {
  selfTest(M, R, S);

  double PlainSum = 0, TracedSum = 0;
  uint64_t FullStored = 0, PorParStored = 0;
  for (const Phase &P : kPhases) {
    PhaseRun Plain = runPhase(P, M, false, S);
    PhaseRun Traced = runPhase(P, M, true, S);
    checkPhase(P, Plain.Res, R);
    checkPhase(P, Traced.Res, R);
    PlainSum += Plain.Seconds;
    TracedSum += Traced.Seconds;

    const McResult &Res = Traced.Res;
    std::string Pre = std::string("mc.") + P.Name + ".";
    double Explored = double(Res.StatesExplored);
    R.metric(Pre + "explored", Explored, "states");
    R.metric(Pre + "stored", double(Res.StatesStored), "states");
    R.metric(Pre + "stored_per_explored", Res.StatesStored / Explored, "ratio");
    R.metric(Pre + "replayed_per_transition",
             double(Res.ReplayedMoves) / double(Res.Transitions), "ratio");
    R.metric(Pre + "env_builds_per_explored", Traced.EnvBuilds / Explored,
             "ratio");
    R.metric(Pre + "env_build_ms", Traced.EnvBuildNs / 1e6, "ms");
    R.metric(Pre + "visited_bytes_per_state",
             double(Res.MemoryBytes) / double(Res.StatesStored), "B");
    S.counter(Pre + "env_builds", static_cast<int64_t>(Traced.EnvBuilds));
    if (P.Jobs > 1) {
      auto [Min, Max] = std::minmax_element(Res.WorkerExplored.begin(),
                                            Res.WorkerExplored.end());
      R.metric(Pre + "worker_explored_max_over_min",
               double(*Max) / double(std::max<uint64_t>(*Min, 1)), "ratio");
      R.metric(Pre + "shared_work_items", double(Res.SharedWorkItems),
               "items");
    }
    if (P.Por)
      R.metric(Pre + "por_reduced_frac",
               double(Res.PorReducedStates) /
                   double(Res.PorReducedStates + Res.PorFullStates),
               "frac");
    // The sequential proviso never fires on the acyclic budgeted search.
    if (P.Por && P.Jobs > 1)
      R.metric(Pre + "por_proviso_upgrades", double(Res.PorProvisoUpgrades),
               "count");
    if (std::string(P.Name) == "full_seq")
      FullStored = Res.StatesStored;
    if (std::string(P.Name) == "por_par")
      PorParStored = Res.StatesStored;
  }
  R.metric("obs.trace_overhead_frac", TracedSum / PlainSum - 1, "frac");

  // Sequential --por at the full search's budget: the reduction the
  // parallel proviso gives up.
  Phase PorSeq4{"por_seq_budget4", false, 4, 1, true, 10'000'000};
  PhaseRun Seq4 = runPhase(PorSeq4, M, false, S);
  R.check(Seq4.Res.Verdict == McVerdict::OK, "mc por_seq_budget4 verdict");
  R.metric("mc.por_stored_ratio_seq",
           double(FullStored) / double(Seq4.Res.StatesStored), "ratio");
  R.metric("mc.por_stored_ratio_par",
           double(FullStored) / double(PorParStored), "ratio");

  std::vector<double> IndepMs;
  for (int I = 0; I != 5; ++I) {
    Spans::Scope Span(S, "analysis.buildIndependence");
    Clock::time_point T0 = Clock::now();
    IndependenceInfo Info = buildIndependence(M.Wide.Module);
    IndepMs.push_back(nsBetween(T0, Clock::now()) / 1e6);
  }
  R.metric("analysis.independence_ms", median(IndepMs), "ms");

  Probe P;
  {
    Spans::Scope Span(S, "runtime.probeWalk");
    probeWalk(M.Wide, Opt.Seed, 20'000, P);
    probeWalk(M.Deep, Opt.Seed + 1, 20'000, P);
  }
  R.metric("runtime.enumerate_ns", P.meanNs(Probe::Enumerate), "ns");
  R.metric("runtime.apply_move_ns", P.meanNs(Probe::Apply), "ns");
  R.metric("runtime.serialize_ns", P.meanNs(Probe::Serialize), "ns");
  R.metric("runtime.snapshot_ns", P.meanNs(Probe::Snapshot), "ns");
  R.metric("runtime.restore_ns", P.meanNs(Probe::Restore), "ns");
  R.metric("mc.visited_insert_ns", P.meanNs(Probe::Insert), "ns");
  R.metric("mc.select_ample_ns", P.meanNs(Probe::Ample), "ns");
}

} // namespace

void espbench::runMc(const BenchOptions &Opt, Report &R, Spans &S) {
  // Set up several times; the median is the set-up cost.
  std::vector<double> Setup;
  std::unique_ptr<McSetup> M;
  for (int I = 0; I != 9; ++I) {
    Clock::time_point T0 = Clock::now();
    M = setUp(R, S);
    Setup.push_back(secondsSince(T0));
    if (!M)
      return;
  }
  if (Opt.Trace) {
    traced(Opt, *M, R, S);
    return;
  }
  std::vector<std::vector<double>> Times(std::size(kPhases));
  repeatPasses(Opt, R, [&] {
    for (size_t I = 0; I != std::size(kPhases); ++I) {
      PhaseRun Run = runPhase(kPhases[I], *M, false, S);
      checkPhase(kPhases[I], Run.Res, R);
      Times[I].push_back(Run.Seconds);
    }
  });
  R.metric("setup_s", median(Setup), "s");
  for (size_t I = 0; I != std::size(kPhases); ++I)
    R.metric(std::string("mc_") + kPhases[I].Name + "_s", median(Times[I]),
             "s");
}
