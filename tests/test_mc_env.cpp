//===--- test_mc_env.cpp - Environment-send enumeration tests ---------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The verifier's environment "sends every possible value" on the channels
// a harness drives (§5.3). The Machine lists those sends from a
// per-variant discriminant table and builds a value only to walk a
// reader pattern the discriminant does not decide, or to apply a send.
// These tests pin that the search is unchanged (counts measured with the
// build-every-variant enumeration), that builds stay rare, that they are
// counted, and that a full object table during a build is a violation,
// not a crash.
//
//===----------------------------------------------------------------------===//

#include "mc/SafetyHarness.h"
#include "vmmc/EspFirmwareSource.h"
#include "TestHelpers.h"

#include <atomic>

using namespace esp;
using namespace esp::test;

namespace {

/// Forwards to a wrapped model and counts makeVariant calls.
class CountingEnv : public EnvModel {
public:
  explicit CountingEnv(const EnvModel &Inner) : Inner(Inner) {}

  unsigned numVariants(const ChannelDecl *Chan) const override {
    return Inner.numVariants(Chan);
  }
  Value makeVariant(const ChannelDecl *Chan, unsigned Index,
                    Heap &H) const override {
    Builds.fetch_add(1, std::memory_order_relaxed);
    return Inner.makeVariant(Chan, Index, H);
  }

  uint64_t builds() const { return Builds.load(); }

private:
  const EnvModel &Inner;
  mutable std::atomic<uint64_t> Builds{0};
};

// A BoundedEnvModel build that runs out of objects half way frees what
// it allocated and returns Uninit; the checker reports the exhaustion as
// an OutOfObjects violation with a replayable trace instead of crashing.
TEST(McEnv, EnvAllocationFailureIsOutOfObjects) {
  auto C = compile(readExample("pagetable.esp"));
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"pageTable"});

  // userT is a union over a record: two objects per value.
  const ChannelDecl *UserReq = nullptr;
  for (const std::unique_ptr<ChannelDecl> &Chan : C->Prog->Channels)
    if (Chan->Name == "userReqC")
      UserReq = Chan.get();
  ASSERT_NE(UserReq, nullptr);
  Heap Small(/*MaxObjects=*/1);
  EXPECT_TRUE(H.Env->makeVariant(UserReq, 0, Small).isUninit());
  EXPECT_EQ(Small.getLiveCount(), 0u);
  Heap Roomy(/*MaxObjects=*/2);
  EXPECT_TRUE(H.Env->makeVariant(UserReq, 0, Roomy).isRef());

  for (uint32_t MaxObjects : {1u, 2u}) {
    for (unsigned Jobs : {1u, 4u}) {
      McOptions Mc;
      Mc.MaxObjects = MaxObjects;
      Mc.Jobs = Jobs;
      McResult R = H.check(Mc);
      std::string Label = "--max-objects " + std::to_string(MaxObjects) +
                          " --jobs " + std::to_string(Jobs);
      ASSERT_EQ(R.Verdict, McVerdict::Violation) << Label << R.report();
      EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::OutOfObjects) << Label;
      EXPECT_FALSE(R.Deadlock) << Label;
      EXPECT_TRUE(H.replay(Mc, R)) << Label << R.report();
    }
  }
}

// ExecStats::EnvBuilds counts every makeVariant call the search makes:
// McResult::EnvBuilds equals what a counting model saw.
TEST(McEnv, EnvBuildsMatchCountingModel) {
  auto C = compile(readExample("pagetable.esp"));
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"pageTable"});
  for (unsigned Jobs : {1u, 4u}) {
    CountingEnv Env(*H.Env);
    McOptions Mc;
    Mc.Env = &Env;
    Mc.Jobs = Jobs;
    McResult R = checkModel(H.Module, Mc);
    ASSERT_EQ(R.Verdict, McVerdict::OK) << R.report();
    EXPECT_EQ(R.StatesExplored, 325u);
    EXPECT_GT(R.EnvBuilds, 0u);
    EXPECT_EQ(R.EnvBuilds, Env.builds()) << "--jobs " << Jobs;
  }
  // Random simulation builds a machine per run; all are counted.
  CountingEnv Env(*H.Env);
  McOptions Mc;
  Mc.Env = &Env;
  Mc.Mode = SearchMode::Simulation;
  Mc.SimulationRuns = 20;
  Mc.SimulationDepth = 50;
  Mc.Jobs = 2;
  McResult R = checkModel(H.Module, Mc);
  EXPECT_GT(R.EnvBuilds, 0u);
  EXPECT_EQ(R.EnvBuilds, Env.builds());
}

// rxDemux reads netRxC, whose 9-int packet has 512 variants. Listing
// the sends must not build them per state: only the one-off table fill
// (per worker) and the applied sends remain.
TEST(McEnv, ProbeFreeEnumeration) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult CR =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(CR.Success) << Diags.renderAll();
  Harness H = makeHarness(*CR.Prog, {"rxDemux", "txWindow"});
  CountingEnv Env(*H.Env);
  McOptions Mc;
  Mc.Env = &Env;
  Mc.MaxStates = 2000;
  Mc.Jobs = 1;
  McResult R = checkModel(H.Module, Mc);
  ASSERT_EQ(R.Verdict, McVerdict::StateLimit) << R.report();
  EXPECT_EQ(R.StatesExplored, 2000u);
  EXPECT_LE(Env.builds(), 3 * R.StatesExplored)
      << Env.builds() << " builds for " << R.StatesExplored << " states";
}

// Every path through the environment-send loop: union arms in one alt
// (decided by the arm), a union nested in a record and a static field
// (walked), dynamic matches against process variables (walked), a
// guard-disabled case, and top-level binder and static-scalar patterns
// (decided).
const char *RefutableSource = R"(
type aT = record of { x: int }
type bT = record of { y: int, z: bool }
type msgT = union of { a: aT, b: bT }
type wrapT = record of { t: int, body: msgT }
channel uC: msgT
channel wC: wrapT
channel sC: record of { k: int, v: int }
channel dC: record of { id: int, v: int }
channel gC: int
channel kC: int
channel qC: record of { id: int, w: int }
channel doneC: int

process p {
  $n = 0;
  while (n < 2) {
    alt {
      case( in( uC, { a |> { $x1 } })) { n = n + x1; }
      case( in( uC, { b |> { $y, $z } })) { if (z) { n = n + y; } }
      case( in( wC, { $t, { a |> { $x2 } } })) { n = n + t + x2; }
      case( in( sC, { 1, $v1 })) { n = n + v1; }
      case( in( dC, { n, $v2 })) { n = n + 1 + v2; }
      case( n == 0, in( gC, $g)) { n = n + g; }
      case( in( kC, 1)) { n = n + 1; }
    }
  }
  out( doneC, n);
}

process q {
  $m = 0;
  while (true) {
    alt {
      case( in( qC, { m, $w })) { m = (m + w + 1) % 2; }
      case( in( doneC, $r)) { assert(r >= 2); }
    }
  }
}
)";

TEST(McEnv, RefutableReaderPatternsKeepCounts) {
  auto C = compile(RefutableSource);
  ASSERT_TRUE(C);

  // The compiled flags the loop dispatches on, in p's alt case order.
  {
    Harness H = makeHarness(*C->Prog, {"p"});
    Machine M(H.Module, MachineOptions());
    const CompiledProc &P = M.compiled().Procs[0];
    std::vector<bool> Decides;
    for (const CInst &I : P.Insts)
      if (I.Kind == InstKind::Block && I.Cases.size() == 7)
        for (const CCase &Case : I.Cases)
          Decides.push_back(Case.DiscDecides);
    EXPECT_EQ(Decides, (std::vector<bool>{true, true, false, false, false,
                                          true, true}));
  }

  struct Golden {
    std::vector<std::string> Names;
    uint64_t Explored, Stored, Transitions;
  };
  // Measured with the enumeration that built and walked every variant.
  const Golden Goldens[] = {
      {{"p"}, 6769, 2608, 6768},
      {{"p", "q"}, 59921, 13040, 59920},
  };
  for (const Golden &G : Goldens) {
    Harness H = makeHarness(*C->Prog, G.Names);
    std::string Label = G.Names.size() == 1 ? "p" : "p,q";
    McOptions Mc;
    Mc.Jobs = 1;
    McResult Seq = H.check(Mc);
    EXPECT_EQ(Seq.Verdict, McVerdict::OK) << Label << Seq.report();
    EXPECT_EQ(Seq.StatesExplored, G.Explored) << Label;
    EXPECT_EQ(Seq.StatesStored, G.Stored) << Label;
    EXPECT_EQ(Seq.Transitions, G.Transitions) << Label;

    McOptions ParMc = Mc;
    ParMc.Jobs = 4;
    McResult Par = H.check(ParMc);
    EXPECT_EQ(Par.Verdict, Seq.Verdict) << Label << Par.report();
    EXPECT_EQ(Par.StatesStored, Seq.StatesStored) << Label;

    McOptions PorMc = Mc;
    PorMc.Por = true;
    McResult Por = H.check(PorMc);
    EXPECT_EQ(Por.Verdict, Seq.Verdict) << Label << Por.report();
    EXPECT_LE(Por.StatesStored, Seq.StatesStored) << Label;
  }
}

// Machine::isDeadlocked is the one deadlock predicate: the search and
// replayTrace both apply it to the moves they enumerated. A harness whose
// finite environment budget is spent is quiescent for both; blocked
// processes with no partner are a deadlock for both.
TEST(McEnv, SpentEnvBudgetIsNotADeadlock) {
  auto C = compile(R"(
channel reqC: int
interface Req(out reqC) { Post( $v ) }
process p { while (true) { in(reqC, $v); } }
)");
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"p"});
  MachineOptions Opts;
  Opts.DeepCopyTransfers = true;
  Opts.EnvSendBudget = 1;
  Machine M(H.Module, Opts);
  M.setEnvModel(H.Env.get());
  M.start();
  std::vector<Move> Moves = M.enumerateMoves();
  ASSERT_FALSE(Moves.empty());
  EXPECT_FALSE(M.isDeadlocked(Moves));
  M.applyMove(Moves[0]);
  Moves = M.enumerateMoves();
  EXPECT_TRUE(Moves.empty());
  EXPECT_FALSE(M.isDeadlocked(Moves)); // Budget spent, not deadlocked.

  McOptions Mc;
  Mc.EnvSendBudget = 1;
  McResult R = H.check(Mc);
  EXPECT_EQ(R.Verdict, McVerdict::OK) << R.report();

  auto Cycle = compile(R"(
channel x: int
channel y: int
process a { in(x, $v); out(y, 1); }
process b { in(y, $v); out(x, 1); }
)");
  ASSERT_TRUE(Cycle);
  Machine D(Cycle->Module, Opts);
  D.start();
  EXPECT_TRUE(D.isDeadlocked(D.enumerateMoves()));
  for (unsigned Jobs : {1u, 4u}) {
    Mc.Jobs = Jobs;
    McResult Dead = checkModel(Cycle->Module, Mc);
    ASSERT_EQ(Dead.Verdict, McVerdict::Violation) << Dead.report();
    EXPECT_TRUE(Dead.Deadlock);
    EXPECT_TRUE(replayTrace(Cycle->Module, Mc, Dead));
  }
}

} // namespace
