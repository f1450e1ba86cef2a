//===--- test_mc_por.cpp - Partial-order reduction differential tests ----------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// `--por` must never change a verdict, only the amount of work done to
// reach it. Every test here runs the same harness twice — full expansion
// and ample-set reduction — and checks verdict equality, counterexample
// replayability, and (for completed searches) that the reduced run
// stored no more states than the full one. Truncated searches explore
// different prefixes of the space and are deliberately not compared on
// counts.
//
//===----------------------------------------------------------------------===//

#include "mc/SafetyHarness.h"
#include "vmmc/EspFirmwareSource.h"
#include "TestHelpers.h"

using namespace esp;
using namespace esp::test;

namespace {

/// Runs \p H full and reduced and checks the differential contract.
void expectPorAgrees(const Harness &H, McOptions Mc, const char *Label) {
  McOptions FullMc = Mc;
  FullMc.Por = false;
  McResult Full = H.check(FullMc);
  McOptions PorMc = Mc;
  PorMc.Por = true;
  McResult Por = H.check(PorMc);
  EXPECT_EQ(Por.Verdict, Full.Verdict) << Label;
  // Stored-count comparisons only make sense when both searches ran to
  // completion; a truncated pair explores two different prefixes.
  if (Full.Verdict == McVerdict::OK && Por.Verdict == McVerdict::OK) {
    EXPECT_LE(Por.StatesStored, Full.StatesStored) << Label;
  }
  if (Por.Verdict == McVerdict::Violation) {
    EXPECT_TRUE(H.replay(PorMc, Por)) << Label << "\n" << Por.report();
  }
}

// With a single kept process every enabled move shares that process, so
// no proper ample subset exists and the reduced search must be
// bit-identical to the full goldens (see test_determinism.cpp).
TEST(McPor, SingleProcessHarnessBitIdentical) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  struct Golden {
    const char *Process;
    uint64_t Explored, Stored, Transitions;
  };
  static const Golden Goldens[] = {
      {"pageTable", 221, 45, 220},
      {"userReq", 745, 105, 744},
      {"deliver", 285, 29, 284},
  };
  for (const Golden &G : Goldens) {
    SafetyOptions Options;
    Options.Mc.Por = true;
    McResult Result = verifyProcessMemorySafety(*R.Prog, G.Process, Options);
    EXPECT_EQ(Result.Verdict, McVerdict::OK) << G.Process;
    EXPECT_EQ(Result.StatesExplored, G.Explored) << G.Process;
    EXPECT_EQ(Result.StatesStored, G.Stored) << G.Process;
    EXPECT_EQ(Result.Transitions, G.Transitions) << G.Process;
    EXPECT_EQ(Result.PorReducedStates, 0u) << G.Process;
  }
}

TEST(McPor, ExamplesPerProcessDifferential) {
  static const struct {
    const char *File;
    const char *Process;
  } Cases[] = {
      {"pagetable.esp", "translator"},     {"pagetable.esp", "pageTable"},
      {"quickstart.esp", "producer"},      {"quickstart.esp", "add5"},
      {"quickstart.esp", "consumer"},      {"sliding_window.esp", "sender"},
      {"sliding_window.esp", "wire"},      {"sliding_window.esp", "receiver"},
      {"sliding_window.esp", "sink"},
  };
  for (const auto &C : Cases) {
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    CompileResult R = compileBuffer(SM, Diags, C.File, readExample(C.File));
    ASSERT_TRUE(R.Success) << Diags.renderAll();
    Harness H = makeHarness(*R.Prog, {C.Process});
    expectPorAgrees(H, McOptions(),
                    (std::string(C.File) + " --process " + C.Process).c_str());
  }
}

TEST(McPor, ExamplesWholeSystemDifferential) {
  // All three shipped examples end in an expected terminal violation;
  // the reduced search must find one too, and its trace must replay.
  for (const char *File :
       {"pagetable.esp", "quickstart.esp", "sliding_window.esp"}) {
    auto C = compile(readExample(File));
    ASSERT_TRUE(C);
    McResult Full = checkModel(C->Module, McOptions());
    McOptions PorMc;
    PorMc.Por = true;
    McResult Por = checkModel(C->Module, PorMc);
    EXPECT_EQ(Por.Verdict, Full.Verdict) << File;
    EXPECT_EQ(Por.Verdict, McVerdict::Violation) << File;
    EXPECT_TRUE(replayTrace(C->Module, PorMc, Por)) << File;
  }
}

// The headline case: two channel-disjoint VMMC processes under a finite
// environment workload. The interleavings of pageTable's translations
// with deliver's RDMA transfers are independent, and the budgeted space
// is acyclic enough that the cycle proviso never bites, so the reduced
// search collapses the product. The bench row in BENCH_mc_modes.json
// records the same ratio at budget 4.
TEST(McPor, BudgetedClusterReductionAtLeastFiveX) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  SafetyOptions Options;
  Options.Mc.EnvSendBudget = 3;
  McResult Full = verifyProcessClusterMemorySafety(
      *R.Prog, {"pageTable", "deliver"}, Options);
  ASSERT_EQ(Full.Verdict, McVerdict::OK) << Full.report();
  Options.Mc.Por = true;
  McResult Por = verifyProcessClusterMemorySafety(
      *R.Prog, {"pageTable", "deliver"}, Options);
  ASSERT_EQ(Por.Verdict, McVerdict::OK) << Por.report();
  EXPECT_GT(Por.PorReducedStates, 0u);
  EXPECT_GE(Full.StatesStored, 5 * Por.StatesStored)
      << "full " << Full.StatesStored << " vs reduced " << Por.StatesStored;
}

// Exhausting the environment budget leaves every process blocked on
// input. That is the workload completing, not a deadlock: the verdict
// must stay OK.
TEST(McPor, BudgetQuiescenceIsNotDeadlock) {
  auto C = compile(R"(
channel req: int
process srv { while (true) { in(req, $x); } }
)");
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"srv"});
  for (bool Por : {false, true}) {
    McOptions Mc;
    Mc.EnvSendBudget = 2;
    Mc.Por = Por;
    McResult R = H.check(Mc);
    EXPECT_EQ(R.Verdict, McVerdict::OK)
        << (Por ? "por: " : "full: ") << R.report();
  }
}

// A counterexample replays under the budget it was searched with: a
// trace that needs budget + 1 environment sends on one channel is not a
// valid counterexample of the budgeted search.
TEST(McPor, ReplayTraceHonorsEnvBudget) {
  auto C = compile(R"(
channel req: int
process srv { in(req, $a); in(req, $b); assert(a + b > 5); }
)");
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"srv"});
  McOptions Mc; // Unbounded: the bug takes two sends on req.
  McResult R = H.check(Mc);
  ASSERT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  ASSERT_EQ(R.TraceMoves.size(), 2u) << R.report();
  for (const Move &Mv : R.TraceMoves)
    EXPECT_EQ(Mv.K, Move::Kind::EnvSend) << R.report();
  EXPECT_TRUE(H.replay(Mc, R));

  Mc.EnvSendBudget = 1;
  EXPECT_FALSE(H.replay(Mc, R)) << "second send exceeds the budget";
  Mc.EnvSendBudget = 2;
  EXPECT_TRUE(H.replay(Mc, R));
}

// Regression for the ample-set C1 condition under a budget: `steady`
// and `buggy` share no channels, so a reduction may defer `buggy`'s
// moves — but must not starve them. With a *global* send budget the two
// env inputs would be dependent through the shared counter and the
// ample seed could consume every unit before `buggy` ever ran, hiding
// the assertion failure; the per-channel budget keeps them independent
// and the reduced search must still reach the bug.
TEST(McPor, PartnerBugSurvivesReduction) {
  auto C = compile(R"(
channel reqA: int
channel reqB: int
process steady { while (true) { in(reqA, $x); } }
process buggy {
  $n = 0;
  while (true) { in(reqB, $x); n = n + x; assert(n < 2); }
}
)");
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"steady", "buggy"});
  McOptions Mc;
  Mc.EnvSendBudget = 2;
  expectPorAgrees(H, Mc, "partner bug, sequential");
  McOptions PorMc = Mc;
  PorMc.Por = true;
  McResult R = H.check(PorMc);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::AssertFailed);
}

// Offloading workers share the ample selector but use the conservative
// insert-failure proviso, so their reduced counts differ from the
// one-worker search's; verdicts may not.
TEST(ParallelMcPor, VerdictsMatchSequential) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();

  // Single-process: no ample subsets exist, counts stay the goldens.
  {
    SafetyOptions Options;
    Options.Mc.Por = true;
    Options.Mc.Jobs = 4;
    McResult Result = verifyProcessMemorySafety(*R.Prog, "pageTable", Options);
    EXPECT_EQ(Result.Verdict, McVerdict::OK) << Result.report();
    EXPECT_EQ(Result.StatesExplored, 221u);
    EXPECT_EQ(Result.StatesStored, 45u);
  }

  // Budgeted cluster: clean under full search, must stay clean reduced.
  {
    SafetyOptions Options;
    Options.Mc.EnvSendBudget = 3;
    Options.Mc.Por = true;
    Options.Mc.Jobs = 4;
    McResult Result = verifyProcessClusterMemorySafety(
        *R.Prog, {"pageTable", "deliver"}, Options);
    EXPECT_EQ(Result.Verdict, McVerdict::OK) << Result.report();
  }
}

TEST(ParallelMcPor, PartnerBugFoundWithJobs) {
  auto C = compile(R"(
channel reqA: int
channel reqB: int
process steady { while (true) { in(reqA, $x); } }
process buggy {
  $n = 0;
  while (true) { in(reqB, $x); n = n + x; assert(n < 2); }
}
)");
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"steady", "buggy"});
  McOptions Mc;
  Mc.EnvSendBudget = 2;
  Mc.Por = true;
  Mc.Jobs = 4;
  McResult R = H.check(Mc);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::AssertFailed);
  EXPECT_TRUE(H.replay(Mc, R)) << R.report();
}

} // namespace
