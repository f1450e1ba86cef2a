//===--- fw.cpp - fw_vmmc: Fig. 5 on the simulated two-node NIC -----------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vmmcESP on both NICs of the simulated two-node system: pingpong at
/// 4 B and 4 KB (Fig. 5(a)) and a 64 KB one-way stream with 8 messages
/// outstanding (Fig. 5(b)). No model checker, no threads, no random
/// input. Every firmware instance is wrapped in MeteredFirmware, which
/// counts quanta, charged cycles and interpreted instructions around
/// runQuantum, and in the traced run also times it.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "driver/Driver.h"
#include "ir/Passes.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "vmmc/EspFirmware.h"
#include "vmmc/EspFirmwareSource.h"
#include "vmmc/Workloads.h"

#include <memory>

using namespace esp;
using namespace espbench;

namespace {

constexpr unsigned kPingIters = 2000;     // Round trips per timed chunk.
constexpr unsigned kOrigPingIters = 20000;
constexpr unsigned kStdPingIters = 32;    // runPingpong's default.
constexpr uint32_t kStreamBytes = 64 * 1024;
constexpr unsigned kStreamMsgs = 64;      // runOneWay's default.
constexpr unsigned kStreamDepth = 8;
constexpr unsigned kQuantumSpans = 4000;  // Per-quantum spans kept.

struct FwCounters {
  uint64_t BuildNs = 0;
  uint64_t Quanta = 0;
  uint64_t QuantumNs = 0;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
};

/// Firmware decorator: forwards to the wrapped firmware and counts what
/// each quantum did. Timing (and per-quantum spans) only when asked.
class MeteredFirmware : public sim::Firmware {
public:
  MeteredFirmware(std::unique_ptr<sim::Firmware> Inner, FwCounters &C,
                  bool Timed, Spans *S)
      : Inner(std::move(Inner)), C(C), Timed(Timed), S(S),
        Esp(dynamic_cast<vmmc::EspFirmware *>(this->Inner.get())) {}

  void runQuantum(sim::NicEnv &Env) override {
    uint64_t Cycles0 = Env.charged();
    uint64_t Instr0 = Esp ? Esp->machine().stats().Instructions : 0;
    bool Span = S && C.Quanta < kQuantumSpans;
    if (Span)
      S->begin("sim.runQuantum");
    if (Timed) {
      Clock::time_point T0 = Clock::now();
      Inner->runQuantum(Env);
      C.QuantumNs += nsBetween(T0, Clock::now());
    } else {
      Inner->runQuantum(Env);
    }
    if (Span)
      S->end();
    ++C.Quanta;
    C.Cycles += Env.charged() - Cycles0;
    if (Esp)
      C.Instructions += Esp->machine().stats().Instructions - Instr0;
  }
  const char *name() const override { return Inner->name(); }
  sim::SimTime repollAt() const override { return Inner->repollAt(); }

private:
  std::unique_ptr<sim::Firmware> Inner;
  FwCounters &C;
  bool Timed;
  Spans *S;
  vmmc::EspFirmware *Esp;
};

vmmc::FirmwareFactory metered(vmmc::FirmwareKind Kind, FwCounters &C,
                              bool Timed = false, Spans *S = nullptr) {
  return [Kind, &C, Timed, S]() -> std::unique_ptr<sim::Firmware> {
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<sim::Firmware> FW = vmmc::makeFirmware(Kind);
    C.BuildNs += nsBetween(T0, Clock::now());
    return std::make_unique<MeteredFirmware>(std::move(FW), C, Timed, S);
  };
}

sim::HostReq makeSend(int Dest, uint32_t Bytes, uint64_t Token) {
  sim::HostReq Req;
  Req.K = sim::HostReq::Kind::Send;
  Req.Dest = Dest;
  Req.VAddr = 0x10000;
  Req.Size = Bytes;
  Req.Token = Token;
  return Req;
}

/// Fig. 5(b) one-way stream over a firmware factory: vmmc::runOneWay's
/// protocol (which only takes a FirmwareKind), driven through the public
/// simulator API. The self-test pins the two to identical results.
vmmc::WorkloadResult runStream(const vmmc::FirmwareFactory &Factory,
                               uint32_t MsgBytes, unsigned NumMessages,
                               unsigned Depth) {
  sim::Simulator Sim(2);
  for (unsigned Node = 0; Node != 2; ++Node) {
    Sim.nic(Node).setFirmware(Factory());
    Sim.nic(Node).startTimer();
  }
  uint64_t NextToken = 1;
  unsigned Posted = 0;
  unsigned Received = 0;
  auto PostMore = [&] {
    while (Posted - Received < Depth && Posted < NumMessages) {
      Sim.nic(0).postRequest(makeSend(1, MsgBytes, NextToken++));
      ++Posted;
    }
  };
  Sim.nic(1).OnRecv = [&](const sim::RecvNotification &) {
    ++Received;
    PostMore();
  };
  PostMore();
  bool Done = Sim.runUntil([&] { return Received >= NumMessages; },
                           1'000'000'000'000ULL);

  vmmc::WorkloadResult Result;
  Result.Completed = Done;
  Result.MessagesDelivered = Received;
  if (Done && Received > 1)
    Result.BandwidthMBs = (static_cast<double>(Received) * MsgBytes) / 1e6 /
                          (Sim.now() / 1e9);
  Result.PacketsSent = Sim.nic(0).PacketsSent + Sim.nic(1).PacketsSent;
  Result.FirmwareCyclesNode0 = Sim.nic(0).TotalCycles;
  return Result;
}

/// One timed call: host time per unit (round trip or message) with the
/// firmware construction inside the call taken out.
struct Chunk {
  vmmc::WorkloadResult W;
  FwCounters C;
  double HostUs = 0;
  double HostNs = 0;
};

Chunk pingpong(vmmc::FirmwareKind Kind, uint32_t Bytes, unsigned Iters,
               bool Timed, Report &R, Spans &S, bool QuantumSpans = false) {
  Chunk Out;
  Spans::Scope Span(S, "vmmc.runPingpongWith " + std::to_string(Bytes) + "B");
  Clock::time_point T0 = Clock::now();
  Out.W = vmmc::runPingpongWith(
      metered(Kind, Out.C, Timed, QuantumSpans ? &S : nullptr), Bytes, Iters);
  Out.HostNs = double(nsBetween(T0, Clock::now()) - Out.C.BuildNs);
  Out.HostUs = Out.HostNs / 1e3 / (Iters + 4); // + runPingpong's warmup.
  R.check(Out.W.Completed && Out.W.MessagesDelivered == 2 * (Iters + 4),
          std::string(vmmc::firmwareKindName(Kind)) + " pingpong " +
              std::to_string(Bytes) + "B delivered " +
              std::to_string(Out.W.MessagesDelivered));
  return Out;
}

Chunk stream(unsigned Msgs, bool Timed, Report &R, Spans &S) {
  Chunk Out;
  Spans::Scope Span(S, "vmmc.stream 64KB");
  Clock::time_point T0 = Clock::now();
  Out.W = runStream(metered(vmmc::FirmwareKind::Esp, Out.C, Timed),
                    kStreamBytes, Msgs, kStreamDepth);
  Out.HostNs = double(nsBetween(T0, Clock::now()) - Out.C.BuildNs);
  Out.HostUs = Out.HostNs / 1e3 / Msgs;
  R.check(Out.W.Completed && Out.W.MessagesDelivered == Msgs,
          "vmmcESP stream 64KB delivered " +
              std::to_string(Out.W.MessagesDelivered));
  return Out;
}

bool sameResult(const vmmc::WorkloadResult &A, const vmmc::WorkloadResult &B) {
  return A.Completed == B.Completed && A.OneWayLatencyUs == B.OneWayLatencyUs &&
         A.BandwidthMBs == B.BandwidthMBs &&
         A.MessagesDelivered == B.MessagesDelivered &&
         A.PacketsSent == B.PacketsSent &&
         A.FirmwareCyclesNode0 == B.FirmwareCyclesNode0;
}

/// The counter-only wrapper must not change what is simulated: metered
/// runs equal the plain library calls, field for field.
void selfTest(Report &R, Spans &S) {
  Spans::Scope Span(S, "selftest");
  FwCounters C;
  for (uint32_t Bytes : {4u, 4096u}) {
    vmmc::WorkloadResult Plain =
        vmmc::runPingpong(vmmc::FirmwareKind::Esp, Bytes, kStdPingIters);
    vmmc::WorkloadResult Wrapped = vmmc::runPingpongWith(
        metered(vmmc::FirmwareKind::Esp, C), Bytes, kStdPingIters);
    R.check(sameResult(Plain, Wrapped),
            "selftest: metered pingpong " + std::to_string(Bytes) +
                "B differs from runPingpong");
  }
  vmmc::WorkloadResult Plain = vmmc::runOneWay(
      vmmc::FirmwareKind::Esp, kStreamBytes, kStreamMsgs, kStreamDepth);
  vmmc::WorkloadResult Wrapped =
      runStream(metered(vmmc::FirmwareKind::Esp, C), kStreamBytes,
                kStreamMsgs, kStreamDepth);
  R.check(sameResult(Plain, Wrapped),
          "selftest: metered 64KB stream differs from runOneWay");
}

/// Frontend and IR layers over the VMMC firmware source: esp::compile's
/// own stage split (its metrics registry, filled when obs is enabled),
/// then lowerProgram and optimizeModule timed from here.
void compileLayers(Report &R, Spans &S) {
  constexpr int kReps = 15;
  std::vector<double> CompileMs, ParseMs, SemaMs, LowerMs, OptMs;
  size_t InstsUnopt = 0, InstsOpt = 0;
  for (int Rep = 0; Rep != kReps; ++Rep) {
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    CompileOptions CO;
    CO.Optimize = true;
    obs::setEnabled(true);
    CompileResult CR;
    {
      Spans::Scope Span(S, "driver.compile");
      Clock::time_point T0 = Clock::now();
      CR = compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource(), CO);
      CompileMs.push_back(nsBetween(T0, Clock::now()) / 1e6);
    }
    obs::setEnabled(false);
    R.check(CR.Success && CR.Metrics, "compile VMMC firmware");
    if (!CR.Success || !CR.Metrics)
      return;
    ParseMs.push_back(CR.Metrics->counter("driver.parse_us").value() / 1e3);
    SemaMs.push_back(CR.Metrics->counter("driver.sema_us").value() / 1e3);

    ModuleIR Lowered;
    {
      Spans::Scope Span(S, "ir.lowerProgram");
      Clock::time_point T0 = Clock::now();
      Lowered = lowerProgram(*CR.Prog);
      LowerMs.push_back(nsBetween(T0, Clock::now()) / 1e6);
    }
    ModuleIR Optimized = Lowered;
    {
      Spans::Scope Span(S, "ir.optimizeModule");
      Clock::time_point T0 = Clock::now();
      optimizeModule(Optimized, OptOptions::all());
      OptMs.push_back(nsBetween(T0, Clock::now()) / 1e6);
    }
    InstsUnopt = InstsOpt = 0;
    for (const ProcIR &P : Lowered.Procs)
      InstsUnopt += P.Insts.size();
    for (const ProcIR &P : Optimized.Procs)
      InstsOpt += P.Insts.size();
  }
  R.metric("driver.compile_ms", median(CompileMs), "ms");
  R.metric("frontend.parse_ms", median(ParseMs), "ms");
  R.metric("frontend.sema_ms", median(SemaMs), "ms");
  R.metric("ir.lower_ms", median(LowerMs), "ms");
  R.metric("ir.optimize_ms", median(OptMs), "ms");
  R.metric("ir.insts_unopt", InstsUnopt, "count");
  R.metric("ir.insts_opt", InstsOpt, "count");
}

/// The simulated figures repeat exactly; a run where they do not is a
/// correctness failure, not noise.
void checkSame(Report &R, const std::vector<double> &Values,
               const char *What) {
  bool Same = true;
  for (double V : Values)
    Same = Same && V == Values.front();
  R.check(!Values.empty() && Same, std::string(What) + " repeats exactly");
}

void traced(Report &R, Spans &S) {
  selfTest(R, S);
  compileLayers(R, S);

  // Interleave plain and timed 4 B chunks: the pairing gives the tracing
  // overhead, the timed ones the firmware's share of host time.
  constexpr int kPairs = 5;
  std::vector<double> Plain, Timed;
  FwCounters Sum;
  double TimedHostNs = 0;
  for (int I = 0; I != kPairs; ++I) {
    Plain.push_back(pingpong(vmmc::FirmwareKind::Esp, 4, kPingIters, false,
                             R, S).HostUs);
    Chunk T = pingpong(vmmc::FirmwareKind::Esp, 4, kPingIters, true, R, S,
                       /*QuantumSpans=*/I == 0);
    Timed.push_back(T.HostUs);
    TimedHostNs += T.HostNs;
    Sum.Quanta += T.C.Quanta;
    Sum.QuantumNs += T.C.QuantumNs;
    Sum.Cycles += T.C.Cycles;
    Sum.Instructions += T.C.Instructions;
  }
  double RoundTrips = double(kPairs) * (kPingIters + 4);
  double FwShare = Sum.QuantumNs / TimedHostNs;
  R.metric("obs.trace_overhead_frac", median(Timed) / median(Plain) - 1,
           "frac");
  R.metric("runtime.fw_host_share", FwShare, "frac");
  R.metric("sim.host_share", 1 - FwShare, "frac");
  R.metric("runtime.instr_per_rt", Sum.Instructions / RoundTrips, "count");
  R.metric("runtime.quanta_per_rt", Sum.Quanta / RoundTrips, "count");
  R.metric("runtime.host_ns_per_instr",
           double(Sum.QuantumNs) / double(Sum.Instructions), "ns");
  R.metric("vmmc.fw_cycles_per_rt", Sum.Cycles / RoundTrips, "cycles");
  S.counter("sim.runQuantum_ns", static_cast<int64_t>(Sum.QuantumNs));

  // Busy share of the two NIC firmware CPUs over simulated pingpong
  // time (a round trip is two one-way latencies); DMA and wire time make
  // up the rest of each NIC's timeline.
  Chunk Std = pingpong(vmmc::FirmwareKind::Esp, 4, kStdPingIters, false, R, S);
  double RoundTripNs = 2 * Std.W.OneWayLatencyUs * 1e3;
  R.metric("sim.fw_cpu_share_4B",
           Sum.Cycles / RoundTrips * sim::CostModel().NsPerCycle /
               (2 * RoundTripNs),
           "frac");

  Chunk Str = stream(kStreamMsgs, true, R, S);
  R.metric("runtime.instr_per_msg_64K",
           double(Str.C.Instructions) / kStreamMsgs, "count");
  R.metric("vmmc.fw_cycles_per_msg_64K", double(Str.C.Cycles) / kStreamMsgs,
           "cycles");

  std::vector<double> Orig;
  for (int I = 0; I != 3; ++I)
    Orig.push_back(pingpong(vmmc::FirmwareKind::Orig, 4, kOrigPingIters,
                            false, R, S).HostUs);
  R.metric("sim.orig_host_us_4B", median(Orig), "us");
}

} // namespace

void espbench::runFw(const BenchOptions &Opt, Report &R, Spans &S) {
  if (Opt.Trace) {
    traced(R, S);
    return;
  }
  std::vector<double> Setup, Host4, Host4K, Stream64, SimLat, SimBw;
  repeatPasses(Opt, R, [&] {
    Chunk Std = pingpong(vmmc::FirmwareKind::Esp, 4, kStdPingIters, false, R,
                         S);
    SimLat.push_back(Std.W.OneWayLatencyUs);
    for (uint32_t Bytes : {4u, 4096u}) {
      Chunk C = pingpong(vmmc::FirmwareKind::Esp, Bytes, kPingIters, false,
                         R, S);
      (Bytes == 4 ? Host4 : Host4K).push_back(C.HostUs);
      Setup.push_back(C.C.BuildNs / 1e9);
    }
    Chunk St = stream(kStreamMsgs, false, R, S);
    Stream64.push_back(St.HostUs);
    SimBw.push_back(St.W.BandwidthMBs);
  });

  checkSame(R, SimLat, "sim_latency_us_4B");
  checkSame(R, SimBw, "sim_bandwidth_MBs_64K");
  R.metric("setup_s", median(Setup), "s");
  R.metric("pingpong_host_us_4B", median(Host4), "us");
  R.metric("pingpong_host_us_4K", median(Host4K), "us");
  R.metric("stream_host_us_64K", median(Stream64), "us");
  R.metric("sim_latency_us_4B", SimLat.front(), "sim_us");
  R.metric("sim_bandwidth_MBs_64K", SimBw.front(), "sim_MB/s");
}
