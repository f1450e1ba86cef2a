//===--- serve.cpp - serve_fleet: 10k machines on the serve runtime -------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// runServe over 10,000 machines sharing one compiled serve firmware:
/// 2,000,000 requests from the seeded LoadGen, 3 workers plus the
/// producer thread, machines recycled every 64 responses. runServe
/// itself checks the fleet's totals against LoadGen::expectedTotals.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "runtime/Machine.h"
#include "serve/LoadGen.h"
#include "serve/Serve.h"
#include "vmmc/ServeFirmware.h"

using namespace esp;
using namespace espbench;

namespace {

serve::ServeOptions fleetOptions(uint64_t Seed, unsigned Workers) {
  serve::ServeOptions SO;
  SO.Machines = 10'000;
  SO.Requests = 2'000'000;
  SO.Workers = Workers;
  SO.ConnRequests = 64;
  SO.Seed = Seed;
  return SO;
}

struct FleetRun {
  serve::ServeResult Res;
  /// runServe wall time outside its measured window: predicting the
  /// totals, compiling the firmware, building and tearing down the fleet.
  double SetupS = 0;
};

FleetRun fleet(uint64_t Seed, unsigned Workers, Report &R, Spans &S) {
  FleetRun Out;
  Spans::Scope Span(S, "serve.runServe " + std::to_string(Workers) + "w");
  Clock::time_point T0 = Clock::now();
  Out.Res = serve::runServe(fleetOptions(Seed, Workers));
  Out.SetupS = (nsBetween(T0, Clock::now()) - Out.Res.ElapsedNs) / 1e9;
  R.check(Out.Res.Ok, "serve " + std::to_string(Workers) +
                          " workers: " + (Out.Res.Ok ? "ok" : Out.Res.Error));
  return Out;
}

template <typename F> double medianMs(int Reps, Spans &S, const char *Name,
                                      F &&Fn) {
  std::vector<double> Ms;
  for (int I = 0; I != Reps; ++I) {
    Spans::Scope Span(S, Name);
    Clock::time_point T0 = Clock::now();
    Fn();
    Ms.push_back(nsBetween(T0, Clock::now()) / 1e6);
  }
  return median(Ms);
}

void traced(const BenchOptions &Opt, Report &R, Spans &S) {
  // The traced run adds only spans around runServe, so its overhead is
  // the cost of those spans.
  FleetRun Plain = fleet(Opt.Seed, 3, R, S);
  FleetRun Traced = fleet(Opt.Seed, 3, R, S);
  const serve::ServeResult &Res = Traced.Res;
  double Reqs = double(Res.Totals.Responses);
  R.metric("obs.trace_overhead_frac",
           Plain.Res.RequestsPerSec / Res.RequestsPerSec - 1, "frac");
  R.metric("serve.instr_per_req", Res.InstrTotal / Reqs, "count");
  R.metric("serve.host_ns_per_instr",
           double(Res.ElapsedNs) / double(Res.InstrTotal), "ns");
  R.metric("serve.wakes_per_req", Res.Wakes / Reqs, "ratio");
  R.metric("serve.parks_per_req", Res.Parks / Reqs, "ratio");
  R.metric("serve.steals_per_kreq", Res.Steals * 1e3 / Reqs, "ratio");
  R.metric("serve.stalls_per_req", Res.BackpressureStalls / Reqs, "ratio");
  R.metric("serve.inbox_highwater", double(Res.InboxHighWater), "events");
  R.metric("serve.heap_highwater_max", double(Res.HeapHighWaterMax),
           "objects");
  R.metric("serve.offer_to_response_p50_ms", Res.P50Ns / 1e6, "ms");
  R.metric("serve.offer_to_response_p99_ms", Res.P99Ns / 1e6, "ms");
  R.metric("serve.fleet_build_ms", Traced.SetupS * 1e3, "ms");

  FleetRun One = fleet(Opt.Seed, 1, R, S);
  R.metric("serve.req_per_s_1w", One.Res.RequestsPerSec, "req/s");

  std::unique_ptr<vmmc::ServeProgram> Firmware;
  R.metric("vmmc.serve_compile_ms",
           medianMs(5, S, "vmmc.compileServeFirmware",
                    [&] { Firmware = vmmc::compileServeFirmware(); }),
           "ms");
  R.metric("runtime.compile_program_ms",
           medianMs(5, S, "runtime.compileProgram",
                    [&] { Machine::compileProgram(Firmware->Module); }),
           "ms");
  serve::ServeOptions SO = fleetOptions(Opt.Seed, 3);
  serve::LoadGenOptions LO;
  LO.Seed = SO.Seed;
  LO.Machines = SO.Machines;
  LO.Requests = SO.Requests;
  LO.Batch = SO.Batch;
  serve::ServeTotals Expected;
  R.metric("serve.expected_totals_ms",
           medianMs(3, S, "serve.expectedTotals",
                    [&] { Expected = serve::LoadGen::expectedTotals(LO); }),
           "ms");
  R.check(Expected == Res.Expected && Expected == Res.Totals,
          "serve totals match LoadGen::expectedTotals");
}

} // namespace

void espbench::runServe(const BenchOptions &Opt, Report &R, Spans &S) {
  if (Opt.Trace) {
    traced(Opt, R, S);
    return;
  }
  std::vector<double> Setup, Rate;
  repeatPasses(Opt, R, [&] {
    FleetRun Run = fleet(Opt.Seed, 3, R, S);
    Setup.push_back(Run.SetupS);
    Rate.push_back(Run.Res.RequestsPerSec);
  });
  R.metric("setup_s", median(Setup), "s");
  R.metric("serve_req_per_s", median(Rate), "req/s");
}
