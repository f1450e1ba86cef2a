//===--- espbench.cpp - Repository benchmark, one part per process --------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark part and prints its report as the last stdout line:
///
///   espbench --part fw|mc|serve [--seconds S] [--seed N] [--trace 0|1]
///            [--trace-out FILE]
///
/// perfbench/run.py builds this binary, runs the parts a workload needs
/// (each in its own process, so peak RSS is per part) and merges the
/// reports. Every part drives the esplang libraries only through their
/// public entry points and measures each layer by wrapping or timing
/// those calls from here.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/resource.h>

using namespace espbench;
using esp::obs::JsonValue;

double espbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double espbench::peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_maxrss / 1024.0; // Linux reports KiB.
}

void Report::metric(const std::string &Name, double Value, const char *Unit) {
  JsonValue M = JsonValue::object();
  M.set("value", JsonValue::number(Value));
  M.set("unit", JsonValue::str(Unit));
  Metrics.set(Name, std::move(M));
}

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  Errors.push_back(What);
  std::fprintf(stderr, "espbench: check failed: %s\n", What.c_str());
}

std::string Report::json() const {
  JsonValue Out = JsonValue::object();
  Out.set("attempted", JsonValue::integer(static_cast<int64_t>(Attempted)));
  Out.set("failed", JsonValue::integer(static_cast<int64_t>(Failed)));
  JsonValue Errs = JsonValue::array();
  for (const std::string &E : Errors)
    Errs.push(JsonValue::str(E));
  Out.set("errors", std::move(Errs));
  Out.set("metrics", Metrics);
  Out.set("compiler", JsonValue::str(ESPBENCH_COMPILER));
  Out.set("build_type", JsonValue::str(ESPBENCH_BUILD_TYPE));
  return Out.dump();
}

Spans::Spans(bool On, uint32_t Pid, const char *PartName)
    : On(On), Pid(Pid) {
  if (On) {
    W.nameProcess(Pid, PartName);
    W.nameThread(Pid, 0, "main");
  }
}

void Spans::begin(const std::string &Name, uint32_t Tid) {
  if (On)
    W.sliceBegin(Pid, Tid, Name, nowUs());
}

void Spans::end(uint32_t Tid) {
  if (On)
    W.sliceEnd(Pid, Tid, nowUs());
}

void Spans::counter(const std::string &Name, int64_t Value) {
  if (On)
    W.counter(Pid, Name, "value", Value, nowUs());
}

bool Spans::write(const std::string &Path) {
  W.finish(nowUs());
  return W.writeFile(Path);
}

static void usage() {
  std::fprintf(stderr,
               "usage: espbench --part fw|mc|serve [--seconds S] [--seed N] "
               "[--trace 0|1] [--trace-out FILE]\n");
  std::exit(2);
}

int main(int Argc, char **Argv) {
  BenchOptions Opt;
  std::string Part;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (I + 1 >= Argc)
      usage();
    const char *Val = Argv[++I];
    if (!std::strcmp(Arg, "--part"))
      Part = Val;
    else if (!std::strcmp(Arg, "--seconds"))
      Opt.Seconds = std::atof(Val);
    else if (!std::strcmp(Arg, "--seed"))
      Opt.Seed = std::strtoull(Val, nullptr, 10);
    else if (!std::strcmp(Arg, "--trace"))
      Opt.Trace = std::atoi(Val) != 0;
    else if (!std::strcmp(Arg, "--trace-out"))
      Opt.TraceOut = Val;
    else
      usage();
  }

  Report R;
  uint32_t Pid = Part == "fw" ? 1 : Part == "mc" ? 2 : 3;
  Spans S(Opt.Trace, Pid, Part.c_str());
  if (Part == "fw")
    runFw(Opt, R, S);
  else if (Part == "mc")
    runMc(Opt, R, S);
  else if (Part == "serve")
    runServe(Opt, R, S);
  else
    usage();

  if (Opt.Trace && !Opt.TraceOut.empty())
    R.check(S.write(Opt.TraceOut), "write trace " + Opt.TraceOut);
  std::printf("%s\n", R.json().c_str());
  return 0;
}
