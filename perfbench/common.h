//===--- common.h - Shared pieces of the espbench program -------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three benchmark parts (fw, mc, serve) share: the run
/// options, the report every part fills (metrics by name and unit plus
/// output checks), wall-clock helpers, and the span recorder of the
/// traced run. Spans are kept in an obs::TraceWriter in memory and
/// written out as one Chrome trace when the part ends.
///
//===----------------------------------------------------------------------===//

#ifndef ESPBENCH_COMMON_H
#define ESPBENCH_COMMON_H

#include "obs/Json.h"
#include "obs/Trace.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace espbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nsBetween(Clock::time_point A, Clock::time_point B) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
}

inline double secondsSince(Clock::time_point Start) {
  return nsBetween(Start, Clock::now()) / 1e9;
}

/// Median of \p Values (0 for an empty list).
double median(std::vector<double> Values);

/// Peak resident set of this process so far, in MiB.
double peakRssMb();

struct BenchOptions {
  /// Measurement window: a part repeats its passes until this many
  /// seconds have gone by (0 = exactly one pass).
  double Seconds = 0;
  uint64_t Seed = 1;
  /// Traced run: per-layer metrics, spans, decorator self-test.
  bool Trace = false;
  std::string TraceOut;
};

/// Metrics and output checks of one part; printed as one JSON line.
class Report {
public:
  void metric(const std::string &Name, double Value, const char *Unit);
  /// Records one checked operation; a false \p Ok counts as failed and
  /// keeps \p What for the error list.
  void check(bool Ok, const std::string &What);
  std::string json() const;

private:
  esp::obs::JsonValue Metrics = esp::obs::JsonValue::object();
  std::vector<std::string> Errors;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Records spans around the calls the benchmark makes into each layer.
/// Disabled (every call a no-op) in untraced runs.
class Spans {
public:
  Spans(bool On, uint32_t Pid, const char *PartName);

  bool on() const { return On; }
  void begin(const std::string &Name, uint32_t Tid = 0);
  void end(uint32_t Tid = 0);
  /// Aggregated per-layer total as a counter sample (for layers whose
  /// individual calls are too many to keep as spans).
  void counter(const std::string &Name, int64_t Value);
  /// Closes open spans and writes the trace; false on I/O failure.
  bool write(const std::string &Path);

  /// RAII span.
  class Scope {
  public:
    Scope(Spans &S, const std::string &Name, uint32_t Tid = 0)
        : S(S), Tid(Tid) {
      S.begin(Name, Tid);
    }
    ~Scope() { S.end(Tid); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans &S;
    uint32_t Tid;
  };

private:
  uint64_t nowUs() const { return nsBetween(Epoch, Clock::now()) / 1000; }

  bool On;
  uint32_t Pid;
  Clock::time_point Epoch = Clock::now();
  esp::obs::TraceWriter W;
};

/// Runs \p Pass once, then again until Opt.Seconds have gone by, and
/// reports peak_rss_mb as of the end of the first pass: later passes
/// repeat the same work and add only allocator slack.
template <typename F>
void repeatPasses(const BenchOptions &Opt, Report &R, F &&Pass) {
  Clock::time_point Start = Clock::now();
  Pass();
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  while (secondsSince(Start) < Opt.Seconds)
    Pass();
}

void runFw(const BenchOptions &Opt, Report &R, Spans &S);
void runMc(const BenchOptions &Opt, Report &R, Spans &S);
void runServe(const BenchOptions &Opt, Report &R, Spans &S);

} // namespace espbench

#endif // ESPBENCH_COMMON_H
