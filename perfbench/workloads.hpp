#pragma once

// The benchmark's three workloads. Each runs one pass (a complete, checked
// execution of its guest programs on fresh systems) into a PassResult; the
// runner in main.cpp repeats passes for the measured interval.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.hpp"

namespace mvperf {

struct PassResult {
  // Simulated results and layer counters, keyed by metric name. They are
  // deterministic for a seed, so every pass of a run, traced or not, must
  // reproduce them bit for bit.
  std::map<std::string, double> sim;
  // Workload-specific simulated results printed beside the metrics (also
  // compared bit for bit).
  std::map<std::string, double> extra;
  // FNV-1a over every output the pass checked.
  std::uint64_t output_digest = 0xcbf29ce484222325ull;
  // Host clock, seconds.
  double setup_s = 0;    // system construction + boot files + HRT boot
  double startup_s = 0;  // run call -> first guest op, Multiverse systems
  double total_s = 0;    // the whole pass
  // Per system, in run order: first guest op -> system destroyed.
  std::vector<double> timed_s;
  std::vector<std::string> errors;  // failed output checks
};

using WorkloadFn = void (*)(std::uint64_t seed, Recorder& rec,
                            PassResult& out);

// nullptr for an unknown name.
WorkloadFn find_workload(const std::string& name);

// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

}  // namespace mvperf
