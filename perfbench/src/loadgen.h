#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <functional>
#include <future>
#include <vector>

#include "perfbench/src/bench.h"

/// \file loadgen.h
/// The closed-loop load generator shared by the serving workloads: one
/// thread keeps exactly `inflight` requests outstanding, sends the next as
/// soon as one completes, and checks every answer. Latency runs from Submit
/// to the future becoming ready. The measured window is cut into equal
/// slices; a run reports the median over slices, so a short stall of the
/// host moves one slice, not the result.

namespace perfbench {

using SubmitFn = std::function<std::future<rntraj::serve::RecoveryResponse>(
    rntraj::serve::RecoveryRequest)>;

/// Callback run on every completed request (after the answer check), with
/// the client latency and whether it completed inside the measured window.
using CompletionFn = std::function<void(
    const rntraj::serve::RecoveryResponse& resp, int entry, double latency_ms,
    Clock::time_point submitted, bool in_window)>;

struct LoadSpec {
  int inflight = 1;
  double warmup_s = 0.5;
  double window_s = 10.0;
  int slices = 20;
};

/// Completions inside one slice of the window.
struct Slice {
  double seconds = 0.0;
  int64_t ok = 0;
  double cpu_s = 0.0;  ///< CPU over the slice (this process + extra_cpu).
  std::vector<double> latency_ms;
};

struct LoadOutcome {
  int64_t attempted = 0;
  int64_t ok = 0;  ///< All ok responses (warm-up, window and drain).
  int64_t failed = 0;
  int64_t ok_in_window = 0;
  double window_s = 0.0;  ///< Measured window length.
  std::vector<Slice> slices;
};

/// Hooks run on the generator thread. `extra_cpu` returns cumulative CPU
/// seconds spent outside this process (fleet workers); the window edges
/// snapshot program counters.
struct LoadHooks {
  CompletionFn on_complete;
  std::function<double()> extra_cpu;
  std::function<void()> at_window_start;
  std::function<void()> at_window_end;
};

/// Runs warm-up, the measured window and the drain. `order` lists pool
/// indices; requests cycle through it.
LoadOutcome RunClosedLoop(const std::vector<PoolEntry>& pool,
                          const std::vector<int>& order, int num_segments,
                          const LoadSpec& spec, const SubmitFn& submit,
                          const LoadHooks& hooks, Result* result);

/// A seed-shuffled visiting order over a pool of `n` entries.
std::vector<int> ShuffledOrder(int n, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
