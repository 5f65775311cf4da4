#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/loadgen.h"
#include "src/core/rntrajrec.h"
#include "src/obs/metrics.h"
#include "src/serve/request.h"
#include "src/sim/dataset.h"

/// \file layers.h
/// The metric catalogue (names and units the driver prints), input
/// construction shared by the workloads, and the per-layer probe that turns
/// the service's telemetry and the benchmark's spans into per-layer metrics.

namespace perfbench {

/// Model weights are part of the program under test, not of the workload
/// inputs: every workload initialises its models from this fixed seed.
inline constexpr uint64_t kModelSeed = 61;

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Printed by untraced runs, in every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by traced runs, in every workload; a layer a workload does not
/// exercise reads 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// A dataset config reduced to its city and indexes (no samples).
rntraj::DatasetConfig CityOnly(rntraj::DatasetConfig cfg);
/// The same city with `n` held-out trajectories simulated from `seed`.
rntraj::DatasetConfig PoolConfig(rntraj::DatasetConfig cfg, uint64_t seed,
                                 int n);
/// A well-mixed 64-bit seed derived from the workload seed.
uint64_t MixSeed(uint64_t seed);
std::vector<PoolEntry> PoolFromSamples(
    const std::vector<rntraj::TrajectorySample>& samples);
/// Fills each entry's reference answer from a fresh model (same config,
/// weights from kModelSeed) answering the request alone.
void ComputeReferences(const rntraj::RnTrajRecConfig& cfg,
                       const rntraj::Dataset& ds, std::vector<PoolEntry>* pool);
/// Answers one request alone with `model` (an ephemeral sample, B = 1).
rntraj::MatchedTrajectory RecoverAlone(rntraj::RecoveryModel& model,
                                       const rntraj::serve::RecoveryRequest& r);

/// CPU and wall-clock seconds of each repeated set-up of a run.
struct SetupTimes {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
};

/// Sets the serving end-to-end metrics (set-up CPU, CPU per request, peak
/// RSS) and prints the wall-clock figures to stderr.
void SetServingMetrics(const LoadOutcome& lo, const SetupTimes& setup,
                       double peak_rss_mb, Result* result);

/// Inputs of the per-layer computation that are not in the telemetry.
struct LayerInputs {
  double window_s = 1.0;
  double dataset_s = 0.0;
  double road_rep_s = 0.0;
  int sessions = 1;  ///< Sessions across all serving processes.
  int steps = 0;
  int num_segments = 0;
  int gemm_rows = 1;  ///< Rows of the decoder id-head GEMM (batch size).
  int dim = 0;
};

/// Collects per-response layer data during the window (traced runs) and
/// computes the serve/core/tensor per-layer metrics afterwards.
class ServeLayerProbe {
 public:
  explicit ServeLayerProbe(SpanRecorder* rec) : rec_(rec) {}
  void OnResponse(const rntraj::serve::RecoveryResponse& resp,
                  double latency_ms, Clock::time_point submitted,
                  bool in_window);
  /// `before`/`after`: the service telemetry at the window's edges (for a
  /// fleet, the per-worker snapshots summed with SumSnapshots).
  void Finish(const rntraj::obs::MetricsSnapshot& before,
              const rntraj::obs::MetricsSnapshot& after,
              const LayerInputs& in, Result* result) const;
  /// Median of client latency minus the serving process's queue wait and
  /// batch forward, per response.
  double unattributed_p50_ms() const { return Median(unattributed_ms_); }

 private:
  SpanRecorder* rec_;
  int64_t next_request_ = 0;
  std::vector<double> latency_ms_;
  std::vector<double> unattributed_ms_;
  std::vector<double> encode_ms_;
  std::vector<double> decode_ms_;
};

/// Counters and gauges add, histograms merge: the sum of several processes'
/// telemetry (MetricsSnapshot::Merge keeps one writer's gauges instead).
rntraj::obs::MetricsSnapshot SumSnapshots(
    const std::vector<rntraj::obs::MetricsSnapshot>& snaps);

/// Traced runs: writes the spans under .bench_out/ and prints self times.
void FinishRun(const Options& opt, const SpanRecorder& rec);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
