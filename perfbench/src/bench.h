#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/eval/metrics.h"
#include "src/serve/request.h"
#include "src/sim/dataset.h"
#include "src/traj/trajectory.h"

/// \file bench.h
/// Shared pieces of the benchmark driver: run options, the result line, the
/// benchmark-side span recorder, process counters, and the output checks
/// every workload runs on every answer.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;                 ///< Per-run scratch (sockets, files).
};

/// The last line a run prints.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// name -> (value, unit), in insertion-independent (sorted) order.
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// First few check failures, printed to stderr.
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed output check (the run then reports correct=false).
  void Fail(const std::string& why);
  std::string ToJson() const;
};

// ---------------------------------------------------------------------------
// Arithmetic

/// The tree's rank rule (src/obs/quantile.h), re-implemented here so the
/// benchmark's percentiles do not depend on the code under test:
/// the q-quantile of n samples is the floor(q * (n - 1))-th smallest.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Mean of the middle half: drops floor(n/4) values from each end.
double InterquartileMean(std::vector<double> values);
double Mean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Process counters

/// User + system CPU seconds of this process (all threads).
double ProcessCpuSeconds();
/// CPU seconds of another process (all its threads), from
/// /proc/<pid>/task/*/schedstat; 0 when it cannot be read.
double ChildCpuSeconds(int pid);
/// Peak resident set (VmHWM) of `pid` (0 = self) in MB; 0 when unreadable.
double PeakRssMb(int pid = 0);

// ---------------------------------------------------------------------------
// Benchmark-side spans (traced runs only)

/// One interval recorded around a call into a layer of the program.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;          ///< Index into the recorder; -1 = top level.
  int64_t request_id = -1;  ///< Request the span belongs to, -1 if none.
};

/// In-memory span store, written out once when the run ends. A disabled
/// recorder costs one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);
  bool enabled() const { return enabled_; }
  int64_t NowNs() const;
  int64_t ToNs(Clock::time_point tp) const;
  /// Opens a span now; returns its index (-1 when disabled).
  int Open(const std::string& name, int parent = -1, int64_t request_id = -1);
  void Close(int span);
  /// Adds an already-measured interval; returns its index.
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent = -1, int64_t request_id = -1);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name: duration minus the part of it covered by the
  /// span's children. Returns name -> (total self ms, count).
  std::map<std::string, std::pair<double, int64_t>> SelfTimes() const;
  /// Writes {"spans":[...],"self_ms":{...}} to `path`; false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point begin_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int parent = -1)
      : rec_(rec), index_(rec->Open(name, parent)) {}
  ~ScopedSpan() { rec_->Close(index_); }
  int index() const { return index_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

// ---------------------------------------------------------------------------
// Request pools and output checks

/// One distinct request of a workload's pool, with everything its answers
/// are checked against. The expected values are computed apart from the
/// path under test: the reference answer by a second model instance with
/// the same weights, answering the request alone; the candidate sets by the
/// benchmark's own radius queries.
struct PoolEntry {
  rntraj::serve::RecoveryRequest request;
  rntraj::MatchedTrajectory truth;
  rntraj::MatchedTrajectory reference;
  /// Sorted segment ids within the decoder's mask radius of each observed
  /// point (SegmentsWithinRadius, which widens until it finds one).
  std::vector<std::vector<int>> allowed;
};

/// Fills `allowed` for every entry.
void ComputeAllowedSegments(const rntraj::Dataset& ds, double mask_radius,
                            std::vector<PoolEntry>* pool);

/// Checks one answer; returns "" when it passes, else the first violation:
///  - one point per target timestamp, at that timestamp;
///  - segment ids in [0, num_segments), ratios in [0, 1];
///  - at each observed step the segment is in `allowed`;
///  - identical segment ids to `reference`, ratios within 1e-5.
std::string CheckAnswer(const PoolEntry& entry,
                        const rntraj::MatchedTrajectory& got,
                        int num_segments);

/// Travel-path F1 and per-point accuracy, computed without src/eval.
struct Quality {
  double f1 = 0.0;
  double accuracy = 0.0;
};
double PathF1(const rntraj::MatchedTrajectory& truth,
              const rntraj::MatchedTrajectory& pred);
Quality IndependentQuality(const std::vector<rntraj::MatchedTrajectory>& preds,
                           const std::vector<rntraj::MatchedTrajectory>& truths);
/// Mean straight-line distance between predicted and true positions (m): a
/// lower bound of the network-distance MAE.
double MeanStraightLineError(
    const rntraj::RoadNetwork& rn,
    const std::vector<rntraj::MatchedTrajectory>& preds,
    const std::vector<rntraj::MatchedTrajectory>& truths);

/// Fails `result` unless EvaluateRecovery's F1 and accuracy match the
/// independent code and its MAE is at least the straight-line error.
void CompareQuality(const rntraj::RecoveryMetrics& m, const Quality& q,
                    double straight_line_m, Result* result);
/// Runs EvaluateRecovery and cross-checks it against the independent
/// quality code; sets f1, accuracy and mae_m on `result`.
void ScoreAndCheckQuality(rntraj::NetworkDistance& nd,
                          const rntraj::RoadNetwork& rn,
                          const std::vector<rntraj::MatchedTrajectory>& preds,
                          const std::vector<rntraj::MatchedTrajectory>& truths,
                          Result* result);

// ---------------------------------------------------------------------------
// Workloads

/// Achieved GFLOP/s of the public Matmul at an (m x k) * (k x n) shape.
double GemmGflops(int m, int k, int n);

Result RunServeSingleShort(const Options& opt);
Result RunServeBusyLong(const Options& opt);
Result RunFleetBusyShort(const Options& opt);
Result RunTrainSmall(const Options& opt);
/// Reference figures for the README (not gated): open-loop latency at fixed
/// rates and Linear+HMM / untrained quality on the train_small split.
int RunReference(const Options& opt);
/// Self-tests of the benchmark's own arithmetic and checks; 0 on success.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
