// train_small: TrainModel runs RNTrajRec on the small Chengdu training
// split with the bench schedule, then RecoverAll and EvaluateRecovery run on
// a held-out split. The only workload that runs backward, Adam and the
// padded training forward, and the only one that measures what the paper
// measures.

#include <cstdio>
#include <memory>

#include "perfbench/src/layers.h"
#include "src/baselines/zoo.h"
#include "src/common/random.h"
#include "src/core/rntrajrec.h"
#include "src/core/trainer.h"
#include "src/eval/metrics.h"
#include "src/obs/stage_profiler.h"
#include "src/sim/presets.h"

namespace perfbench {

using namespace rntraj;

namespace {

constexpr int kDim = 24;
constexpr int kHeldOut = 768;
constexpr int kSetups = 9;
/// Single-request latency samples per round, in kLatencySlices slices.
constexpr int kLatencySamples = 500;
constexpr int kLatencySlices = 10;
/// Held-out samples are simulated apart from the training split, so their
/// ids restart at 0; shifting them keeps the model's per-sample memo (keyed
/// by id) from confusing them with training samples.
constexpr int64_t kHeldOutUidBase = int64_t{1} << 32;

/// The bench schedule of the table harnesses at small scale.
TrainConfig BenchSchedule() {
  TrainConfig t;
  t.epochs = 8;
  t.batch_size = 8;
  t.lr = 3e-3f;
  t.batch_threads = 1;
  return t;
}

struct TrainUniverse {
  std::unique_ptr<Dataset> city;
  std::unique_ptr<RnTrajRec> model;
};

std::unique_ptr<RnTrajRec> UntrainedModel(const Dataset& city) {
  SeedGlobalRng(kModelSeed);
  return std::make_unique<RnTrajRec>(DefaultRnTrajRecConfig(kDim),
                                     ModelContext::FromDataset(city));
}

/// City + indexes and an untrained model: what exists before the first
/// training step may run.
std::unique_ptr<TrainUniverse> SetUp(const DatasetConfig& cfg,
                                     SpanRecorder* rec, double* dataset_s) {
  ScopedSpan setup(rec, "bench.setup");
  auto u = std::make_unique<TrainUniverse>();
  const auto t0 = Clock::now();
  {
    ScopedSpan s(rec, "sim.BuildDataset", setup.index());
    u->city = BuildDataset(CityOnly(cfg));
  }
  *dataset_s = SecondsSince(t0);
  ScopedSpan s(rec, "core.RnTrajRec", setup.index());
  u->model = UntrainedModel(*u->city);
  return u;
}

}  // namespace

Result RunTrainSmall(const Options& opt) {
  Result result;
  SpanRecorder rec(opt.trace);
  // Inputs: the preset's small Chengdu training split (fixed), and a
  // held-out split simulated on the same city from the workload seed.
  DatasetConfig cfg = ChengduConfig(BenchScale::kSmall, /*keep_every=*/8);
  cfg.num_val = 0;
  cfg.num_test = 0;
  std::unique_ptr<Dataset> train_ds, held_ds;
  {
    ScopedSpan s(&rec, "sim.BuildDataset.splits");
    train_ds = BuildDataset(cfg);
    held_ds = BuildDataset(PoolConfig(cfg, opt.seed, kHeldOut));
  }
  const std::vector<TrajectorySample>& train = train_ds->train();
  std::vector<TrajectorySample> test = held_ds->test();
  for (TrajectorySample& s : test) s.uid += kHeldOutUidBase;
  const std::vector<MatchedTrajectory> truths = TruthsOf(test);

  SetupTimes setup;
  std::vector<double> dataset_s;
  std::unique_ptr<TrainUniverse> u;
  for (int r = 0; r < kSetups; ++r) {
    u.reset();
    double ds_s = 0.0;
    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    u = SetUp(cfg, &rec, &ds_s);
    setup.cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    setup.wall_s.push_back(SecondsSince(t0));
    dataset_s.push_back(ds_s);
  }
  NetworkDistance& nd = u->city->netdist();
  const RoadNetwork& rn = u->city->roadnet();
  std::vector<PoolEntry> pool = PoolFromSamples(test);
  ComputeAllowedSegments(*u->city, u->model->config().decoder.mask_radius,
                         &pool);

  TrainConfig tcfg = BenchSchedule();
  tcfg.profile_stages = opt.trace;
  const int64_t samples_per_round =
      static_cast<int64_t>(tcfg.epochs) * static_cast<int64_t>(train.size());

  // Whole rounds until the window is spent: untrained quality, training,
  // held-out recovery and scoring, single-request latency.
  std::vector<double> train_s, train_cpu_s, road_rep_s, p50, latency_all;
  double f1 = 0.0, f1_untrained = 0.0;
  TrainStats last_stats;
  const auto window_start = Clock::now();
  int rounds = 0;
  while (rounds == 0 || SecondsSince(window_start) < opt.seconds) {
    if (rounds++ > 0) u->model = UntrainedModel(*u->city);
    RnTrajRec& model = *u->model;
    model.SetTrainingMode(false);
    auto t0 = Clock::now();
    {
      ScopedSpan s(&rec, "core.BeginInference");
      model.BeginInference();
    }
    road_rep_s.push_back(SecondsSince(t0));
    {
      ScopedSpan s(&rec, "core.RecoverAll.untrained");
      f1_untrained = EvaluateRecovery(nd, RecoverAll(model, test), truths).f1;
      result.attempted += static_cast<int64_t>(test.size());
    }

    t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    {
      ScopedSpan s(&rec, "core.TrainModel");
      last_stats = TrainModel(model, train, tcfg);
    }
    train_s.push_back(SecondsSince(t0));
    train_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    result.attempted += samples_per_round;

    std::vector<MatchedTrajectory> preds;
    {
      ScopedSpan s(&rec, "core.RecoverAll");
      preds = RecoverAll(model, test);
      result.attempted += static_cast<int64_t>(test.size());
    }
    {
      ScopedSpan s(&rec, "eval.EvaluateRecovery");
      ScoreAndCheckQuality(nd, rn, preds, truths, &result);
    }
    f1 = result.metrics["f1"].first;
    for (size_t i = 0; i < pool.size(); ++i) pool[i].reference = preds[i];

    // Single-request latency of the trained model: each held-out request
    // answered alone, which must reproduce RecoverAll's answer.
    std::vector<double> slice;
    for (int k = 0; k < kLatencySamples; ++k) {
      const PoolEntry& e = pool[static_cast<size_t>(k) % pool.size()];
      const int span = rec.Open("core.Recover", -1, k);
      t0 = Clock::now();
      const MatchedTrajectory got = RecoverAlone(model, e.request);
      slice.push_back(1e3 * SecondsSince(t0));
      rec.Close(span);
      ++result.attempted;
      const std::string why = CheckAnswer(e, got, rn.num_segments());
      if (!why.empty()) result.Fail(why);
      if (static_cast<int>(slice.size()) ==
          kLatencySamples / kLatencySlices) {
        p50.push_back(Percentile(slice, 0.50));
        latency_all.insert(latency_all.end(), slice.begin(), slice.end());
        slice.clear();
      }
    }
  }
  if (!(f1 > f1_untrained)) {
    result.Fail("trained F1 " + std::to_string(f1) +
                " does not exceed untrained F1 " +
                std::to_string(f1_untrained));
  }
  const double train_med = Median(train_s);
  const double n = static_cast<double>(samples_per_round);
  // Wall-clock figures are reported, not gated (see SetServingMetrics).
  std::fprintf(stderr,
               "train_small: %d round(s), F1 %.4f (untrained %.4f), final "
               "loss %.4f\nwall clock: %.2f training samples/s; B=1 latency "
               "p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; set-up %.4f s\n",
               rounds, f1, f1_untrained, last_stats.epoch_losses.back(),
               n / train_med, InterquartileMean(p50),
               Percentile(latency_all, 0.90), Percentile(latency_all, 0.99),
               Median(setup.wall_s));
  result.Set("setup_s", Median(setup.cpu_s), "s");
  result.Set("cpu_ms_per_req", 1e3 * Median(train_cpu_s) / n, "ms");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");

  if (opt.trace) {
    result.Set("sim.dataset_build_s", Median(dataset_s), "s");
    result.Set("core.road_rep_s", Median(road_rep_s), "s");
    result.Set("core.train.samples_per_s", n / train_med, "1/s");
    result.Set("core.train.epoch_s", train_med / tcfg.epochs, "s");
    double staged_ms = 0.0;
    for (int i = 0; i < obs::kStageCount; ++i) {
      const obs::Stage st = static_cast<obs::Stage>(i);
      const double ms = last_stats.stage_profile.stages[i].Ms();
      staged_ms += ms;
      result.Set(std::string("core.train.") + obs::StageName(st) +
                     "_ms_per_sample",
                 ms / n, "ms");
    }
    result.Set("core.train.unstaged_ms_per_sample",
               (1e3 * last_stats.seconds - staged_ms) / n, "ms");
    result.Set("core.train.final_loss", last_stats.epoch_losses.back(), "loss");
    result.Set("tensor.matmul_gflops",
               GemmGflops(tcfg.batch_size, kDim, rn.num_segments()), "GFLOP/s");
  }
  FinishRun(opt, rec);
  return result;
}

}  // namespace perfbench
