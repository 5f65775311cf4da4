// Reference figures for the README, not gated:
//  --reference serve_single_short: open-loop Poisson latency at fixed
//    fractions of the closed-loop capacity (the bench-small service);
//  --reference train_small: Linear+HMM and untrained-RNTrajRec quality on
//    the train_small held-out split.

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <random>
#include <thread>

#include "perfbench/src/layers.h"
#include "perfbench/src/loadgen.h"
#include "src/baselines/zoo.h"
#include "src/common/random.h"
#include "src/core/trainer.h"
#include "src/fleet/profiles.h"
#include "src/serve/recovery_service.h"
#include "src/sim/presets.h"

namespace perfbench {

using namespace rntraj;

namespace {

struct OpenLoopPoint {
  double rate = 0.0;
  double p50 = 0.0, p99 = 0.0;
  double max_late_ms = 0.0;  ///< Worst delay of a send past its due time.
  int64_t n = 0;
};

/// Poisson arrivals at `rate` for `seconds`; each latency runs from the
/// request's due time (so a stalled generator charges the wait).
OpenLoopPoint OpenLoop(serve::RecoveryService* service,
                       const std::vector<PoolEntry>& pool, double rate,
                       double seconds, uint64_t seed, Result* result,
                       int num_segments) {
  struct Pending {
    std::future<serve::RecoveryResponse> fut;
    Clock::time_point due;
    int entry;
  };
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<Pending> pending;
  std::vector<double> lat;
  OpenLoopPoint pt;
  pt.rate = rate;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto due = start;
  size_t next = 0;
  auto reap = [&](size_t i, Clock::time_point now) {
    const serve::RecoveryResponse resp = pending[i].fut.get();
    if (resp.ok) {
      const std::string why = CheckAnswer(
          pool[static_cast<size_t>(pending[i].entry)], resp.recovered,
          num_segments);
      if (!why.empty()) result->Fail(why);
      lat.push_back(
          std::chrono::duration<double, std::milli>(now - pending[i].due)
              .count());
    }
    pending[i] = std::move(pending.back());
    pending.pop_back();
  };
  while (due < end || !pending.empty()) {
    const auto now = Clock::now();
    if (due < end && now >= due) {
      pt.max_late_ms = std::max(
          pt.max_late_ms,
          std::chrono::duration<double, std::milli>(now - due).count());
      const int entry = static_cast<int>(next++ % pool.size());
      pending.push_back(
          {service->Submit(pool[static_cast<size_t>(entry)].request), due,
           entry});
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng)));
      continue;
    }
    bool any = false;
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        reap(i, Clock::now());
        any = true;
      } else {
        ++i;
      }
    }
    if (!any) {
      auto wake = Clock::now() + std::chrono::microseconds(100);
      if (due < end) wake = std::min(wake, due);
      std::this_thread::sleep_until(wake);
    }
  }
  pt.p50 = Percentile(lat, 0.5);
  pt.p99 = Percentile(lat, 0.99);
  pt.n = static_cast<int64_t>(lat.size());
  return pt;
}

int ServeReference(const Options& opt) {
  fleet::FleetProfile profile;
  std::string error;
  fleet::LookupFleetProfile("bench-small", &profile, &error);
  auto ds = BuildDataset(CityOnly(profile.dataset));
  auto pool_ds = BuildDataset(PoolConfig(profile.dataset, opt.seed, 400));
  std::vector<PoolEntry> pool = PoolFromSamples(pool_ds->test());
  ComputeReferences(profile.model, *ds, &pool);
  ComputeAllowedSegments(*ds, profile.model.decoder.mask_radius, &pool);
  const ModelContext ctx = ModelContext::FromDataset(*ds);
  SeedGlobalRng(kModelSeed);
  RnTrajRec model(profile.model, ctx);
  model.SetTrainingMode(false);
  model.BeginInference();  // the profile's service does not warm the model
  serve::RecoveryService service(&model, ctx, profile.service);
  const int nseg = ds->roadnet().num_segments();

  Result result;
  LoadSpec cap;
  cap.inflight = 2 * profile.service.batcher.max_batch_size;
  cap.warmup_s = 1.0;
  cap.window_s = 5.0;
  const LoadOutcome lo = RunClosedLoop(
      pool, ShuffledOrder(400, opt.seed), nseg, cap,
      [&](serve::RecoveryRequest r) { return service.Submit(std::move(r)); },
      LoadHooks{}, &result);
  const double capacity = static_cast<double>(lo.ok_in_window) / lo.window_s;
  std::printf("closed-loop capacity (full batches): %.1f req/s\n", capacity);
  std::printf("%8s %9s %9s %9s %8s %12s\n", "load", "rate/s", "p50_ms",
              "p99_ms", "n", "max_late_ms");
  for (double frac : {0.25, 0.5, 0.75, 0.9}) {
    const OpenLoopPoint pt =
        OpenLoop(&service, pool, frac * capacity, 10.0, opt.seed, &result, nseg);
    std::printf("%7.0f%% %9.1f %9.2f %9.2f %8lld %12.2f\n", 100 * frac,
                pt.rate, pt.p50, pt.p99, static_cast<long long>(pt.n),
                pt.max_late_ms);
  }
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  return result.correct ? 0 : 1;
}

int TrainReference(const Options& opt) {
  // The held-out split train_small scores on for the same seed.
  auto ds = BuildDataset(PoolConfig(
      ChengduConfig(BenchScale::kSmall, /*keep_every=*/8), opt.seed, 768));
  const ModelContext ctx = ModelContext::FromDataset(*ds);
  const std::vector<MatchedTrajectory> truths = TruthsOf(ds->test());
  for (const char* key : {"linear_hmm", "rntrajrec"}) {
    SeedGlobalRng(kModelSeed);
    auto model = MakeModel(key, ctx, 24);
    const RecoveryMetrics m =
        EvaluateRecovery(ds->netdist(), RecoverAll(*model, ds->test()), truths);
    std::printf("%-12s (untrained where learned)  F1 %.4f  accuracy %.4f  "
                "MAE %.1f m\n",
                key, m.f1, m.accuracy, m.mae);
  }
  return 0;
}

}  // namespace

int RunReference(const Options& opt) {
  if (opt.workload == "serve_single_short") return ServeReference(opt);
  if (opt.workload == "train_small") return TrainReference(opt);
  std::fprintf(stderr, "no reference figures for %s\n", opt.workload.c_str());
  return 2;
}

}  // namespace perfbench
