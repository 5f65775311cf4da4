// In-process serving workloads: serve_single_short (one request in flight
// on the small Chengdu city) and serve_busy_long (full micro-batches of
// long grids on the largest preset city).

#include <cstdio>
#include <memory>

#include "perfbench/src/layers.h"
#include "perfbench/src/loadgen.h"
#include "src/baselines/zoo.h"
#include "src/common/random.h"
#include "src/core/rntrajrec.h"
#include "src/fleet/profiles.h"
#include "src/serve/recovery_service.h"
#include "src/sim/presets.h"

namespace perfbench {

using namespace rntraj;

namespace {

struct InProcessSpec {
  DatasetConfig city;  ///< Serving city; its sample counts are ignored.
  RnTrajRecConfig model;
  serve::RecoveryServiceConfig service;
  int pool_size = 0;
  int inflight = 1;
  int setups = 3;
  double warmup_s = 0.5;
};

/// One set-up of the serving universe: city + indexes, model, cold road
/// representation, service. Members are declared in destruction order.
struct InProcessUniverse {
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<RnTrajRec> model;
  std::unique_ptr<serve::RecoveryService> service;
  double dataset_s = 0.0;
  double road_rep_s = 0.0;
};

std::unique_ptr<InProcessUniverse> SetUp(const InProcessSpec& spec,
                                         SpanRecorder* rec) {
  ScopedSpan setup(rec, "bench.setup");
  auto u = std::make_unique<InProcessUniverse>();
  auto t0 = Clock::now();
  {
    ScopedSpan s(rec, "sim.BuildDataset", setup.index());
    u->ds = BuildDataset(CityOnly(spec.city));
  }
  u->dataset_s = SecondsSince(t0);
  const ModelContext ctx = ModelContext::FromDataset(*u->ds);
  {
    ScopedSpan s(rec, "core.RnTrajRec", setup.index());
    SeedGlobalRng(kModelSeed);
    u->model = std::make_unique<RnTrajRec>(spec.model, ctx);
    u->model->SetTrainingMode(false);
  }
  t0 = Clock::now();
  {
    ScopedSpan s(rec, "core.BeginInference", setup.index());
    u->model->BeginInference();
  }
  u->road_rep_s = SecondsSince(t0);
  {
    ScopedSpan s(rec, "serve.RecoveryService", setup.index());
    serve::RecoveryServiceConfig scfg = spec.service;
    scfg.warm_model = false;  // warmed above, so its cost is visible
    u->service =
        std::make_unique<serve::RecoveryService>(u->model.get(), ctx, scfg);
  }
  return u;
}

Result RunInProcess(const Options& opt, InProcessSpec spec) {
  Result result;
  SpanRecorder rec(opt.trace);
  if (opt.trace) {
    spec.service.trace.sample_rate = 1.0;
    spec.service.profile_stages = true;
  }

  // Inputs: the request pool, simulated on the same city from the seed.
  std::unique_ptr<Dataset> pool_ds;
  {
    ScopedSpan s(&rec, "sim.BuildDataset.pool");
    pool_ds = BuildDataset(PoolConfig(spec.city, opt.seed, spec.pool_size));
  }
  std::vector<PoolEntry> pool = PoolFromSamples(pool_ds->test());

  // Set-up, several times; the last universe serves.
  SetupTimes setup;
  std::vector<double> dataset_s, road_rep_s;
  std::unique_ptr<InProcessUniverse> u;
  for (int r = 0; r < spec.setups; ++r) {
    u.reset();
    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    u = SetUp(spec, &rec);
    setup.cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    setup.wall_s.push_back(SecondsSince(t0));
    dataset_s.push_back(u->dataset_s);
    road_rep_s.push_back(u->road_rep_s);
  }
  const int num_segments = u->ds->roadnet().num_segments();
  std::fprintf(stderr,
               "%s: %d segments, %zu-step grids, 1 point in %d kept, %d "
               "distinct requests, %d in flight, %d session(s)\n",
               spec.city.name.c_str(), num_segments,
               pool[0].request.target_times.size(), spec.city.keep_every,
               spec.pool_size, spec.inflight, spec.service.num_sessions);

  // Expected answers, apart from the service: a second model with the same
  // weights answers each request alone, and the constraint-mask candidates
  // come from the benchmark's own radius queries.
  {
    ScopedSpan s(&rec, "bench.reference");
    ComputeReferences(spec.model, *u->ds, &pool);
    ComputeAllowedSegments(*u->ds, spec.model.decoder.mask_radius, &pool);
  }

  ServeLayerProbe probe(&rec);
  obs::MetricsSnapshot m0, m1;
  LoadSpec load;
  load.inflight = spec.inflight;
  load.warmup_s = spec.warmup_s;
  load.window_s = opt.seconds;
  serve::RecoveryService* service = u->service.get();
  const LoadOutcome lo = RunClosedLoop(
      pool, ShuffledOrder(spec.pool_size, opt.seed), num_segments, load,
      [&](serve::RecoveryRequest req) { return service->Submit(std::move(req)); },
      LoadHooks{[&](const serve::RecoveryResponse& resp, int, double ms,
                    Clock::time_point submitted, bool in_window) {
                  probe.OnResponse(resp, ms, submitted, in_window);
                },
                nullptr, [&] { m0 = service->Metrics(); },
                [&] { m1 = service->Metrics(); }},
      &result);
  service->Shutdown();

  // The service's own accounting must agree with the client's.
  const serve::ServeStats stats = service->Stats();
  if (stats.ok != lo.ok || stats.submitted != lo.attempted) {
    result.Fail("ServeStats ok/submitted " + std::to_string(stats.ok) + "/" +
                std::to_string(stats.submitted) + " != client " +
                std::to_string(lo.ok) + "/" + std::to_string(lo.attempted));
  }

  result.attempted = lo.attempted;
  result.failed = lo.failed;
  std::vector<MatchedTrajectory> refs, truths;
  for (const PoolEntry& e : pool) {
    refs.push_back(e.reference);
    truths.push_back(e.truth);
  }
  ScoreAndCheckQuality(u->ds->netdist(), u->ds->roadnet(), refs, truths,
                       &result);
  SetServingMetrics(lo, setup, PeakRssMb(), &result);

  if (opt.trace) {
    const int steps = static_cast<int>(pool[0].request.target_times.size());
    LayerInputs li;
    li.window_s = lo.window_s;
    li.sessions = spec.service.num_sessions;
    li.steps = steps;
    li.num_segments = num_segments;
    li.dataset_s = Median(dataset_s);
    li.road_rep_s = Median(road_rep_s);
    li.gemm_rows = spec.service.batcher.max_batch_size;
    li.dim = spec.model.dim;
    probe.Finish(m0, m1, li, &result);
  }
  FinishRun(opt, rec);
  return result;
}

}  // namespace

Result RunServeSingleShort(const Options& opt) {
  fleet::FleetProfile profile;
  std::string error;
  fleet::LookupFleetProfile("bench-small", &profile, &error);
  InProcessSpec spec;
  spec.city = profile.dataset;
  spec.model = profile.model;
  spec.service = profile.service;
  spec.pool_size = 400;
  spec.inflight = 1;
  spec.setups = 7;
  spec.warmup_s = 0.5;
  return RunInProcess(opt, spec);
}

Result RunServeBusyLong(const Options& opt) {
  fleet::FleetProfile profile;
  std::string error;
  fleet::LookupFleetProfile("bench-small", &profile, &error);
  InProcessSpec spec;
  spec.city = ShanghaiLConfig(BenchScale::kFull, /*keep_every=*/16);
  spec.city.sim.len_rho = 256;  // steps per request
  spec.model = DefaultRnTrajRecConfig(24);
  spec.service = profile.service;
  spec.service.num_sessions = serve::RecoveryServiceConfig{}.num_sessions;
  spec.pool_size = 96;
  // Twice what the sessions can hold: a session that finishes a batch finds
  // the next one already queued, so micro-batches stay full.
  spec.inflight = 2 * spec.service.num_sessions *
                  spec.service.batcher.max_batch_size;
  spec.setups = 5;
  spec.warmup_s = 1.0;
  return RunInProcess(opt, spec);
}

}  // namespace perfbench
