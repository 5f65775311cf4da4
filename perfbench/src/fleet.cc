// fleet_busy_short: two fleet_worker processes on the bench-small profile,
// each loading a snapshot the benchmark writes, behind a FleetRouter in the
// benchmark process, with full micro-batches in flight.

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "perfbench/src/layers.h"
#include "perfbench/src/loadgen.h"
#include "src/common/random.h"
#include "src/core/rntrajrec.h"
#include "src/fleet/process.h"
#include "src/fleet/profiles.h"
#include "src/fleet/router.h"
#include "src/fleet/socket.h"
#include "src/fleet/wire.h"

namespace perfbench {

using namespace rntraj;

namespace {

constexpr int kWorkers = 2;
constexpr int kPoolSize = 400;
constexpr int kSetups = 5;

/// One set-up of the fleet. The destructor tears everything down — router
/// first, then every worker killed and reaped, then sockets and snapshot
/// removed — so a failed check or an early return leaves nothing behind.
struct FleetUniverse {
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<RnTrajRec> model;
  std::string snapshot_path;
  std::vector<pid_t> pids;
  std::vector<fleet::FleetWorkerEndpoints> endpoints;
  std::unique_ptr<fleet::FleetRouter> router;
  double dataset_s = 0.0;
  double road_rep_s = 0.0;
  double snapshot_write_s = 0.0;
  double snapshot_bytes = 0.0;
  double spawn_ready_s = 0.0;

  ~FleetUniverse() {
    if (router != nullptr) router->Shutdown();
    router.reset();
    for (pid_t pid : pids) fleet::KillWorkerProcess(pid);
    for (const auto& ep : endpoints) {
      std::remove(ep.data.substr(5).c_str());
      std::remove(ep.control.substr(5).c_str());
    }
    if (!snapshot_path.empty()) std::remove(snapshot_path.c_str());
  }
};

/// One worker's telemetry over its control endpoint (the wire codec's
/// metrics query). Blocks until the worker has finished starting up.
bool PullWorkerMetrics(const std::string& control, obs::MetricsSnapshot* out,
                       std::string* error) {
  fleet::Socket s;
  fleet::FrameHeader header;
  std::string payload;
  if (!fleet::ConnectTo(control, &s, error) ||
      !fleet::SendFrame(s, fleet::BuildMetricsQueryFrame(), error)) {
    return false;
  }
  if (fleet::PollReadable(s, /*timeout_ms=*/120000) <= 0) {
    *error = "no metrics reply from " + control;
    return false;
  }
  if (!fleet::RecvFrame(s, &header, &payload, error)) return false;
  if (header.type != fleet::FrameType::kMetricsReply) {
    *error = "unexpected reply frame";
    return false;
  }
  return fleet::DecodeMetricsReplyPayload(payload.data(), payload.size(), out,
                                          error);
}

std::unique_ptr<FleetUniverse> SetUp(const fleet::FleetProfile& profile,
                                     const std::string& dir, int index,
                                     SpanRecorder* rec, std::string* error) {
  ScopedSpan setup(rec, "bench.setup");
  auto u = std::make_unique<FleetUniverse>();
  auto t0 = Clock::now();
  {
    ScopedSpan s(rec, "sim.BuildDataset", setup.index());
    u->ds = BuildDataset(CityOnly(profile.dataset));
  }
  u->dataset_s = SecondsSince(t0);
  {
    ScopedSpan s(rec, "core.RnTrajRec", setup.index());
    SeedGlobalRng(kModelSeed);
    u->model = std::make_unique<RnTrajRec>(profile.model,
                                           ModelContext::FromDataset(*u->ds));
    u->model->SetTrainingMode(false);
  }
  t0 = Clock::now();
  {
    ScopedSpan s(rec, "core.BeginInference", setup.index());
    u->model->BeginInference();
  }
  u->road_rep_s = SecondsSince(t0);

  const std::string tag = dir + "/s" + std::to_string(index);
  u->snapshot_path = tag + ".snapshot";
  t0 = Clock::now();
  {
    ScopedSpan s(rec, "snapshot.SaveSnapshot", setup.index());
    if (!u->model->SaveSnapshot(u->snapshot_path, error)) return nullptr;
  }
  u->snapshot_write_s = SecondsSince(t0);
  struct stat st {};
  if (::stat(u->snapshot_path.c_str(), &st) == 0) {
    u->snapshot_bytes = static_cast<double>(st.st_size);
  }

  t0 = Clock::now();
  fleet::FleetRouterConfig rcfg;
  for (int w = 0; w < kWorkers; ++w) {
    ScopedSpan s(rec, "fleet.SpawnWorkerProcess", setup.index());
    fleet::WorkerSpawn spawn;
    spawn.profile = "bench-small";
    spawn.snapshot_path = u->snapshot_path;
    spawn.data_endpoint = "unix:" + tag + "_w" + std::to_string(w) + ".sock";
    spawn.control_endpoint = "unix:" + tag + "_w" + std::to_string(w) + ".ctl";
    u->endpoints.push_back({spawn.data_endpoint, spawn.control_endpoint});
    pid_t pid = 0;
    if (!fleet::SpawnWorkerProcess(spawn, &pid, error)) return nullptr;
    u->pids.push_back(pid);
  }
  rcfg.workers = u->endpoints;
  {
    ScopedSpan s(rec, "fleet.WaitForAlive", setup.index());
    u->router = std::make_unique<fleet::FleetRouter>(rcfg);
    if (!u->router->WaitForAlive(kWorkers, /*timeout_ms=*/120000)) {
      *error = "fleet workers never came up";
      return nullptr;
    }
  }
  // Data connections are accepted from the listen backlog while a worker is
  // still building its state; a control round trip returns only once the
  // worker serves.
  for (const auto& ep : u->endpoints) {
    ScopedSpan s(rec, "fleet.control.metrics", setup.index());
    obs::MetricsSnapshot snap;
    if (!PullWorkerMetrics(ep.control, &snap, error)) return nullptr;
  }
  u->spawn_ready_s = SecondsSince(t0);
  return u;
}

/// Benchmark-side timing of the wire codec at the workload's message
/// shapes: each answered request is re-encoded and decoded.
struct WireProbe {
  std::vector<double> request_bytes, response_bytes, encode_us, decode_us;

  void OnResponse(const serve::RecoveryRequest& req,
                  const serve::RecoveryResponse& resp, Result* result) {
    auto t0 = Clock::now();
    const std::string req_frame =
        fleet::BuildRequestFrame(1, fleet::EncodeRequestBody(req));
    encode_us.push_back(1e6 * SecondsSince(t0));
    request_bytes.push_back(static_cast<double>(req_frame.size()));
    const std::string resp_frame = fleet::BuildResponseFrame(1, resp);
    response_bytes.push_back(static_cast<double>(resp_frame.size()));
    uint64_t cid = 0;
    serve::RecoveryResponse decoded;
    std::string error;
    t0 = Clock::now();
    const bool ok = fleet::DecodeResponsePayload(
        resp_frame.data() + fleet::kFrameHeaderBytes,
        resp_frame.size() - fleet::kFrameHeaderBytes, &cid, &decoded, &error);
    decode_us.push_back(1e6 * SecondsSince(t0));
    if (!ok || decoded.recovered.points.size() != resp.recovered.points.size()) {
      result->Fail("wire round trip of a response failed: " + error);
    }
  }
};

}  // namespace

Result RunFleetBusyShort(const Options& opt) {
  Result result;
  SpanRecorder rec(opt.trace);
  fleet::FleetProfile profile;
  std::string error;
  fleet::LookupFleetProfile("bench-small", &profile, &error);

  std::unique_ptr<Dataset> pool_ds;
  {
    ScopedSpan s(&rec, "sim.BuildDataset.pool");
    pool_ds = BuildDataset(PoolConfig(profile.dataset, opt.seed, kPoolSize));
  }
  std::vector<PoolEntry> pool = PoolFromSamples(pool_ds->test());

  SetupTimes setup;
  std::vector<double> dataset_s, road_rep_s, snap_s, snap_bytes, ready_s;
  std::unique_ptr<FleetUniverse> u;
  for (int r = 0; r < kSetups; ++r) {
    u.reset();
    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    u = SetUp(profile, opt.run_dir, r, &rec, &error);
    if (u == nullptr) {
      std::fprintf(stderr, "fleet set-up failed: %s\n", error.c_str());
      result.Fail("fleet set-up failed: " + error);
      return result;
    }
    // Set-up CPU counts the fresh workers' start-up too.
    double cpu = ProcessCpuSeconds() - cpu0;
    for (pid_t pid : u->pids) cpu += ChildCpuSeconds(pid);
    setup.cpu_s.push_back(cpu);
    setup.wall_s.push_back(SecondsSince(t0));
    dataset_s.push_back(u->dataset_s);
    road_rep_s.push_back(u->road_rep_s);
    snap_s.push_back(u->snapshot_write_s);
    snap_bytes.push_back(u->snapshot_bytes);
    ready_s.push_back(u->spawn_ready_s);
  }
  const int num_segments = u->ds->roadnet().num_segments();
  {
    ScopedSpan s(&rec, "bench.reference");
    ComputeReferences(profile.model, *u->ds, &pool);
    ComputeAllowedSegments(*u->ds, profile.model.decoder.mask_radius, &pool);
  }

  // CPU per request counts the workers' CPU too.
  auto worker_cpu = [&] {
    double s = 0.0;
    for (pid_t pid : u->pids) s += ChildCpuSeconds(pid);
    return s;
  };
  // Traced runs: worker telemetry, the merged fleet view and router stats
  // at the window's edges.
  struct Edge {
    std::vector<obs::MetricsSnapshot> workers;
    obs::MetricsSnapshot fleet;
    fleet::FleetStats stats;
  };
  auto read_edge = [&](Edge* e) {
    if (!opt.trace) return;
    for (const auto& ep : u->endpoints) {
      obs::MetricsSnapshot snap;
      std::string err;
      if (!PullWorkerMetrics(ep.control, &snap, &err)) {
        result.Fail("worker metrics: " + err);
      }
      e->workers.push_back(std::move(snap));
    }
    e->fleet = u->router->FleetMetrics(&error);
    e->stats = u->router->Stats();
  };

  Edge e0, e1;
  ServeLayerProbe probe(&rec);
  WireProbe wire;
  LoadSpec load;
  load.inflight = 2 * kWorkers * profile.service.num_sessions *
                  profile.service.batcher.max_batch_size;
  load.warmup_s = 1.0;
  load.window_s = opt.seconds;
  fleet::FleetRouter* router = u->router.get();
  const LoadOutcome lo = RunClosedLoop(
      pool, ShuffledOrder(kPoolSize, opt.seed), num_segments, load,
      [&](serve::RecoveryRequest req) { return router->Submit(std::move(req)); },
      LoadHooks{[&](const serve::RecoveryResponse& resp, int entry, double ms,
                    Clock::time_point submitted, bool in_window) {
                  probe.OnResponse(resp, ms, submitted, in_window);
                  if (opt.trace && in_window && resp.ok) {
                    wire.OnResponse(pool[static_cast<size_t>(entry)].request,
                                    resp, &result);
                  }
                },
                worker_cpu, [&] { read_edge(&e0); },
                [&] { read_edge(&e1); }},
      &result);

  const fleet::FleetStats stats = router->Stats();
  int64_t answered = 0;
  for (const auto& w : stats.workers) answered += w.answered;
  if (stats.submitted != lo.attempted || answered < lo.ok) {
    result.Fail("FleetStats submitted/answered " +
                std::to_string(stats.submitted) + "/" +
                std::to_string(answered) + " != client " +
                std::to_string(lo.attempted));
  }
  double peak_rss = PeakRssMb();
  for (pid_t pid : u->pids) peak_rss = std::max(peak_rss, PeakRssMb(pid));

  result.attempted = lo.attempted;
  result.failed = lo.failed;
  std::vector<MatchedTrajectory> refs, truths;
  for (const PoolEntry& e : pool) {
    refs.push_back(e.reference);
    truths.push_back(e.truth);
  }
  ScoreAndCheckQuality(u->ds->netdist(), u->ds->roadnet(), refs, truths,
                       &result);
  SetServingMetrics(lo, setup, peak_rss, &result);

  if (opt.trace) {
    LayerInputs li;
    li.window_s = lo.window_s;
    li.sessions = kWorkers * profile.service.num_sessions;
    li.steps = static_cast<int>(pool[0].request.target_times.size());
    li.num_segments = num_segments;
    li.dataset_s = Median(dataset_s);
    li.road_rep_s = Median(road_rep_s);
    li.gemm_rows = profile.service.batcher.max_batch_size;
    li.dim = profile.model.dim;
    probe.Finish(SumSnapshots(e0.workers), SumSnapshots(e1.workers), li,
                 &result);

    result.Set("snapshot.write_s", Median(snap_s), "s");
    result.Set("snapshot.bytes", Median(snap_bytes), "bytes");
    result.Set("fleet.spawn_ready_s", Median(ready_s), "s");
    result.Set("fleet.wire.request_bytes", Mean(wire.request_bytes), "bytes");
    result.Set("fleet.wire.response_bytes", Mean(wire.response_bytes),
               "bytes");
    result.Set("fleet.wire.encode_us", Median(wire.encode_us), "us");
    result.Set("fleet.wire.decode_us", Median(wire.decode_us), "us");

    const auto h1 = e1.fleet.histograms.find("serve.latency_ms");
    const auto h0 = e0.fleet.histograms.find("serve.latency_ms");
    double worker_p50 = 0.0;
    if (h1 != e1.fleet.histograms.end() && h0 != e0.fleet.histograms.end()) {
      worker_p50 = h1->second.Delta(h0->second).Quantile(0.5);
    }
    result.Set("fleet.worker_latency_ms.p50", worker_p50, "ms");
    // Per response, not client p50 minus worker p50: the merged histogram's
    // quantile is a bucket edge, up to 5% (~4 ms here) above the sample.
    result.Set("fleet.router_overhead_ms.p50", probe.unattributed_p50_ms(),
               "ms");

    std::vector<double> busy, answered_in_window;
    for (size_t w = 0; w < e1.workers.size() && w < e0.workers.size(); ++w) {
      const auto g1 = e1.workers[w].gauges.find("serve.sessions.busy_seconds");
      const auto g0 = e0.workers[w].gauges.find("serve.sessions.busy_seconds");
      if (g1 != e1.workers[w].gauges.end() &&
          g0 != e0.workers[w].gauges.end()) {
        busy.push_back((g1->second - g0->second) / lo.window_s);
      }
    }
    for (size_t w = 0; w < e1.stats.workers.size(); ++w) {
      answered_in_window.push_back(static_cast<double>(
          e1.stats.workers[w].answered - e0.stats.workers[w].answered));
    }
    result.Set("fleet.worker_busy_frac", Mean(busy), "ratio");
    const double mean_answered = Mean(answered_in_window);
    result.Set("fleet.shard_imbalance",
               mean_answered > 0.0
                   ? *std::max_element(answered_in_window.begin(),
                                       answered_in_window.end()) /
                         mean_answered
                   : 0.0,
               "ratio");
    result.Set("fleet.rerouted",
               static_cast<double>(e1.stats.rerouted - e0.stats.rerouted),
               "count");
  }
  u.reset();  // workers killed and reaped, files removed
  FinishRun(opt, rec);
  return result;
}

}  // namespace perfbench
