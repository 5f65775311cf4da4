#include "perfbench/src/layers.h"

#include <cstdio>
#include <cstring>
#include <sys/stat.h>

#include "src/common/random.h"
#include "src/obs/stage_profiler.h"
#include "src/serve/workload.h"

namespace perfbench {

using namespace rntraj;

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"}, {"cpu_ms_per_req", "ms"}, {"peak_rss_mb", "MB"},
      {"f1", "ratio"},  {"accuracy", "ratio"},    {"mae_m", "m"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"sim.dataset_build_s", "s"},
      {"core.road_rep_s", "s"},
      {"snapshot.write_s", "s"},
      {"snapshot.bytes", "bytes"},
      {"fleet.spawn_ready_s", "s"},
      {"serve.queue_ms.p50", "ms"},
      {"serve.infer_ms.p50", "ms"},
      {"serve.unattributed_ms.mean", "ms"},
      {"serve.batch_size.mean", "count"},
      {"serve.session_busy_frac", "ratio"},
      {"serve.cache.hit_ratio", "ratio"},
      {"tensor.buffer_pool.hit_ratio", "ratio"},
      {"tensor.buffer_pool.cached_mb", "MB"},
      {"core.subgraph_ms_per_req", "ms"},
      {"core.transformer_ms_per_req", "ms"},
      {"core.gat_ms_per_req", "ms"},
      {"core.grl_ms_per_req", "ms"},
      {"core.constraint_mask_ms_per_req", "ms"},
      {"core.decoder_ms_per_req", "ms"},
      {"core.unstaged_ms_per_req", "ms"},
      {"core.encode_ms.p50", "ms"},
      {"core.decode_ms.p50", "ms"},
      {"core.mask_mb_per_batch", "MB"},
      {"tensor.matmul_gflops", "GFLOP/s"},
      {"fleet.wire.request_bytes", "bytes"},
      {"fleet.wire.response_bytes", "bytes"},
      {"fleet.wire.encode_us", "us"},
      {"fleet.wire.decode_us", "us"},
      {"fleet.worker_latency_ms.p50", "ms"},
      {"fleet.router_overhead_ms.p50", "ms"},
      {"fleet.worker_busy_frac", "ratio"},
      {"fleet.shard_imbalance", "ratio"},
      {"fleet.rerouted", "count"},
      {"core.train.samples_per_s", "1/s"},
      {"core.train.epoch_s", "s"},
      {"core.train.subgraph_ms_per_sample", "ms"},
      {"core.train.transformer_ms_per_sample", "ms"},
      {"core.train.gat_ms_per_sample", "ms"},
      {"core.train.grl_ms_per_sample", "ms"},
      {"core.train.constraint_mask_ms_per_sample", "ms"},
      {"core.train.decoder_ms_per_sample", "ms"},
      {"core.train.unstaged_ms_per_sample", "ms"},
      {"core.train.final_loss", "loss"},
  };
  return kDefs;
}

DatasetConfig CityOnly(DatasetConfig cfg) {
  cfg.num_train = 0;
  cfg.num_val = 0;
  cfg.num_test = 0;
  return cfg;
}

uint64_t MixSeed(uint64_t seed) {
  // splitmix64 finaliser.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

DatasetConfig PoolConfig(DatasetConfig cfg, uint64_t seed, int n) {
  cfg = CityOnly(cfg);
  cfg.seed = MixSeed(seed);
  cfg.num_test = n;
  return cfg;
}

std::vector<PoolEntry> PoolFromSamples(
    const std::vector<TrajectorySample>& samples) {
  std::vector<PoolEntry> pool;
  pool.reserve(samples.size());
  for (const TrajectorySample& s : samples) {
    PoolEntry e;
    e.request = serve::RequestFromSample(s);
    e.truth = s.truth;
    pool.push_back(std::move(e));
  }
  return pool;
}

MatchedTrajectory RecoverAlone(RecoveryModel& model,
                               const serve::RecoveryRequest& r) {
  const TrajectorySample eph =
      MakeEphemeralSample(r.input, r.input_indices, r.target_times);
  return model.Recover(eph);
}

void ComputeReferences(const RnTrajRecConfig& cfg, const Dataset& ds,
                       std::vector<PoolEntry>* pool) {
  SeedGlobalRng(kModelSeed);
  RnTrajRec ref(cfg, ModelContext::FromDataset(ds));
  ref.SetTrainingMode(false);
  ref.BeginInference();
  for (PoolEntry& e : *pool) e.reference = RecoverAlone(ref, e.request);
}

void SetServingMetrics(const LoadOutcome& lo, const SetupTimes& setup,
                       double peak_rss_mb, Result* result) {
  // CPU over the whole window: a slice holds only a few batches of
  // busy_long, so its CPU per request swings with where a batch ends. The
  // wall-clock figures are interquartile means over slices, so a stall of
  // the host inside a few slices does not move them.
  std::vector<double> p50, rps, all;
  double cpu_s = 0.0;
  for (const Slice& s : lo.slices) {
    p50.push_back(Percentile(s.latency_ms, 0.50));
    rps.push_back(static_cast<double>(s.ok) / s.seconds);
    all.insert(all.end(), s.latency_ms.begin(), s.latency_ms.end());
    cpu_s += s.cpu_s;
  }
  result->Set("setup_s", Median(setup.cpu_s), "s");
  result->Set("cpu_ms_per_req",
              1000.0 * cpu_s /
                  static_cast<double>(std::max<int64_t>(1, lo.ok_in_window)),
              "ms");
  result->Set("peak_rss_mb", peak_rss_mb, "MB");
  // Wall-clock figures are reported, not gated: they move with the CPU time
  // the host steals from this machine more than with the program.
  std::fprintf(stderr,
               "wall clock: window %.3f s in %zu slices, %lld ok (%lld "
               "attempted in run); throughput %.2f req/s, latency p50 %.3f "
               "ms, p90 %.3f ms, p99 %.3f ms; set-up %.4f s\n",
               lo.window_s, lo.slices.size(),
               static_cast<long long>(lo.ok_in_window),
               static_cast<long long>(lo.attempted), InterquartileMean(rps),
               InterquartileMean(p50), Percentile(all, 0.90),
               Percentile(all, 0.99), Median(setup.wall_s));
}

// ---------------------------------------------------------------------------

void ServeLayerProbe::OnResponse(const serve::RecoveryResponse& resp,
                                 double latency_ms,
                                 Clock::time_point submitted, bool in_window) {
  if (!rec_->enabled() || !resp.ok || !in_window) return;
  latency_ms_.push_back(latency_ms);
  // infer_ms is the request's share of its batch's forward; the request
  // waits for the whole forward.
  unattributed_ms_.push_back(latency_ms - resp.queue_ms -
                             resp.infer_ms * std::max(1, resp.batch_size));
  const int64_t id = next_request_++;
  const int64_t t0 = rec_->ToNs(submitted);
  const int root = rec_->Add(
      "serve.request", t0, t0 + static_cast<int64_t>(latency_ms * 1e6), -1,
      id);
  if (resp.trace == nullptr) return;
  // The service's own span tree, re-based onto the client's clock (its
  // trace starts inside Submit, a few microseconds after `submitted`).
  const auto& spans = resp.trace->spans();
  std::vector<int> index(spans.size(), root);
  for (size_t i = 1; i < spans.size(); ++i) {
    const obs::TraceSpan& s = spans[i];
    const int parent = s.parent > 0 ? index[static_cast<size_t>(s.parent)] : root;
    index[i] = rec_->Add(std::string("serve.") + s.name, t0 + s.start_ns,
                         t0 + s.end_ns, parent, id);
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (std::strcmp(s.name, "forward.encode") == 0) encode_ms_.push_back(ms);
    if (std::strcmp(s.name, "forward.decode") == 0) decode_ms_.push_back(ms);
  }
}

namespace {

int64_t Counter(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double Gauge(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

obs::HistogramSnapshot HistDelta(const obs::MetricsSnapshot& before,
                                 const obs::MetricsSnapshot& after,
                                 const std::string& name) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return {};
  const auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return a->second;
  return a->second.Delta(b->second);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void ServeLayerProbe::Finish(const obs::MetricsSnapshot& before,
                             const obs::MetricsSnapshot& after,
                             const LayerInputs& in, Result* result) const {
  auto dc = [&](const std::string& n) {
    return static_cast<double>(Counter(after, n) - Counter(before, n));
  };
  auto dg = [&](const std::string& n) {
    return Gauge(after, n) - Gauge(before, n);
  };
  const obs::HistogramSnapshot queue = HistDelta(before, after, "serve.queue_ms");
  const obs::HistogramSnapshot infer = HistDelta(before, after, "serve.infer_ms");
  const double answered = static_cast<double>(infer.TotalCount());
  const double window_s = std::max(1e-9, in.window_s);

  result->Set("sim.dataset_build_s", in.dataset_s, "s");
  result->Set("core.road_rep_s", in.road_rep_s, "s");
  result->Set("serve.queue_ms.p50", queue.Quantile(0.5), "ms");
  result->Set("serve.infer_ms.p50", infer.Quantile(0.5), "ms");
  result->Set("serve.unattributed_ms.mean", Mean(unattributed_ms_), "ms");
  const double batch_mean =
      Ratio(dc("serve.session_requests"), dc("serve.batches"));
  result->Set("serve.batch_size.mean", batch_mean, "count");
  result->Set("serve.session_busy_frac",
              dg("serve.sessions.busy_seconds") / (window_s * in.sessions),
              "ratio");
  result->Set("serve.cache.hit_ratio",
              Ratio(dc("serve.cache.hits"),
                    dc("serve.cache.hits") + dc("serve.cache.misses")),
              "ratio");
  result->Set("tensor.buffer_pool.hit_ratio",
              Ratio(dc("tensor.bufpool.hits"),
                    dc("tensor.bufpool.hits") + dc("tensor.bufpool.misses")),
              "ratio");
  result->Set("tensor.buffer_pool.cached_mb",
              Gauge(after, "tensor.bufpool.cached_bytes") / 1e6, "MB");

  double staged_ms = 0.0;
  bool have_stages = false;
  for (int i = 0; i < obs::kStageCount; ++i) {
    const std::string stage = obs::StageName(static_cast<obs::Stage>(i));
    const std::string key = "stage." + stage + ".total_ms";
    have_stages = have_stages || after.gauges.count(key) > 0;
    const double ms = dg(key);
    staged_ms += ms;
    result->Set("core." + stage + "_ms_per_req", Ratio(ms, answered), "ms");
  }
  // Without stage telemetry there is nothing to subtract from.
  result->Set("core.unstaged_ms_per_req",
              have_stages ? Ratio(infer.sum - staged_ms, answered) : 0.0,
              "ms");
  result->Set("core.encode_ms.p50", Median(encode_ms_), "ms");
  result->Set("core.decode_ms.p50", Median(decode_ms_), "ms");
  result->Set("core.mask_mb_per_batch",
              static_cast<double>(in.steps) * in.num_segments * 4.0 *
                  batch_mean / 1e6,
              "MB");
  result->Set("tensor.matmul_gflops",
              GemmGflops(in.gemm_rows, in.dim, in.num_segments), "GFLOP/s");
}

obs::MetricsSnapshot SumSnapshots(
    const std::vector<obs::MetricsSnapshot>& snaps) {
  obs::MetricsSnapshot out;
  for (const obs::MetricsSnapshot& s : snaps) {
    for (const auto& [k, v] : s.counters) out.counters[k] += v;
    for (const auto& [k, v] : s.gauges) out.gauges[k] += v;
    for (const auto& [k, h] : s.histograms) {
      auto it = out.histograms.find(k);
      if (it == out.histograms.end()) {
        out.histograms[k] = h;
      } else {
        it->second.Merge(h);
      }
    }
  }
  return out;
}

void FinishRun(const Options& opt, const SpanRecorder& rec) {
  if (!rec.enabled()) return;
  const std::string dir = ".bench_out";
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/trace-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  if (!rec.WriteJson(path)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
  std::fprintf(stderr, "spans: %zu written to %s\nself time by span:\n",
               rec.spans().size(), path.c_str());
  for (const auto& [name, st] : rec.SelfTimes()) {
    std::fprintf(stderr, "  %-36s %10.2f ms  x%lld\n", name.c_str(), st.first,
                 static_cast<long long>(st.second));
  }
}

}  // namespace perfbench
