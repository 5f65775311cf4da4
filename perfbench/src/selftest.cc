// Self-tests of the benchmark's own arithmetic and checks: the percentile
// rule against obs::ExactQuantile, the load generator's accounting, the
// independent F1/accuracy code on hand-computed cases, and every output
// check against corrupted answers.

#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <random>

#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/loadgen.h"
#include "src/core/trainer.h"
#include "src/obs/quantile.h"
#include "src/sim/presets.h"

namespace perfbench {

using namespace rntraj;

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

MatchedTrajectory Traj(const std::vector<int>& segs,
                       const std::vector<double>& ratios = {}) {
  MatchedTrajectory m;
  for (size_t i = 0; i < segs.size(); ++i) {
    m.points.push_back({segs[i], ratios.empty() ? 0.5 : ratios[i],
                        12.0 * static_cast<double>(i)});
  }
  return m;
}

void TestPercentile() {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  bool all = true;
  for (int n : {1, 2, 3, 10, 99, 100, 101, 1000}) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(u(rng));
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      all = all && Percentile(v, q) == obs::ExactQuantile(v, q);
    }
  }
  Expect(all, "Percentile matches obs::ExactQuantile (8 sizes x 8 ranks)");
  Expect(Percentile({}, 0.5) == 0.0 && obs::ExactQuantile({}, 0.5) == 0.0,
         "empty input reads 0 in both");
  Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.0,
         "median of 4 samples is the lower middle (rank rule)");
  Expect(InterquartileMean({100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0}) ==
             3.5,
         "interquartile mean of 8 drops 2 from each end");
  Expect(InterquartileMean({7.0, 9.0, 8.0}) == 8.0,
         "interquartile mean of 3 keeps all (floor(3/4) = 0)");
}

void TestQualityByHand() {
  // truth set {1,2,3}, prediction set {1,2,4}: recall = precision = 2/3.
  const MatchedTrajectory truth = Traj({1, 1, 2, 3});
  const MatchedTrajectory pred = Traj({1, 2, 2, 4});
  Expect(std::abs(PathF1(truth, pred) - 2.0 / 3.0) < 1e-12,
         "F1 of {1,2,3} vs {1,2,4} is 2/3");
  Expect(PathF1(truth, truth) == 1.0, "F1 of a path with itself is 1");
  Expect(PathF1(truth, Traj({7, 8, 9, 9})) == 0.0, "F1 of disjoint paths is 0");
  // truth set {1,2}, prediction set {1}: recall 1/2, precision 1, F1 2/3.
  Expect(std::abs(PathF1(Traj({1, 2}), Traj({1, 1})) - 2.0 / 3.0) < 1e-12,
         "F1 with recall 1/2 and precision 1 is 2/3");
  const Quality q = IndependentQuality({pred, truth}, {truth, truth});
  // Accuracy per trajectory: 2/4 and 4/4; F1: 2/3 and 1.
  Expect(std::abs(q.accuracy - 0.75) < 1e-12, "mean accuracy of (2/4, 4/4)");
  Expect(std::abs(q.f1 - (2.0 / 3.0 + 1.0) / 2.0) < 1e-12,
         "mean F1 of (2/3, 1)");
}

void TestQualityAgainstEvaluateRecovery() {
  DatasetConfig cfg = ChengduConfig(BenchScale::kTiny);
  cfg.num_train = 0;
  cfg.num_val = 0;
  cfg.num_test = 12;
  auto ds = BuildDataset(cfg);
  const std::vector<MatchedTrajectory> truths = TruthsOf(ds->test());
  // Predictions: each truth with every third point moved to the next
  // trajectory's segment.
  std::vector<MatchedTrajectory> preds = truths;
  for (size_t i = 0; i < preds.size(); ++i) {
    const MatchedTrajectory& other = truths[(i + 1) % truths.size()];
    for (size_t j = 0; j < preds[i].points.size(); j += 3) {
      preds[i].points[j].seg_id = other.points[j % other.points.size()].seg_id;
    }
  }
  Result r;
  ScoreAndCheckQuality(ds->netdist(), ds->roadnet(), preds, truths, &r);
  Expect(r.correct, "independent F1/accuracy match EvaluateRecovery; MAE >= "
                    "straight-line error");
  Expect(MeanStraightLineError(ds->roadnet(), truths, truths) == 0.0,
         "straight-line error of the truth is 0");

  RecoveryMetrics m = EvaluateRecovery(ds->netdist(), preds, truths);
  const Quality q = IndependentQuality(preds, truths);
  const double straight = MeanStraightLineError(ds->roadnet(), preds, truths);
  RecoveryMetrics bad = m;
  bad.f1 += 1e-3;
  Result r1;
  CompareQuality(bad, q, straight, &r1);
  Expect(!r1.correct, "quality check catches a wrong F1");
  bad = m;
  bad.accuracy -= 1e-3;
  Result r2;
  CompareQuality(bad, q, straight, &r2);
  Expect(!r2.correct, "quality check catches a wrong accuracy");
  bad = m;
  bad.mae = straight * 0.5;
  Result r3;
  CompareQuality(bad, q, straight, &r3);
  Expect(!r3.correct, "quality check catches an MAE below straight-line");
}

PoolEntry SyntheticEntry() {
  PoolEntry e;
  e.request.target_times = {0.0, 12.0, 24.0, 36.0};
  e.request.input.points = {{{0.0, 0.0}, 0.0}, {{10.0, 0.0}, 24.0}};
  e.request.input_indices = {0, 2};
  e.allowed = {{1, 2}, {3, 4}};
  e.reference = Traj({2, 5, 3, 6}, {0.1, 0.2, 0.3, 0.4});
  e.truth = e.reference;
  return e;
}

void TestOutputChecks() {
  const PoolEntry e = SyntheticEntry();
  const int nseg = 10;
  Expect(CheckAnswer(e, e.reference, nseg).empty(),
         "a correct answer passes every check");
  auto expect_fail = [&](MatchedTrajectory bad, const std::string& what) {
    Expect(!CheckAnswer(e, bad, nseg).empty(), "check catches " + what);
  };
  MatchedTrajectory bad = e.reference;
  bad.points.pop_back();
  expect_fail(bad, "a missing point");
  bad = e.reference;
  bad.points[1].t += 1.0;
  expect_fail(bad, "a wrong timestamp");
  bad = e.reference;
  bad.points[1].seg_id = -1;
  expect_fail(bad, "a negative segment id");
  bad = e.reference;
  bad.points[1].seg_id = nseg;
  expect_fail(bad, "a segment id past |V|");
  bad = e.reference;
  bad.points[3].ratio = 1.5;
  expect_fail(bad, "a ratio above 1");
  bad = e.reference;
  bad.points[3].ratio = std::numeric_limits<double>::quiet_NaN();
  expect_fail(bad, "a NaN ratio");
  bad = e.reference;
  bad.points[2].seg_id = 7;  // observed step, outside {3, 4}
  expect_fail(bad, "an observed step outside the constraint mask");
  bad = e.reference;
  bad.points[1].seg_id = 8;  // unobserved step, in range, differs from B=1
  expect_fail(bad, "a segment that differs from the B=1 answer");
  bad = e.reference;
  bad.points[1].ratio += 2e-5;
  expect_fail(bad, "a ratio 2e-5 away from the B=1 answer");
  bad = e.reference;
  bad.points[1].ratio += 5e-6;
  Expect(CheckAnswer(e, bad, nseg).empty(),
         "a ratio 5e-6 away from the B=1 answer passes (tolerance 1e-5)");
}

void TestLoadAccounting() {
  // A fake service: every fifth request fails, every seventh answers with
  // a corrupted segment. The generator must count attempted = ok + failed
  // and flag the corrupted answers.
  std::vector<PoolEntry> pool = {SyntheticEntry(), SyntheticEntry()};
  int calls = 0;
  SubmitFn submit = [&](serve::RecoveryRequest) {
    std::promise<serve::RecoveryResponse> p;
    serve::RecoveryResponse resp;
    ++calls;
    resp.ok = calls % 5 != 0;
    resp.kind = resp.ok ? serve::ResponseKind::kOk
                        : serve::ResponseKind::kInternalError;
    resp.recovered = pool[0].reference;
    if (calls % 7 == 0) resp.recovered.points[1].seg_id = 9;
    p.set_value(resp);
    return p.get_future();
  };
  for (int inflight : {1, 8}) {
    Result r;
    calls = 0;
    LoadSpec spec;
    spec.inflight = inflight;
    spec.warmup_s = 0.01;
    spec.window_s = 0.05;
    const LoadOutcome lo =
        RunClosedLoop(pool, {0, 1}, 10, spec, submit, LoadHooks{}, &r);
    Expect(lo.attempted == lo.ok + lo.failed && lo.attempted == calls &&
               lo.failed == calls / 5 && lo.attempted > 0,
           "attempted = ok + failed (in flight " + std::to_string(inflight) +
               ")");
    Expect(!r.correct, "corrupted answers flagged (in flight " +
                           std::to_string(inflight) + ")");
    int64_t samples = 0;
    for (const Slice& s : lo.slices) samples += static_cast<int64_t>(s.latency_ms.size());
    Expect(samples == lo.ok_in_window &&
               lo.slices.size() == static_cast<size_t>(spec.slices),
           "one latency sample per ok response in the window");
  }
}

void TestSelfTime() {
  SpanRecorder rec(true);
  const int root = rec.Add("root", 0, 100, -1, 1);
  rec.Add("a", 10, 40, root, 1);
  rec.Add("b", 30, 60, root, 1);  // overlaps a: union covers 10..60
  rec.Add("c", 90, 120, root, 1);  // clipped to the parent: 90..100
  const auto self = rec.SelfTimes();
  Expect(std::abs(self.at("root").first - 40e-6) < 1e-12,
         "self time = duration - union of children (clipped)");
}

}  // namespace

int RunSelfTest() {
  TestPercentile();
  TestQualityByHand();
  TestQualityAgainstEvaluateRecovery();
  TestOutputChecks();
  TestLoadAccounting();
  TestSelfTime();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
