#include "perfbench/src/bench.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/eval/metrics.h"
#include "src/roadnet/rtree.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace perfbench {

using rntraj::MatchedTrajectory;

void Result::Fail(const std::string& why) {
  correct = false;
  if (problems.size() < 8) problems.push_back(why);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << JsonNumber(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  long long k = static_cast<long long>(q * (n - 1.0));
  k = std::clamp<long long>(k, 0, static_cast<long long>(values.size()) - 1);
  return values[static_cast<size_t>(k)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  return Mean(std::vector<double>(values.begin() + cut, values.end() - cut));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double ChildCpuSeconds(int pid) {
  // Sum of every thread's on-CPU time in ns (first field of schedstat):
  // /proc/<pid>/stat counts in 10 ms ticks, too coarse for a set-up.
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0.0;
  double ns = 0.0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    double run_ns = 0.0;
    if (in >> run_ns) ns += run_ns;
  }
  ::closedir(d);
  return ns / 1e9;
}

double PeakRssMb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string skip;
    std::getline(in, skip);
  }
  return 0.0;
}

// ---------------------------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), begin_(Clock::now()) {}

int64_t SpanRecorder::NowNs() const { return ToNs(Clock::now()); }

int64_t SpanRecorder::ToNs(Clock::time_point tp) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - begin_)
      .count();
}

int SpanRecorder::Open(const std::string& name, int parent,
                       int64_t request_id) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  return Add(name, now, now, parent, request_id);
}

void SpanRecorder::Close(int span) {
  if (!enabled_ || span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

int SpanRecorder::Add(const std::string& name, int64_t start_ns,
                      int64_t end_ns, int parent, int64_t request_id) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, request_id});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, std::pair<double, int64_t>> SpanRecorder::SelfTimes()
    const {
  // Children of each span, then the union of their intervals clipped to the
  // parent (children of one span may overlap when work runs concurrently).
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) children[static_cast<size_t>(p)].push_back(static_cast<int>(i));
  }
  std::map<std::string, std::pair<double, int64_t>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (int c : children[i]) {
      const Span& ch = spans_[static_cast<size_t>(c)];
      const int64_t a = std::max(ch.start_ns, s.start_ns);
      const int64_t b = std::min(ch.end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    auto& slot = out[s.name];
    slot.first += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    slot.second += 1;
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request_id\": " << s.request_id
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "], \"self_ms\": {";
  bool first = true;
  for (const auto& [name, st] : SelfTimes()) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"ms\": "
        << JsonNumber(st.first) << ", \"count\": " << st.second << "}";
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

void ComputeAllowedSegments(const rntraj::Dataset& ds, double mask_radius,
                            std::vector<PoolEntry>* pool) {
  for (PoolEntry& e : *pool) {
    e.allowed.clear();
    for (const rntraj::RawPoint& p : e.request.input.points) {
      std::vector<int> ids;
      for (const auto& ns : rntraj::SegmentsWithinRadius(
               ds.roadnet(), ds.rtree(), p.pos, mask_radius)) {
        ids.push_back(ns.seg_id);
      }
      std::sort(ids.begin(), ids.end());
      e.allowed.push_back(std::move(ids));
    }
  }
}

std::string CheckAnswer(const PoolEntry& entry, const MatchedTrajectory& got,
                        int num_segments) {
  const auto& times = entry.request.target_times;
  if (got.points.size() != times.size()) {
    return "answer has " + std::to_string(got.points.size()) +
           " points for " + std::to_string(times.size()) + " timestamps";
  }
  for (size_t j = 0; j < times.size(); ++j) {
    const rntraj::MatchedPoint& p = got.points[j];
    if (p.t != times[j]) return "point " + std::to_string(j) + " timestamp";
    if (p.seg_id < 0 || p.seg_id >= num_segments) {
      return "point " + std::to_string(j) + " segment id out of range";
    }
    if (!(p.ratio >= 0.0 && p.ratio <= 1.0)) {
      return "point " + std::to_string(j) + " ratio outside [0, 1]";
    }
  }
  for (size_t k = 0; k < entry.request.input_indices.size(); ++k) {
    const int step = entry.request.input_indices[k];
    const std::vector<int>& allowed = entry.allowed[k];
    if (!std::binary_search(allowed.begin(), allowed.end(),
                            got.points[static_cast<size_t>(step)].seg_id)) {
      return "observed step " + std::to_string(step) +
             " outside the constraint mask";
    }
  }
  const MatchedTrajectory& ref = entry.reference;
  if (ref.points.size() != got.points.size()) return "reference length";
  for (size_t j = 0; j < ref.points.size(); ++j) {
    if (got.points[j].seg_id != ref.points[j].seg_id) {
      return "point " + std::to_string(j) + " differs from the B=1 answer";
    }
    if (std::abs(got.points[j].ratio - ref.points[j].ratio) > 1e-5) {
      return "point " + std::to_string(j) + " ratio differs from B=1 by > 1e-5";
    }
  }
  return "";
}

double PathF1(const MatchedTrajectory& truth, const MatchedTrajectory& pred) {
  // Travel paths are sets of visited segments; collapsing consecutive
  // repeats first does not change the set.
  auto segs = [](const MatchedTrajectory& m) {
    std::vector<int> s;
    for (const auto& p : m.points) s.push_back(p.seg_id);
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  };
  const std::vector<int> t = segs(truth);
  const std::vector<int> p = segs(pred);
  std::vector<int> common;
  std::set_intersection(t.begin(), t.end(), p.begin(), p.end(),
                        std::back_inserter(common));
  if (common.empty()) return 0.0;
  const double recall = static_cast<double>(common.size()) / t.size();
  const double precision = static_cast<double>(common.size()) / p.size();
  return 2.0 * recall * precision / (recall + precision);
}

Quality IndependentQuality(const std::vector<MatchedTrajectory>& preds,
                           const std::vector<MatchedTrajectory>& truths) {
  Quality q;
  if (preds.empty()) return q;
  for (size_t i = 0; i < preds.size(); ++i) {
    q.f1 += PathF1(truths[i], preds[i]);
    int hit = 0;
    for (size_t j = 0; j < preds[i].points.size(); ++j) {
      hit += preds[i].points[j].seg_id == truths[i].points[j].seg_id;
    }
    q.accuracy += preds[i].points.empty()
                      ? 0.0
                      : static_cast<double>(hit) / preds[i].points.size();
  }
  q.f1 /= static_cast<double>(preds.size());
  q.accuracy /= static_cast<double>(preds.size());
  return q;
}

double MeanStraightLineError(const rntraj::RoadNetwork& rn,
                             const std::vector<MatchedTrajectory>& preds,
                             const std::vector<MatchedTrajectory>& truths) {
  double sum = 0.0;
  int64_t n = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    for (size_t j = 0; j < preds[i].points.size(); ++j) {
      const auto& a = preds[i].points[j];
      const auto& b = truths[i].points[j];
      const rntraj::Vec2 pa = rn.PointAt(a.seg_id, a.ratio);
      const rntraj::Vec2 pb = rn.PointAt(b.seg_id, b.ratio);
      sum += std::hypot(pa.x - pb.x, pa.y - pb.y);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

void CompareQuality(const rntraj::RecoveryMetrics& m, const Quality& q,
                    double straight_line_m, Result* result) {
  if (std::abs(q.f1 - m.f1) > 1e-9) {
    result->Fail("EvaluateRecovery F1 " + std::to_string(m.f1) +
                 " != independent " + std::to_string(q.f1));
  }
  if (std::abs(q.accuracy - m.accuracy) > 1e-9) {
    result->Fail("EvaluateRecovery accuracy " + std::to_string(m.accuracy) +
                 " != independent " + std::to_string(q.accuracy));
  }
  if (m.mae + 1e-6 < straight_line_m) {
    result->Fail("MAE " + std::to_string(m.mae) +
                 " below the mean straight-line error " +
                 std::to_string(straight_line_m));
  }
}

void ScoreAndCheckQuality(rntraj::NetworkDistance& nd,
                          const rntraj::RoadNetwork& rn,
                          const std::vector<MatchedTrajectory>& preds,
                          const std::vector<MatchedTrajectory>& truths,
                          Result* result) {
  const rntraj::RecoveryMetrics m = rntraj::EvaluateRecovery(nd, preds, truths);
  CompareQuality(m, IndependentQuality(preds, truths),
                 MeanStraightLineError(rn, preds, truths), result);
  result->Set("f1", m.f1, "ratio");
  result->Set("accuracy", m.accuracy, "ratio");
  result->Set("mae_m", m.mae, "m");
}

double GemmGflops(int m, int k, int n) {
  rntraj::Tensor a = rntraj::Tensor::Uniform({m, k}, -1.0f, 1.0f);
  rntraj::Tensor b = rntraj::Tensor::Uniform({k, n}, -1.0f, 1.0f);
  // Repeat until ~0.2 s has elapsed; report the median of 5 such windows.
  std::vector<double> rates;
  for (int w = 0; w < 5; ++w) {
    int64_t iters = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.04) {
      rntraj::Tensor c = rntraj::Matmul(a, b);
      ++iters;
      elapsed = SecondsSince(t0);
    }
    rates.push_back(2.0 * m * k * n * static_cast<double>(iters) / elapsed /
                    1e9);
  }
  return Median(rates);
}

}  // namespace perfbench
