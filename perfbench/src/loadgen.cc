#include "perfbench/src/loadgen.h"

#include <algorithm>
#include <cstdio>
#include <random>

namespace perfbench {

std::vector<int> ShuffledOrder(int n, uint64_t seed) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

LoadOutcome RunClosedLoop(const std::vector<PoolEntry>& pool,
                          const std::vector<int>& order, int num_segments,
                          const LoadSpec& spec, const SubmitFn& submit,
                          const LoadHooks& hooks, Result* result) {
  struct Pending {
    std::future<rntraj::serve::RecoveryResponse> fut;
    int entry = 0;
    Clock::time_point submitted;
  };
  LoadOutcome out;
  out.slices.resize(static_cast<size_t>(spec.slices));
  std::vector<Pending> pending;
  pending.reserve(static_cast<size_t>(spec.inflight));
  size_t next = 0;

  auto cpu_now = [&] {
    return ProcessCpuSeconds() + (hooks.extra_cpu ? hooks.extra_cpu() : 0.0);
  };
  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
  };
  const auto warm_end = after(Clock::now(), spec.warmup_s);
  // -1: warm-up; 0..slices-1: inside the window; slices: drain.
  int slice = -1;
  Clock::time_point window_start, slice_start;
  double slice_cpu0 = 0.0;

  auto finish = [&](Pending& p, Clock::time_point done) {
    rntraj::serve::RecoveryResponse resp = p.fut.get();
    const double ms =
        std::chrono::duration<double, std::milli>(done - p.submitted).count();
    const bool in_window = slice >= 0 && slice < spec.slices;
    if (!resp.ok) {
      // A failed operation is counted, not treated as a wrong answer.
      ++out.failed;
      std::fprintf(stderr, "request failed: %s\n", resp.error.c_str());
    } else {
      ++out.ok;
      const std::string why =
          CheckAnswer(pool[static_cast<size_t>(p.entry)], resp.recovered,
                      num_segments);
      if (!why.empty()) result->Fail(why);
      if (in_window) {
        Slice& s = out.slices[static_cast<size_t>(slice)];
        ++s.ok;
        ++out.ok_in_window;
        s.latency_ms.push_back(ms);
      }
    }
    if (hooks.on_complete) {
      hooks.on_complete(resp, p.entry, ms, p.submitted, in_window);
    }
  };

  for (;;) {
    const auto now = Clock::now();
    if (slice < 0 && now >= warm_end) {
      if (hooks.at_window_start) hooks.at_window_start();
      window_start = slice_start = Clock::now();
      slice_cpu0 = cpu_now();
      slice = 0;
    }
    while (slice >= 0 && slice < spec.slices &&
           now >= after(window_start,
                        spec.window_s * (slice + 1) / spec.slices)) {
      const auto t = Clock::now();
      const double cpu = cpu_now();
      Slice& s = out.slices[static_cast<size_t>(slice)];
      s.seconds = std::chrono::duration<double>(t - slice_start).count();
      s.cpu_s = cpu - slice_cpu0;
      slice_start = t;
      slice_cpu0 = cpu;
      if (++slice == spec.slices) {
        out.window_s = std::chrono::duration<double>(t - window_start).count();
        if (hooks.at_window_end) hooks.at_window_end();
      }
    }
    if (slice < spec.slices) {
      while (static_cast<int>(pending.size()) < spec.inflight) {
        const int entry = order[next++ % order.size()];
        Pending p;
        p.entry = entry;
        p.submitted = Clock::now();
        p.fut = submit(pool[static_cast<size_t>(entry)].request);
        ++out.attempted;
        pending.push_back(std::move(p));
      }
    }
    if (pending.empty()) break;
    if (spec.inflight == 1) {
      pending[0].fut.wait();
      finish(pending[0], Clock::now());
      pending.clear();
      continue;
    }
    // Sweep for ready futures; when none is ready, park briefly on the
    // oldest so completion stamps stay within ~0.1 ms of readiness.
    bool any = false;
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(pending[i], Clock::now());
        pending[i] = std::move(pending.back());
        pending.pop_back();
        any = true;
      } else {
        ++i;
      }
    }
    if (!any) pending[0].fut.wait_for(std::chrono::microseconds(100));
  }
  return out;
}

}  // namespace perfbench
