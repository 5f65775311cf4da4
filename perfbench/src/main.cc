// The benchmark driver. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --reference <serve_single_short|train_small> --seed <n>
//   perfbench --self-test
//
// A run prints one JSON object as its last stdout line: {"correct", "attempted",
// "failed", "metrics"} with every end-to-end metric (untraced) or every
// per-layer metric (traced). Diagnostics go to stderr.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"

using namespace perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_single_short|"
               "serve_busy_long|fleet_busy_short|train_small> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       perfbench --reference <serve_single_short|train_small> "
               "--seed <n>\n"
               "       perfbench --self-test\n");
  return 2;
}

/// Keeps exactly the metrics the mode prints; a per-layer metric the
/// workload does not exercise reads 0. In traced runs the end-to-end values
/// go to stderr only: they include the tracing overhead and are not gated.
void SelectMetrics(bool trace, Result* r) {
  Result out = *r;
  out.metrics.clear();
  const auto& keep = trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricDef& d : keep) {
    const auto it = r->metrics.find(d.name);
    out.Set(d.name, it == r->metrics.end() ? 0.0 : it->second.first, d.unit);
  }
  if (trace) {
    for (const MetricDef& d : EndToEndMetrics()) {
      const auto it = r->metrics.find(d.name);
      if (it == r->metrics.end()) continue;
      std::fprintf(stderr, "traced %s = %.6g %s\n", d.name, it->second.first,
                   d.unit);
    }
  }
  *r = out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string reference;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") return RunSelfTest();
    if (!has_value) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--reference") {
      reference = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
      have_seconds = opt.seconds > 0.0;
    } else if (a == "--trace") {
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else {
      return Usage();
    }
  }

  // Per-run scratch for sockets and snapshot files, inside the working
  // directory; removed when the run ends.
  ::mkdir(".bench_run", 0755);
  opt.run_dir = ".bench_run/" + std::to_string(::getpid());
  ::mkdir(opt.run_dir.c_str(), 0755);
  struct RunDirGuard {
    std::string dir;
    ~RunDirGuard() {
      ::rmdir(dir.c_str());
      ::rmdir(".bench_run");  // only succeeds once no other run uses it
    }
  } guard{opt.run_dir};

  if (!reference.empty()) {
    opt.workload = reference;
    return RunReference(opt);
  }
  if (!have_seed || !have_seconds || !have_trace) return Usage();

  Result result;
  if (opt.workload == "serve_single_short") {
    result = RunServeSingleShort(opt);
  } else if (opt.workload == "serve_busy_long") {
    result = RunServeBusyLong(opt);
  } else if (opt.workload == "fleet_busy_short") {
    result = RunFleetBusyShort(opt);
  } else if (opt.workload == "train_small") {
    result = RunTrainSmall(opt);
  } else {
    return Usage();
  }
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  SelectMetrics(opt.trace, &result);
  std::printf("%s\n", result.ToJson().c_str());
  return result.correct ? 0 : 1;
}
