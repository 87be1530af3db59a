// grape_perfbench: one run of one benchmark workload. perfbench/run.py
// builds this binary and passes the driver's flags through:
//
//   grape_perfbench --workload serve_road|batch_rmat --seed N
//                   --seconds S --trace 0|1 --data-dir DIR [--trace-file F]
//
// Prints every metric by name with its unit, then one PERFBENCH_RESULT
// line. Exits 1 when any operation failed or any answer was wrong.

#include <cstdio>
#include <string>

#include "apps/register_apps.h"
#include "perfbench/workloads.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  grape::FlagParser flags;
  if (grape::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "flags: %s\n", s.ToString().c_str());
    return 2;
  }
  RunConfig cfg;
  cfg.workload = flags.GetString("workload", "");
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.seconds = flags.GetDouble("seconds", 10);
  cfg.trace = flags.GetInt("trace", 0) != 0;
  cfg.data_dir = flags.GetString("data-dir", ".");
  const std::string trace_file = flags.GetString("trace-file", "");

  void (*run)(const RunConfig&, Report*) = nullptr;
  if (cfg.workload == "serve_road") run = RunServeRoad;
  if (cfg.workload == "batch_rmat") run = RunBatchRmat;
  if (run == nullptr || cfg.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: grape_perfbench --workload serve_road|batch_rmat "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }

  // Endpoint processes fork from this one and must find the remote apps
  // registered.
  grape::RegisterBuiltinWorkerApps();
  SpanRecorder::Global().set_enabled(cfg.trace);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::fflush(stdout);

  RunMonitor monitor;
  Report report;
  EmitPerLayerDefaults(&report);
  const CpuTimes cpu0 = ReadCpuTimes();
  run(cfg, &report);
  const CpuTimes cpu1 = ReadCpuTimes();
  report.SetRatio("loadgen.steal_frac",
                  {cpu1.steal - cpu0.steal, cpu1.total - cpu0.total});

  if (cfg.trace) {
    EmitSelfTimes(&report);
    if (!trace_file.empty()) {
      if (!SpanRecorder::Global().WriteChromeTrace(trace_file)) {
        report.CheckFailed("cannot write trace file " + trace_file);
      } else {
        std::printf("trace: %s (%zu spans)\n", trace_file.c_str(),
                    SpanRecorder::Global().spans().size());
      }
    }
  }
  report.Print();
  return report.ok() ? 0 : 1;
}
