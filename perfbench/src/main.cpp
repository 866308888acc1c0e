// dgr_perfbench: runs one benchmark workload and prints its result as one
// JSON line. perfbench/run.py builds this program and wraps it; see
// perfbench/README.md for the workloads and metrics.
//
//   dgr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <chrome-trace.json>] [--deadline <s>]
//   dgr_perfbench --repro-livelock [--deadline <s>]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "util/log.hpp"
#include "util/memprobe.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dgr_perfbench --workload <dgr_congested|partitioned_ladder|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>] [--deadline <s>]\n"
               "       dgr_perfbench --repro-livelock [--deadline <s>]\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  double deadline = 0.0;  // default: --seconds plus a minute
  bool repro = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--repro-livelock") {
      repro = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--deadline" && has_value) {
      deadline = std::atof(argv[++i]);
    } else {
      return usage();
    }
  }
  if (repro) options.workload = "serve_livelock_repro";
  const bool batch =
      options.workload == "dgr_congested" || options.workload == "partitioned_ladder";
  if (!batch && options.workload != "serve_mixed" && !repro) return usage();
  if (options.seconds <= 0.0) return usage();
  if (deadline <= 0.0) deadline = options.seconds + 60.0;

  dgr::util::set_log_level(dgr::util::LogLevel::kError);
  // At most four runtime workers, never more than the host has.
  // dgr_congested uses two: its 1000 training iterations are thousands of
  // short pool jobs, and at four workers on a 4-vCPU VM that shares its cores
  // with other load, each job waited for whichever vCPU the host had taken
  // away (passes of one run took 1.5 to 3.8 s; at two workers, 1.7 to 2.2 s,
  // as fast as at one).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  options.workers = std::min<std::size_t>(options.workload == "dgr_congested" ? 2 : 4, hw);
  dgr::util::set_worker_count(options.workers);

  RunResult result;
  result.info.push_back({"workload", options.workload});
  result.info.push_back({"seed", std::to_string(options.seed)});
  result.info.push_back({"hardware_concurrency", std::to_string(hw)});
  result.info.push_back({"runtime_workers", std::to_string(options.workers)});
  result.info.push_back({"serve_workers", options.workload == "serve_mixed" ? "1"
                                          : repro                         ? "2"
                                                                          : "0"});
  result.info.push_back({"build_type", DGR_PERFBENCH_BUILD_TYPE});

  arm_hang_guard(options.workload, deadline);
  if (repro) {
    run_livelock_repro(options, result);
  } else if (batch) {
    run_batch(options, result);
  } else {
    run_serve(options, result);
  }
  disarm_hang_guard();

  // VmHWM, not getrusage: ru_maxrss survives exec and would report the
  // launching interpreter's peak.
  const double peak_rss_mb = static_cast<double>(dgr::util::peak_rss_bytes()) / (1024.0 * 1024.0);
  if (options.trace) {
    result.info.push_back({"peak_rss_mb", std::to_string(peak_rss_mb)});
  } else {
    result.metric("peak_rss_mb", peak_rss_mb);
  }
  const double failed_frac =
      result.attempted > 0 ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
                           : 1.0;
  result.metric(options.trace ? "failed_frac" : "ok_frac",
                options.trace ? failed_frac : 1.0 - failed_frac);
  if (result.attempted < 1) result.fail("no operation was attempted");
  result.print();
  return result.correct ? 0 : 1;
}
