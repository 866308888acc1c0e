#pragma once
// The benchmark's workloads. Each runs in its own process, measures for
// RunOptions::seconds, checks the program's outputs, and fills a RunResult
// with every end-to-end metric (untraced run) or every per-layer metric
// (traced run).

#include "common.hpp"

namespace perfbench {

/// "dgr_congested" and "partitioned_ladder".
void run_batch(const RunOptions& options, RunResult& result);
/// "serve_mixed".
void run_serve(const RunOptions& options, RunResult& result);
/// Reproducer of the multi-worker serve livelock: a 2-worker Server with
/// concurrent DGR routes. Returns when every request was answered; a hang
/// ends the process through the hang guard.
void run_livelock_repro(const RunOptions& options, RunResult& result);

}  // namespace perfbench
