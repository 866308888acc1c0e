#pragma once
// Shared pieces of dgr_perfbench: the result record every workload
// fills, the span recorder of the traced run, order statistics, the hang
// guard, and the seeded input generator.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "design/generator.hpp"
#include "eval/metrics.hpp"
#include "eval/solution.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// What one workload run reports. `attempted`/`failed` count operations
/// (design routings, requests); every failed check also marks the run
/// incorrect and is listed in `errors`.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;  ///< units: BENCHMARK.json
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::string>> info;

  void metric(const std::string& name, double value);
  void fail(const std::string& what);
  /// Prints the result as one JSON line on stdout.
  void print() const;
};

/// Options shared by every workload, from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace path of the traced run
  std::size_t workers = 1;  ///< util::ParallelRuntime worker count
};

// ---- spans ---------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest by construction
/// (Scope objects on one thread), each keeps its parent, and the whole set
/// is written as a Chrome trace at the end. A null Tracer* disables
/// recording, so the untraced and traced runs share one code path.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    int lane = 1;  ///< Chrome-trace thread row
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  /// Records a span timed elsewhere, without parent: the overlapping
  /// request spans of the serve workload. Each goes to the first row that
  /// is free at `start`, so the trace shows how many were in flight.
  void record(const std::string& name, Clock::time_point start, Clock::time_point end);

  /// Sum of each span name's self time (duration minus the part its child
  /// spans cover), in seconds, over spans that started at or after `from`.
  std::map<std::string, double> self_seconds(std::size_t from = 0) const;
  /// Durations in seconds of every span named `name` from index `from`.
  std::vector<double> durations(const std::string& name, std::size_t from = 0) const;
  std::size_t size() const { return spans_.size(); }
  bool write_chrome_trace(const std::string& path) const;

 private:
  int open(const std::string& name);
  void close(int id);

  std::vector<Span> spans_;
  std::vector<Clock::time_point> lane_free_;  ///< rows used by record()
  int current_ = -1;
  Clock::time_point epoch_ = Clock::now();
};

// ---- order statistics ----------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);

// ---- hang guard ----------------------------------------------------------

/// Arms a wall-clock deadline for the whole run. When it expires before
/// disarm(), a watchdog thread prints the workload name and whatever
/// `describe_pending` returns (the requests left unanswered), prints an
/// incorrect result line counting `pending_count()` operations as failed,
/// and ends the process with exit code 3 — a hung program never stalls the
/// caller.
void arm_hang_guard(const std::string& workload, double seconds);
void set_hang_guard_pending(std::function<std::string()> describe_pending,
                            std::function<std::int64_t()> pending_count);
void disarm_hang_guard();

// ---- inputs and fingerprints ---------------------------------------------

/// Generates `params` with the fixed `generator_seed` and serialises it to
/// .dgrd text — the only form in which designs reach the program under
/// test. With `order_seed`, the net order is shuffled first: another
/// instance with the same grid, nets and hot spots.
std::string design_text(const dgr::design::IspdLikeParams& params, std::uint64_t generator_seed,
                        std::optional<std::uint64_t> order_seed = std::nullopt);

/// Mixes a workload seed with a stream index into a generator seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a over every routed net's index and waypoints.
std::uint64_t solution_hash(const dgr::eval::RouteSolution& sol);
/// FNV-1a over the bit patterns of the metric fields.
std::uint64_t metrics_hash(const dgr::eval::Metrics& m);

std::string hex(std::uint64_t v);

}  // namespace perfbench
