#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace dgr::util {
namespace {

std::atomic<std::size_t> g_override{0};

std::size_t default_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 4 : hc;
}

// A persistent pool executing multi-stage jobs. Creating threads per call
// would dominate the cost of the small kernels DGR runs thousands of times,
// and even a condition-variable round trip per kernel is measurable — so a
// job carries an ARRAY of stages and workers wake once for the whole chain.
//
// Two design decisions keep thread scheduling off the submitter's critical
// path entirely:
//
//  * Progress is tracked per CHUNK, not per participant: stage s is complete
//    when all of its chunks have retired, and whoever observes that (the
//    caller participates) moves straight on to stage s+1 — or, after the
//    last stage, returns. Nobody ever waits for a *thread* to arrive, so a
//    worker the OS has not scheduled simply contributes nothing instead of
//    adding a context-switch round trip to every stage boundary.
//
//  * Jobs live in a two-slot ring of pool-owned descriptors. A submission
//    into slot s%2 only waits for leftover workers of the job TWO epochs
//    back (same slot); the job just finished keeps its slot until then, so
//    back-to-back kernels never stall on the previous job's checkout. A
//    worker that wakes late simply processes whatever the current epoch is
//    (claiming whatever chunks remain, often none) and checks out of that
//    job's slot; epoch-stamped counters keep the accounting straight when a
//    worker sleeps through a job entirely.
//
// On an oversubscribed machine (worker_count > cores) the caller therefore
// drains whole jobs alone at memory speed while workers tick along in the
// background; on real multicore the workers wake once per job and claim
// chunks exactly as before. Results are bitwise identical either way: chunk
// boundaries derive from (begin, end, grain) only, and every output element
// is owned by the chunk that writes it.
//
// Busy -> inline: one submitter owns the pool at a time (busy_). Any other
// submission — a second client thread, or a stage function submitting a
// nested job — finds the pool taken and runs its stages inline, so a job
// slot is never reused while its submitter is still draining it.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  // At most kMaxStages stages per submission; pool_run_stages splits longer
  // chains into batches (a full gate between batches is strictly stronger
  // than the inter-stage gate, so semantics are unchanged).
  static constexpr std::size_t kMaxStages = 8;

  void run(const detail::RawStage* stages, std::size_t count) {
    const std::size_t workers = worker_count();
    // workers <= 1 is defensive: the template layer normally short-circuits.
    if (workers <= 1 || busy_.exchange(true)) {
      for (std::size_t s = 0; s < count; ++s) {
        if (stages[s].begin < stages[s].end) {
          stages[s].fn(stages[s].ctx, stages[s].begin, stages[s].end);
        }
      }
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t epoch = epoch_ + 1;
    Slot& slot = slots_[epoch % 2];
    // Reuse gate: workers still inside the job two epochs back hold this
    // slot. They had the whole previous job's duration to check out, so this
    // wait is almost always a no-op.
    cv_done_.wait(lock, [&] { return slot.refs == 0; });
    ensure_threads_locked(workers - 1);
    slot.count = count;
    for (std::size_t s = 0; s < count; ++s) {
      slot.job[s] = stages[s];
      slot.chunks[s] = stages[s].begin < stages[s].end
                           ? (stages[s].end - stages[s].begin + stages[s].grain - 1) /
                                 stages[s].grain
                           : 0;
      slot.cursor[s].store(stages[s].begin, std::memory_order_relaxed);
      slot.done[s].store(0, std::memory_order_relaxed);
    }
    // Span emission is decided per JOB at submit time: a worker waking late
    // for a job submitted before tracing was enabled must not leak a
    // "pool.job" span into the traced window (and vice versa).
    slot.traced = obs::tracing_enabled();
    // Request context rides the job the same way: captured once at submit so
    // worker-side spans (pool.job and anything inside the stage bodies)
    // carry the submitting request's identity, not a stale one.
    slot.ctx = obs::current_trace_context();
    // Exactly `workers` participants MAY run this job: the caller plus pool
    // threads [0, workers-1). Extra pool threads left over from a larger
    // previous worker_count wake, see they are not enrolled, and go back to
    // sleep. pending_ is epoch-stamped: a worker that slept through this job
    // entirely (the next submission overwrote the epoch first) never
    // decrements a stale counter.
    active_threads_ = workers - 1;
    pending_ = static_cast<int>(active_threads_);
    epoch_ = epoch;
    if (slot.traced) {
      // Traced jobs wake every enrolled worker so the Chrome timeline shows
      // one "pool.job" span per participant (the drain below guarantees they
      // all ran before the submission returns).
      cv_start_.notify_all();
    } else {
      // Never wake more workers than spare hardware threads: on an
      // oversubscribed machine (worker_count > cores) an extra runnable
      // worker cannot make CPU-bound chunks finish sooner — it only adds
      // context switches to the caller's critical path. The caller drains
      // whatever un-woken workers would have claimed; results are bitwise
      // identical because chunk boundaries do not depend on who executes
      // them. Workers left asleep simply join a later job.
      static const std::size_t spare = [] {
        const unsigned hc = std::thread::hardware_concurrency();
        return hc > 1 ? static_cast<std::size_t>(hc - 1) : std::size_t{0};
      }();
      if (spare >= active_threads_) {
        cv_start_.notify_all();
      } else {
        for (std::size_t i = 0; i < spare; ++i) cv_start_.notify_one();
      }
    }
    lock.unlock();

    work_stages(slot);  // caller participates; returns once every chunk retired

    // With tracing on, drain every enrolled worker before returning so each
    // participant's "pool.job" span lands inside the caller's enclosing span
    // (and the Chrome timeline never shows job-N worker spans overlapping
    // job N+1). Tracing only observes — results are identical either way.
    if (slot.traced) {
      lock.lock();
      cv_done_.wait(lock, [&] { return pending_ == 0; });
    }
    busy_.store(false);
  }

 private:
  struct Slot {
    detail::RawStage job[kMaxStages];
    std::size_t chunks[kMaxStages] = {};
    std::size_t count = 0;
    bool traced = false;
    obs::TraceContext ctx;  // submitter's request context, captured per job
    int refs = 0;  // workers currently executing this slot (guarded by mu_)
    std::atomic<std::size_t> cursor[kMaxStages] = {};
    std::atomic<std::size_t> done[kMaxStages] = {};
  };

  Pool() = default;
  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      ++epoch_;
      cv_start_.notify_all();
    }
    for (auto& t : threads_) t.join();
  }

  void ensure_threads_locked(std::size_t n) {
    while (threads_.size() < n) {
      // Threads are created while mu_ is held: the new thread blocks on the
      // lock until job setup completes, then (epoch already bumped) joins the
      // job it was enrolled in, or sleeps if the epoch has not moved yet.
      threads_.emplace_back([this, my_epoch = epoch_,
                             my_index = threads_.size()]() mutable {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
          cv_start_.wait(lock, [&] { return epoch_ != my_epoch || stopping_; });
          if (stopping_) return;
          my_epoch = epoch_;
          if (my_index >= active_threads_) continue;
          Slot& slot = slots_[my_epoch % 2];
          ++slot.refs;
          lock.unlock();
          work_stages(slot);
          lock.lock();
          --slot.refs;
          if (my_epoch == epoch_) --pending_;
          cv_done_.notify_one();
        }
      });
    }
  }

  // Executes every stage of the given job, claiming chunks from the
  // per-stage cursor. Stage gate: each retired chunk does a release
  // fetch_add on done[s]; moving on requires an acquire load observing the
  // full count, which makes all stage-s writes visible to stage-s+1 readers
  // (and to the caller when it returns after the final gate). A participant
  // that claims nothing passes each gate as soon as the chunks retire —
  // late-waking workers cost bookkeeping, never a stage delay.
  void work_stages(Slot& slot) {
    // One span per participant per traced job: the Chrome timeline shows
    // every worker's share of each submission (determinism is unaffected —
    // the tracer only observes).
    if (slot.traced) {
      // Inherit the submitter's request context so this participant's
      // pool.job span — and any span emitted inside the stage bodies — is
      // attributed to the request that submitted the job.
      obs::TraceContextScope ctx_scope(slot.ctx);
      DGR_TRACE_SCOPE("pool.job");
      execute_stages(slot);
    } else {
      execute_stages(slot);
    }
  }

  void execute_stages(Slot& slot) {
    const std::size_t count = slot.count;
    for (std::size_t s = 0; s < count; ++s) {
      const detail::RawStage st = slot.job[s];
      const std::size_t n_chunks = slot.chunks[s];
      for (;;) {
        const std::size_t lo =
            slot.cursor[s].fetch_add(st.grain, std::memory_order_relaxed);
        if (lo >= st.end) break;
        const std::size_t hi = lo + st.grain < st.end ? lo + st.grain : st.end;
        st.fn(st.ctx, lo, hi);
        slot.done[s].fetch_add(1, std::memory_order_release);
      }
      // Brief spin, then yield: on oversubscribed machines the peer holding
      // the last unretired chunk needs the core we are holding, so with a
      // single hardware thread spinning at all is counterproductive.
      static const int spin_limit = std::thread::hardware_concurrency() > 1 ? 64 : 0;
      int spins = 0;
      while (slot.done[s].load(std::memory_order_acquire) != n_chunks) {
        if (++spins > spin_limit) std::this_thread::yield();
      }
    }
  }

  std::atomic<bool> busy_{false};  // a submitter is inside run()
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;

  // Job ring. Slot state is written under mu_ (exclusivity enforced by the
  // refs reuse gate), then read-only during the job's lifetime.
  Slot slots_[2];
  std::size_t active_threads_ = 0;
  int pending_ = 0;  // enrolled workers yet to process the CURRENT epoch
  std::uint64_t epoch_ = 0;
  bool stopping_ = false;
};

}  // namespace

std::size_t worker_count() {
  const std::size_t o = g_override.load(std::memory_order_relaxed);
  return o != 0 ? o : default_workers();
}

void set_worker_count(std::size_t n) { g_override.store(n, std::memory_order_relaxed); }

namespace detail {

void pool_run_stages(const RawStage* stages, std::size_t count) {
  for (std::size_t s = 0; s < count; s += Pool::kMaxStages) {
    const std::size_t batch = count - s < Pool::kMaxStages ? count - s : Pool::kMaxStages;
    Pool::instance().run(stages + s, batch);
  }
}

}  // namespace detail
}  // namespace dgr::util
