#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "design/io.hpp"
#include "obs/json.hpp"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- result ----------------------------------------------------------------

void RunResult::metric(const std::string& name, double value) {
  metrics.push_back({name, value});
}

void RunResult::fail(const std::string& what) {
  correct = false;
  if (errors.size() < 32) errors.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void RunResult::print() const {
  using dgr::obs::json::Value;
  Value out = Value::object();
  out["correct"] = correct;
  out["attempted"] = attempted;
  out["failed"] = failed;
  Value m = Value::object();
  for (const auto& [name, value] : metrics) {
    // JSON has no infinity; an infinitely late request reads as the worst
    // representable value.
    m[name] = std::isfinite(value) ? value : std::numeric_limits<double>::max();
  }
  out["metrics"] = m;
  Value errs = Value::array();
  for (const std::string& e : errors) errs.push_back(e);
  out["errors"] = errs;
  Value inf = Value::object();
  for (const auto& [k, v] : info) inf[k] = v;
  out["info"] = inf;
  std::cout << out.dump() << std::endl;
}

// ---- tracer ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const std::string& name) : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

int Tracer::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = current_;
  s.start = Clock::now();
  s.end = s.start;
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  current_ = spans_[static_cast<std::size_t>(id)].parent;
}

void Tracer::record(const std::string& name, Clock::time_point start, Clock::time_point end) {
  std::size_t lane = 0;
  while (lane < lane_free_.size() && lane_free_[lane] > start) ++lane;
  if (lane == lane_free_.size()) lane_free_.push_back(end);
  lane_free_[lane] = end;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.lane = static_cast<int>(lane) + 1;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::self_seconds(std::size_t from) const {
  // Children are closed inside their parent on one thread, so the covered
  // part of a parent is simply the sum of its direct children.
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= static_cast<int>(from)) {
      child_cover[static_cast<std::size_t>(p)] += seconds_between(spans_[i].start, spans_[i].end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    self[spans_[i].name] += seconds_between(spans_[i].start, spans_[i].end) - child_cover[i];
  }
  return self;
}

std::vector<double> Tracer::durations(const std::string& name, std::size_t from) const {
  std::vector<double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(seconds_between(spans_[i].start, spans_[i].end));
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  // Recorded spans may predate the tracer; timestamps start at the earliest.
  Clock::time_point origin = epoch_;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.start - origin).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", ts, dur);
    os << "{\"name\":\"" << dgr::obs::json::escape(s.name) << "\",\"ph\":\"X\",\"pid\":1,"
       << "\"tid\":" << s.lane << "," << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(os);
}

// ---- order statistics ------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (const double v : values) s += v;
  return s / static_cast<double>(values.size());
}

// ---- hang guard ------------------------------------------------------------

namespace {

struct HangGuard {
  std::mutex mu;
  std::string workload;
  std::function<std::string()> describe;
  std::function<std::int64_t()> count;
  bool armed = false;
  Clock::time_point deadline;
  std::thread watcher;  // declared last: it reads the members above
};

HangGuard& guard() {
  static HangGuard g;
  return g;
}

}  // namespace

void arm_hang_guard(const std::string& workload, double seconds) {
  HangGuard& g = guard();
  {
    std::lock_guard<std::mutex> lock(g.mu);
    g.workload = workload;
    g.armed = true;
    g.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  }
  g.watcher = std::thread([] {
    HangGuard& h = guard();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::unique_lock<std::mutex> lock(h.mu);
      if (!h.armed) return;
      if (Clock::now() < h.deadline) continue;
      const std::string pending = h.describe ? h.describe() : std::string("(none registered)");
      const std::int64_t n = h.count ? h.count() : 0;
      std::fprintf(stderr,
                   "perfbench: HANG: workload '%s' passed its wall-clock deadline; "
                   "%lld operation(s) unanswered: %s\n",
                   h.workload.c_str(), static_cast<long long>(n), pending.c_str());
      RunResult r;
      r.correct = false;
      r.attempted = std::max<std::int64_t>(n, 1);
      r.failed = std::max<std::int64_t>(n, 1);
      r.errors.push_back("hang: workload " + h.workload + " unanswered: " + pending);
      r.print();
      std::fflush(nullptr);
      _exit(3);
    }
  });
}

void set_hang_guard_pending(std::function<std::string()> describe_pending,
                            std::function<std::int64_t()> pending_count) {
  HangGuard& g = guard();
  std::lock_guard<std::mutex> lock(g.mu);
  g.describe = std::move(describe_pending);
  g.count = std::move(pending_count);
}

void disarm_hang_guard() {
  HangGuard& g = guard();
  {
    std::lock_guard<std::mutex> lock(g.mu);
    g.armed = false;
    g.describe = nullptr;
    g.count = nullptr;
  }
  if (g.watcher.joinable()) g.watcher.join();
}

// ---- inputs and fingerprints -----------------------------------------------

std::string design_text(const dgr::design::IspdLikeParams& params, std::uint64_t generator_seed,
                        std::optional<std::uint64_t> order_seed) {
  const dgr::design::Design d = dgr::design::generate_ispd_like(params, generator_seed);
  std::vector<dgr::design::Net> nets = d.nets();
  if (order_seed) {
    std::uint64_t state = *order_seed;
    for (std::size_t i = nets.size(); i > 1; --i) {  // Fisher-Yates
      state = mix_seed(state, i);
      std::swap(nets[i - 1], nets[state % i]);
    }
  }
  const dgr::design::Design shuffled(d.name(), d.grid(), std::move(nets));
  std::ostringstream os;
  dgr::design::write_design(os, shuffled);
  return os.str();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

template <typename T>
void fnv_value(std::uint64_t& h, const T& v) {
  fnv(h, &v, sizeof(v));
}

}  // namespace

std::uint64_t solution_hash(const dgr::eval::RouteSolution& sol) {
  std::uint64_t h = kFnvOffset;
  for (const dgr::eval::NetRoute& net : sol.nets) {
    fnv_value(h, static_cast<std::uint64_t>(net.design_net));
    for (const dgr::dag::PatternPath& path : net.paths) {
      fnv_value(h, static_cast<std::uint64_t>(path.waypoints.size()));
      for (const auto& pt : path.waypoints) {
        fnv_value(h, static_cast<std::int64_t>(pt.x));
        fnv_value(h, static_cast<std::int64_t>(pt.y));
      }
    }
  }
  return h;
}

std::uint64_t metrics_hash(const dgr::eval::Metrics& m) {
  std::uint64_t h = kFnvOffset;
  fnv_value(h, m.overflow_edges);
  fnv_value(h, m.total_overflow);
  fnv_value(h, m.peak_overflow);
  fnv_value(h, m.wirelength);
  fnv_value(h, m.bends);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
