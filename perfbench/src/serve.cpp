// serve_mixed: an in-process serve::Server with one routing worker, driven
// through Server::submit by a single generator thread.
//
// Sessions of two design sizes are loaded at set-up; the designs are fixed
// (the serve_load generator seeds), and the workload seed rotates the
// request cycle and seeds the eco mutations. Route requests cycle
// through dgr, cugr2-lite and sproute-lite with "keep":false over two
// seeds, so they only read their session; every fourth request is a seeded
// eco mutation on an eco-only session, which writes session state. The
// route plan of the daemon has maze refine off, so this workload bypasses
// post::maze_refine.
//
// One worker because util::Pool is single-submitter ("jobs are submitted
// from one thread at a time"): with two or more workers submitting DGR
// pool jobs at once the daemon livelocks on multi-core hosts (see
// run_livelock_repro below).
//
// Phases:
//   set-up       start + session loads + the first eco per eco session;
//                three servers before the measurement (the last one is
//                measured) and two throwaway ones in each idle gap after
//                it (median reported)
//   closed loop  the 12 distinct route requests and one eco per eco
//                session, one request in flight: service times and the
//                quality figures; in six slices, before the open loop
//                and after each of its phases
//   open loop    three fixed arrival rates, about 0.2, 0.4 and 2 times
//                the one-worker saturation rate, in five phases: low, mid,
//                mid, high, mid; latency is timed from each request's
//                scheduled send time

#include <algorithm>
#include <condition_variable>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dgr::obs::json::Value;

constexpr double kRates[3] = {8.0, 16.0, 80.0};  // requests per second
constexpr const char* kRateNames[3] = {"low", "mid", "high"};
/// Share of --seconds each rate lasts, over all its phases.
constexpr double kRateShare[3] = {0.08, 0.62, 0.08};
/// The open loop's phases in order, as indexes into kRates. The middle rate,
/// which the latency metrics come from, runs in three phases spread over the
/// run, so that it samples the whole run rather than one stretch of the
/// host's drifting speed.
constexpr int kPhaseRates[5] = {0, 1, 1, 2, 1};
constexpr int kMidPhases = 3;
/// Share of --seconds spent in closed-loop passes, and the number of slices
/// it is split into: one before the open loop and one after each phase.
constexpr double kClosedShare = 0.15;
constexpr int kClosedSlices = 6;
constexpr const char* kRouters[3] = {"dgr", "cugr2-lite", "sproute-lite"};
constexpr const char* kRouteSessions[2] = {"route_small", "route_large"};
constexpr const char* kEcoSessions[2] = {"eco_small", "eco_large"};
/// Servers set up before the measurement; the last one is measured. More
/// are set up and shut down whenever the measured server is idle, and
/// setup_s is the median over all: the host's speed drifts over seconds,
/// so samples spread over the run steady the median.
constexpr int kSetupRoundsBefore = 3;
constexpr int kMeasuredRound = kSetupRoundsBefore - 1;
constexpr int kSetupRoundsPerGap = 2;

dgr::design::IspdLikeParams session_design(int size) {
  dgr::design::IspdLikeParams p;
  // The small size is the serve_load bench design; the large one has
  // about twice the nets on a 1.4x wider grid.
  p.name = size == 0 ? "serve_small" : "serve_large";
  p.grid_w = p.grid_h = size == 0 ? 20 : 24;
  p.num_nets = size == 0 ? 220 : 320;
  p.layers = 4;
  p.tracks_per_layer = 4;
  return p;
}

enum class Kind { kLoad, kRoute, kEco };

/// One request the benchmark sent, and what came back.
struct Record {
  std::string id;
  Kind kind = Kind::kRoute;
  std::string key;  ///< identical-request key (route: session/router/seed)
  int router = -1;
  int phase = -1;   ///< open-loop phase (index into kPhaseRates), -1 outside
  int server = -1;  ///< set-up round of the server it went to
  Clock::time_point scheduled;
  Clock::time_point submitted;
  Clock::time_point completed;
  bool answered = false;
  std::string response;
};

/// The benchmark's own ledger: every request is added before it is
/// submitted and answered exactly once through its sink.
class Ledger {
 public:
  std::size_t add(Record r) {
    std::lock_guard<std::mutex> lock(mu_);
    if (r.kind != Kind::kLoad) ++data_offered_;
    records_.push_back(std::move(r));
    ++outstanding_;
    return records_.size() - 1;
  }

  void answer(std::size_t index, const std::string& line) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    Record& r = records_[index];
    if (r.answered) {
      duplicate_answers_ = true;
      return;
    }
    r.completed = now;
    r.answered = true;
    r.response = line;
    --outstanding_;
    cv_.notify_all();
  }

  /// Waits until every submitted request has been answered.
  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  std::int64_t outstanding() {
    std::lock_guard<std::mutex> lock(mu_);
    return outstanding_;
  }

  std::string pending_ids() {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    int listed = 0;
    for (const Record& r : records_) {
      if (r.answered) continue;
      if (listed++ == 20) {
        out += " ...";
        break;
      }
      out += (out.empty() ? "" : ",") + r.id;
    }
    return out;
  }

  /// Only after drain(): no sink runs concurrently any more.
  const std::vector<Record>& records() const { return records_; }
  bool duplicate_answers() const { return duplicate_answers_; }
  /// Data-plane (route and eco) requests, counted as they are sent.
  std::int64_t data_offered() const { return data_offered_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Record> records_;
  std::int64_t outstanding_ = 0;
  std::int64_t data_offered_ = 0;
  bool duplicate_answers_ = false;
};

std::size_t send(dgr::serve::Server& server, Ledger& ledger, Record record,
                 const std::string& line) {
  record.submitted = Clock::now();
  if (record.scheduled == Clock::time_point{}) record.scheduled = record.submitted;
  const std::size_t index = ledger.add(std::move(record));
  server.submit(line, [&ledger, index](const std::string& response) {
    ledger.answer(index, response);
  });
  return index;
}

std::string load_line(const std::string& id, const std::string& session,
                      const std::string& text) {
  return "{\"id\":\"" + id + "\",\"op\":\"load\",\"session\":\"" + session +
         "\",\"design\":\"" + dgr::obs::json::escape(text) + "\"}";
}

std::string route_line(const std::string& id, int session, int router, int seed) {
  return "{\"id\":\"" + id + "\",\"op\":\"route\",\"session\":\"" +
         kRouteSessions[session] + "\",\"router\":\"" + kRouters[router] +
         "\",\"seed\":" + std::to_string(seed) + ",\"keep\":false}";
}

std::string eco_line(const std::string& id, int session, std::uint64_t seed) {
  return "{\"id\":\"" + id + "\",\"op\":\"eco\",\"session\":\"" + kEcoSessions[session] +
         "\",\"mutation\":{\"generate\":true,\"seed\":" + std::to_string(seed) + "}}";
}

/// The request stream: index -> (kind, session, router, seed). Every fourth
/// request is an eco; the routes follow kRouteCycle, first with seed 1 and
/// then with seed 2: 36 routes and 12 ecos. Route latency falls into one
/// cluster per (session, router), far apart from each other. The weights put
/// the median in the middle of the heaviest cluster (small/cugr2-lite, 28%
/// to 72% of the routes) and the 95th percentile in the middle of the top
/// one (large/sproute-lite, 89% to 100%): a percentile that sat at a cluster
/// edge would jump across the gap from run to run.
struct Planned {
  Kind kind;
  int session;
  int router;
  int seed;
};

constexpr int kCycleRoutes = 18;
constexpr int kCycleRequests = 2 * kCycleRoutes * 4 / 3;  // both seeds, with ecos
/// (session, router) of each route in the cycle. The routes that take
/// longer than the middle rate's send interval (large cugr2-lite and
/// sproute-lite) come right before an eco, so that the eco, not a route,
/// waits behind them; otherwise whether the next route waits turns on a few
/// milliseconds of host speed, and the latency percentiles step with it.
constexpr int kRouteCycle[kCycleRoutes][2] = {
    {0, 1}, {0, 0}, {1, 2}, {0, 1}, {0, 1}, {0, 2}, {0, 0}, {0, 1}, {1, 1},
    {0, 1}, {0, 0}, {0, 2}, {0, 1}, {1, 0}, {1, 2}, {0, 1}, {0, 0}, {0, 1}};

Planned plan_request(std::int64_t i) {
  if (i % 4 == 3) return {Kind::kEco, static_cast<int>((i / 4) % 2), -1, 0};
  const std::int64_t j = i - i / 4;  // route ordinal
  const int* entry = kRouteCycle[j % kCycleRoutes];
  return {Kind::kRoute, entry[0], entry[1], 1 + static_cast<int>((j / kCycleRoutes) % 2)};
}

std::string route_key(int session, int router, int seed) {
  return std::string(kRouteSessions[session]) + "/" + kRouters[router] + "/" +
         std::to_string(seed);
}

struct Setup {
  std::unique_ptr<dgr::serve::Server> server;
  double seconds = 0.0;
};

dgr::serve::ServerOptions server_options() {
  dgr::serve::ServerOptions o;
  o.workers = 1;
  // Large enough that the above-saturation phase builds a backlog instead
  // of shedding load: no request of this workload is refused.
  o.queue_capacity = 4096;
  return o;  // everything else at the daemon defaults (60 DGR iterations)
}

/// Server start, session loads and the first eco per eco session. The
/// eco mutations are fixed, not drawn from --seed: the cost of an eco
/// follows its mutation by tens of percent, and set-up is compared across
/// seeds.
Setup set_up(Ledger& ledger, const std::vector<std::string>& texts, int round) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.server = std::make_unique<dgr::serve::Server>(server_options());
  s.server->start();
  const std::string tag = "setup" + std::to_string(round) + "_";
  for (int k = 0; k < 2; ++k) {
    Record r;
    r.server = round;
    r.kind = Kind::kLoad;
    r.id = tag + "load_" + kRouteSessions[k];
    send(*s.server, ledger, r, load_line(r.id, kRouteSessions[k], texts[static_cast<std::size_t>(k)]));
    r.id = tag + "load_" + kEcoSessions[k];
    send(*s.server, ledger, r, load_line(r.id, kEcoSessions[k], texts[static_cast<std::size_t>(k)]));
  }
  for (int k = 0; k < 2; ++k) {
    Record r;
    r.server = round;
    r.kind = Kind::kEco;
    r.id = tag + "eco_" + kEcoSessions[k];
    send(*s.server, ledger, r, eco_line(r.id, k, mix_seed(0, 500 + k)));
  }
  ledger.drain();
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

bool response_ok(const std::string& line, Value* doc, std::string* error) {
  if (!Value::parse(line, doc, error)) return false;
  if (!dgr::serve::validate_response_json(*doc, error)) return false;
  const Value* ok = doc->find("ok");
  return ok != nullptr && ok->as_bool();
}

double number_at(const Value& doc, std::initializer_list<const char*> path) {
  const Value* v = &doc;
  for (const char* key : path) {
    v = v->find(key);
    if (v == nullptr) return 0.0;
  }
  return v->is_number() ? v->as_number() : (v->is_bool() ? (v->as_bool() ? 1.0 : 0.0) : 0.0);
}

double ms(Clock::time_point a, Clock::time_point b) { return seconds_between(a, b) * 1e3; }

}  // namespace

void run_serve(const RunOptions& options, RunResult& result) {
  const std::vector<std::string> texts = {
      design_text(session_design(0), 100), design_text(session_design(1), 101)};

  Ledger ledger;
  set_hang_guard_pending([&ledger] { return ledger.pending_ids(); },
                         [&ledger] { return ledger.outstanding(); });

  // ---- set-up; the last server set up here carries the measurement -------
  std::vector<double> setups;
  Setup setup;
  int round = 0;
  for (; round < kSetupRoundsBefore; ++round) {
    if (setup.server) setup.server->shutdown(true);
    dgr::obs::metrics().reset();
    setup = set_up(ledger, texts, round);
    setups.push_back(setup.seconds);
  }
  // Throwaway servers, set up while the measured one has nothing in flight
  // (one routing job at a time keeps util::Pool single-submitter).
  auto set_up_in_gap = [&] {
    for (int k = 0; k < kSetupRoundsPerGap; ++k, ++round) {
      const Setup extra = set_up(ledger, texts, round);
      extra.server->shutdown(true);
      setups.push_back(extra.seconds);
    }
  };
  dgr::serve::Server& server = *setup.server;
  const std::size_t first_timed = ledger.records().size();

  // ---- closed loop: one request in flight ----------------------------------
  // It runs in slices of passes, one before the open loop and one after each
  // of its phases, so that route_wall_s samples the whole run too.
  const Clock::time_point start = Clock::now();
  std::vector<double> pass_walls;
  std::int64_t seq = 0;
  int pass = 0;
  auto closed_loop_pass = [&] {
    const Clock::time_point t0 = Clock::now();
    Clock::time_point routes_done = t0;
    for (int k = 0; k < 14; ++k) {
      Record r;
      r.server = kMeasuredRound;
      r.id = std::string("c").append(std::to_string(pass)).append("_").append(std::to_string(k));
      std::string line;
      if (k < 12) {
        const int router = k % 3, session = (k / 3) % 2, seed = 1 + k / 6;
        r.kind = Kind::kRoute;
        r.router = router;
        r.key = route_key(session, router, seed);
        line = route_line(r.id, session, router, seed);
      } else {
        r.kind = Kind::kEco;
        line = eco_line(r.id, k - 12, mix_seed(options.seed, 10000 + static_cast<std::uint64_t>(seq)));
      }
      ++seq;
      send(server, ledger, r, line);
      ledger.drain();
      if (k == 11) routes_done = Clock::now();
    }
    // Pass 0 warms the per-session caches (DAG forests); it is not timed.
    // The ecos are left out of the pass time: their cost follows the
    // mutated session state, not the route path.
    if (pass > 0) pass_walls.push_back(seconds_between(t0, routes_done));
    ++pass;
  };
  const double slice_budget = kClosedShare * options.seconds / kClosedSlices;
  auto closed_loop_slice = [&] {
    const Clock::time_point slice_start = Clock::now();
    do {
      closed_loop_pass();
    } while (pass < 2 || seconds_between(slice_start, Clock::now()) < slice_budget);
  };
  closed_loop_slice();
  set_up_in_gap();

  // ---- open loop: three fixed rates, a single generator thread -----------
  double gen_late_ms = 0.0;
  // The seed rotates where the request cycle starts. Each middle-rate phase
  // sends whole cycles, so every seed sends it the same mix.
  std::int64_t index = static_cast<std::int64_t>(options.seed % kCycleRequests);
  constexpr int kPhases = static_cast<int>(std::size(kPhaseRates));
  Clock::time_point phase_start[kPhases];
  std::int64_t sent[3] = {0, 0, 0};
  for (int p = 0; p < kPhases; ++p) {
    const int rate = kPhaseRates[p];
    std::int64_t n = static_cast<std::int64_t>(kRates[rate] * kRateShare[rate] * options.seconds);
    if (rate == 1) n = kCycleRequests * std::max<std::int64_t>(1, n / kCycleRequests / kMidPhases);
    phase_start[p] = Clock::now() + std::chrono::milliseconds(20);
    for (std::int64_t k = 0; k < n; ++k, ++index) {
      const Clock::time_point due =
          phase_start[p] + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                               static_cast<double>(k) / kRates[rate]));
      std::this_thread::sleep_until(due);
      gen_late_ms = std::max(gen_late_ms, ms(due, Clock::now()));
      const Planned plan = plan_request(index);
      Record r;
      r.server = kMeasuredRound;
      r.id = std::string("o") + kRateNames[rate] + "_" + std::to_string(sent[rate]++);
      r.phase = p;
      r.scheduled = due;
      std::string line;
      if (plan.kind == Kind::kEco) {
        r.kind = Kind::kEco;
        line = eco_line(r.id, plan.session,
                        mix_seed(options.seed, 20000 + static_cast<std::uint64_t>(index)));
      } else {
        r.kind = Kind::kRoute;
        r.router = plan.router;
        r.key = route_key(plan.session, plan.router, plan.seed);
        line = route_line(r.id, plan.session, plan.router, plan.seed);
      }
      send(server, ledger, r, line);
    }
    ledger.drain();  // phases do not overlap
    set_up_in_gap();
    closed_loop_slice();
  }
  const double measured = seconds_between(start, Clock::now());

  // ---- stats op, then shutdown ---------------------------------------------
  Value stats_doc;
  std::string error;
  const std::string stats_line = server.call("{\"id\":\"stats\",\"op\":\"stats\"}");
  if (!response_ok(stats_line, &stats_doc, &error)) {
    result.fail("stats op: " + error + " " + stats_line.substr(0, 200));
  }
  const dgr::serve::Server::Accounting acct = server.accounting();
  server.shutdown(true);
  ledger.drain();
  set_hang_guard_pending(nullptr, nullptr);

  // ---- checks and accounting ------------------------------------------------
  const std::vector<Record>& records = ledger.records();
  // Outcomes of the answered data-plane requests, read from the responses.
  std::int64_t succeeded = 0, rejected = 0, failed = 0;
  std::int64_t hits = 0, misses = 0;                 // measured server only
  std::int64_t measured_ok = 0, measured_rejected = 0, measured_failed = 0;
  std::map<std::string, std::string> reference;  // route key -> result JSON
  std::map<std::string, Value> quality;          // route key -> metrics
  std::vector<double> service_ms, route_ms[3], eco_ms, dirty, closure;
  std::map<std::string, std::vector<double>> key_service_ms;  // closed loop, per route key
  std::vector<std::pair<std::string, double>> mid_route_key_latency;
  double full_reroutes = 0;
  std::vector<double> rate_latency[3];
  std::vector<double> mid_route_latency;
  std::int64_t rate_rejected[3] = {0, 0, 0};
  Clock::time_point phase_last[kPhases] = {};
  double phase_final_latency[kPhases] = {};  // of the last request sent in it
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const bool measured_server = r.server == kMeasuredRound;
    const bool timed = measured_server && i >= first_timed;
    Value doc;
    bool ok = false;
    bool refused = false;
    if (!r.answered) {
      result.fail(r.id + ": unanswered");
    } else if (response_ok(r.response, &doc, &error)) {
      ok = true;
    } else {
      const Value* err = doc.find("error");
      const Value* code_v = err != nullptr ? err->find("code") : nullptr;
      const Value* msg_v = err != nullptr ? err->find("message") : nullptr;
      const std::string code = code_v != nullptr ? code_v->as_string() : error;
      const std::string message = msg_v != nullptr ? msg_v->as_string() : std::string();
      refused = code == "RESOURCE_EXHAUSTED" && message.find("admission") != std::string::npos;
      if (code == "NOT_FOUND" && measured_server) ++misses;
      result.fail(r.id + ": " + code + " " + message);
    }
    if (refused && r.phase >= 0) ++rate_rejected[kPhaseRates[r.phase]];
    if (r.answered && r.kind != Kind::kLoad) {
      if (ok) {
        ++succeeded;
      } else if (refused) {
        ++rejected;
      } else {
        ++failed;
      }
    }
    if (measured_server) {
      measured_ok += ok ? 1 : 0;
      measured_rejected += refused ? 1 : 0;
      measured_failed += !ok && !refused && r.answered ? 1 : 0;
      if (ok && r.kind != Kind::kLoad) ++hits;  // found its session
    }
    const Value* res = ok ? doc.find("result") : nullptr;
    if (res != nullptr && r.kind == Kind::kRoute) {
      if (number_at(*res, {"degraded"}) != 0.0) result.fail(r.id + ": degraded route");
      const std::string body = res->dump();
      const auto it = reference.find(r.key);
      if (it == reference.end()) {
        reference[r.key] = body;
        if (res->find("metrics") != nullptr) quality[r.key] = *res->find("metrics");
      } else if (it->second != body) {
        result.fail(r.id + ": response differs from an identical earlier request (" + r.key +
                    ")");
      }
    }
    if (res != nullptr && r.kind == Kind::kEco && timed) {
      dirty.push_back(number_at(*res, {"dirty_fraction"}));
      closure.push_back(number_at(*res, {"closure_nets"}));
      full_reroutes += number_at(*res, {"full_reroute"});
    }
    if (!timed) continue;
    ++result.attempted;
    if (!ok) ++result.failed;
    if (r.phase < 0) {  // closed loop
      const double service = ms(r.submitted, r.completed);
      service_ms.push_back(service);
      if (r.kind == Kind::kRoute) {
        route_ms[r.router].push_back(service);
        key_service_ms[r.key].push_back(service);
      }
      if (r.kind == Kind::kEco) eco_ms.push_back(service);
    } else {
      const double latency =
          ok ? ms(r.scheduled, r.completed) : std::numeric_limits<double>::infinity();
      const int rate = kPhaseRates[r.phase];
      rate_latency[rate].push_back(latency);
      phase_final_latency[r.phase] = latency;
      if (rate == 1 && r.kind == Kind::kRoute) {
        mid_route_latency.push_back(latency);
        mid_route_key_latency.push_back({r.key, latency});
      }
      phase_last[r.phase] = std::max(phase_last[r.phase], r.completed);
    }
  }
  if (ledger.duplicate_answers()) result.fail("a request was answered twice");
  // A request lost between send and answer breaks this equation.
  if (ledger.data_offered() != succeeded + rejected + failed) {
    result.fail("ledger: offered " + std::to_string(ledger.data_offered()) + " != succeeded " +
                std::to_string(succeeded) + " + rejected " + std::to_string(rejected) +
                " + failed " + std::to_string(failed));
  }
  // The daemon's counters also see the final "stats" control op; everything
  // else it counted is data-plane traffic of the measured server.
  if (acct.offered != measured_ok + measured_rejected + measured_failed + 1 ||
      acct.succeeded != measured_ok + 1 || acct.rejected != measured_rejected ||
      acct.failed != measured_failed) {
    result.fail("daemon accounting (offered " + std::to_string(acct.offered) + ", ok " +
                std::to_string(acct.succeeded) + ", rejected " + std::to_string(acct.rejected) +
                ", failed " + std::to_string(acct.failed) + ") disagrees with the ledger");
  }

  // ---- end-to-end metrics ---------------------------------------------------
  const double objective = server_options().slo.latency_objective_ms;
  double max_ok_rate = 0.0;
  for (int rate = 0; rate < 3; ++rate) {
    const double p95 = percentile(rate_latency[rate], 0.95);
    // Within the objective and no backlog left at the end of any phase.
    double last = 0.0, span = 0.0;
    for (int p = 0; p < kPhases; ++p) {
      if (kPhaseRates[p] != rate) continue;
      last = std::max(last, phase_final_latency[p]);
      span += seconds_between(phase_start[p], phase_last[p]);
    }
    if (p95 <= objective && last <= objective && rate_rejected[rate] == 0 &&
        !rate_latency[rate].empty()) {
      max_ok_rate = static_cast<double>(rate_latency[rate].size()) / std::max(span, 1e-9);
    }
    result.info.push_back(
        {std::string("rate_") + kRateNames[rate] + "_rps", std::to_string(kRates[rate])});
    result.info.push_back({std::string("p95_ms_") + kRateNames[rate], std::to_string(p95)});
    result.info.push_back({std::string("samples_") + kRateNames[rate],
                           std::to_string(rate_latency[rate].size())});
  }
  double overflow_edges = 0, total_overflow = 0, wirelength = 0, bends = 0;
  for (const auto& [key, m] : quality) {
    overflow_edges += number_at(m, {"overflow_edges"});
    total_overflow += number_at(m, {"total_overflow"});
    wirelength += number_at(m, {"wirelength"});
    bends += number_at(m, {"bends"});
  }
  if (quality.size() != 12) result.fail("expected 12 distinct route responses");

  if (options.trace) {
    // Every timed request as a span from its scheduled send to its answer.
    Tracer tracer;
    for (std::size_t i = first_timed; i < records.size(); ++i) {
      const Record& r = records[i];
      if (!r.answered || r.server != kMeasuredRound) continue;
      tracer.record(r.kind == Kind::kEco ? std::string("serve.eco")
                                         : std::string("serve.route.") + kRouters[r.router],
                    r.scheduled, r.completed);
    }
    if (!options.trace_out.empty() && !tracer.write_chrome_trace(options.trace_out)) {
      result.fail("cannot write the Chrome trace to " + options.trace_out);
    }
    result.metric("serve.route_dgr_ms_p50", median(route_ms[0]));
    result.metric("serve.route_cugr2_ms_p50", median(route_ms[1]));
    result.metric("serve.route_sproute_ms_p50", median(route_ms[2]));
    result.metric("serve.eco_ms_p50", median(eco_ms));
    result.metric("serve.service_ms_p50", median(service_ms));
    // Each middle-rate route's latency minus the closed-loop service time
    // of the same request.
    std::vector<double> wait_ms;
    for (const auto& [key, latency] : mid_route_key_latency) {
      wait_ms.push_back(latency - median(key_service_ms[key]));
    }
    result.metric("serve.wait_ms_p50", median(wait_ms));
    result.metric("serve.cache_hits", static_cast<double>(hits));
    result.metric("serve.cache_misses", static_cast<double>(misses));
    result.metric("serve.cache_evictions",
                  number_at(stats_doc, {"result", "metrics", "counters", "serve.cache.evictions"}));
    result.metric("eco.dirty_fraction_mean", mean(dirty));
    result.metric("eco.closure_nets_mean", mean(closure));
    result.metric("eco.full_reroutes", full_reroutes);
    result.metric("serve.rejected_low", static_cast<double>(rate_rejected[0]));
    result.metric("serve.rejected_mid", static_cast<double>(rate_rejected[1]));
    result.metric("serve.rejected_high", static_cast<double>(rate_rejected[2]));
    result.metric("serve.gen_late_ms_max", gen_late_ms);
  } else {
    result.metric("setup_s", median(setups));
    result.metric("route_wall_s", median(pass_walls));
    result.metric("overflow_edges", overflow_edges);
    result.metric("total_overflow", total_overflow);
    result.metric("wirelength", wirelength);
    result.metric("vias", bends);
    // Route requests only: with the ecos, the fast requests (eco, dgr) are
    // exactly half the mix, so the median would sit in the gap between the
    // fast and the slow cluster and jump between them from run to run.
    result.metric("latency_p50_ms", median(mid_route_latency));
    result.metric("latency_p95_ms", percentile(mid_route_latency, 0.95));
    result.metric("max_ok_rate_rps", max_ok_rate);
  }
  result.info.push_back({"samples_mid_routes", std::to_string(mid_route_latency.size())});
  result.info.push_back({"closed_loop_passes", std::to_string(pass_walls.size())});
  result.info.push_back({"gen_late_ms_max", std::to_string(gen_late_ms)});
  result.info.push_back({"measured_s", std::to_string(measured)});
}

void run_livelock_repro(const RunOptions& options, RunResult& result) {
  dgr::serve::ServerOptions o = server_options();
  o.workers = 2;
  dgr::serve::Server server(o);
  server.start();
  Ledger ledger;
  set_hang_guard_pending([&ledger] { return ledger.pending_ids(); },
                         [&ledger] { return ledger.outstanding(); });
  for (int k = 0; k < 2; ++k) {
    Record r;
    r.kind = Kind::kLoad;
    r.id = std::string("load_") + kRouteSessions[k];
    send(server, ledger, r,
         load_line(r.id, kRouteSessions[k],
                   design_text(session_design(k), 100 + static_cast<std::uint64_t>(k))));
  }
  ledger.drain();
  // Concurrent DGR routes on two sessions: both workers submit pool jobs.
  for (int k = 0; k < 16; ++k) {
    Record r;
    r.id = "dgr_" + std::to_string(k);
    send(server, ledger, r,
         route_line(r.id, k % 2, 0, static_cast<int>(options.seed % 1000) + 1 + k / 2));
  }
  ledger.drain();
  server.shutdown(true);
  set_hang_guard_pending(nullptr, nullptr);
  result.attempted = 18;
  std::printf("livelock repro: all %zu requests answered (no hang this time)\n",
              ledger.records().size());
}

}  // namespace perfbench
