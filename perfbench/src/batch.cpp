// Batch workloads: design text in, metrics out, through the public
// pipeline entry points.
//
//   dgr_congested       Table 2 ispd18_5m preset routed by "dgr" at the
//                       paper's 1000 iterations (dag, core/ad, post).
//   partitioned_ladder  Table 3 test4..test7 with hot-spot affinity +0.30,
//                       routed by "partitioned" (4 cugr2-lite regions):
//                       partition, routers, post — never ad/core.
//
// Both run maze refine, validation, layer assignment and eval. The
// untraced run repeats passes over the designs for the run's seconds; the
// traced run alternates an untraced pass with a step-by-step composition of
// the same stages under spans and requires both to agree bitwise.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "core/solver.hpp"
#include "design/io.hpp"
#include "partition/partition.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dgr::pipeline::PipelineResult;
using dgr::pipeline::RouterOptions;
using dgr::pipeline::RoutingContext;

struct BatchSpec {
  std::string router;
  RouterOptions options;
  dgr::pipeline::StagePlan plan;
  std::vector<std::string> names;
  std::vector<std::string> texts;
};

BatchSpec make_spec(const RunOptions& run) {
  BatchSpec spec;
  spec.plan.maze_refine = true;
  spec.plan.layer_assign = true;
  std::vector<dgr::design::IspdLikeParams> presets;
  std::uint64_t generator_seed = 0;  // the seeds of the repo's own harnesses
  if (run.workload == "dgr_congested") {
    generator_seed = 404;  // bench/table2_cugr2
    spec.router = "dgr";  // RouterOptions defaults: 1000 iterations, paper schedule
    presets.push_back(dgr::design::table2_presets(1.0).front());  // ispd18_5m
  } else {
    generator_seed = 1818;  // bench/partition_scaling
    spec.router = "partitioned";
    spec.options.partition.partitions = 4;
    spec.options.partition.region_router = "cugr2-lite";
    const auto ladder = dgr::design::table3_presets(1.0);
    for (std::size_t i = 3; i <= 6; ++i) {  // test4..test7
      dgr::design::IspdLikeParams p = ladder[i];
      p.hotspot_affinity = std::min(0.85, p.hotspot_affinity + 0.30);
      presets.push_back(p);
    }
  }
  if (spec.router == "dgr") {
    // DGR's aggregate quality is insensitive to net order (overflow within
    // ~2%, wirelength within 0.1% across orders), so each seed routes
    // another order of the same design.
    spec.names.push_back(presets[0].name);
    spec.texts.push_back(design_text(presets[0], generator_seed, mix_seed(run.seed, 0)));
  } else {
    // The sequential region routers are order-sensitive on these nearly
    // routable designs (total overflow ~150 moves by ~20% across net
    // orders), which would swamp any quality bound; the designs stay in
    // generator order and the seed rotates the order a pass visits them.
    for (std::size_t k = 0; k < presets.size(); ++k) {
      const std::size_t i = (k + run.seed) % presets.size();
      spec.names.push_back(presets[i].name);
      spec.texts.push_back(design_text(presets[i], generator_seed));
    }
  }
  return spec;
}

/// One design routed once.
struct DesignRun {
  bool ok = false;
  double wall_s = 0.0;  ///< text in -> metrics out
  dgr::eval::Metrics metrics;
  std::int64_t vias = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t route_hash = 0;  ///< route-stage solution (traced run only)
  double route_s = 0.0;          ///< route stage (traced run only)
  std::size_t routable_nets = 0;
  dgr::pipeline::RouterStats stats;
  dgr::post::MazeRefineStats refine;
  std::size_t path_candidates = 0;
  std::size_t tree_candidates = 0;
};

std::uint64_t fingerprint(const PipelineResult& r) {
  std::uint64_t h = solution_hash(r.solution) ^ (metrics_hash(r.metrics) * 31);
  h ^= static_cast<std::uint64_t>(r.layers.via_count) * 0x100000001B3ull;
  h ^= static_cast<std::uint64_t>(r.nets_with_overflow) << 17;
  return h;
}

/// The output checks every routed design must pass.
bool check_design(RoutingContext& ctx, const PipelineResult& r, const std::string& name,
                  RunResult& result) {
  bool ok = true;
  auto fail = [&](const std::string& what) {
    result.fail(name + ": " + what);
    ok = false;
  };
  if (!r.stats.status.ok()) fail("status " + r.stats.status.to_string());
  if (r.stats.degraded) fail("degraded result");
  if (r.solution.design == nullptr || !r.solution.connects_all_pins()) {
    fail("solution does not connect all pins");
  }
  if (!r.validation.status.ok() || !r.validation.broken_nets.empty()) {
    fail("validation: " + r.validation.status.to_string());
  }
  if (r.solution.design != nullptr) {
    // Re-validate from outside: the live DemandMap must equal the demand of
    // the returned solution.
    const dgr::pipeline::ValidationReport v = dgr::pipeline::validate_solution(ctx, r.solution);
    if (!v.status.ok() || !v.demand_consistent) {
      fail("post-run validation: " + v.status.to_string());
    }
  }
  return ok;
}

std::optional<dgr::design::Design> parse(const std::string& text, const std::string& name,
                                         RunResult& result) {
  std::istringstream is(text);
  dgr::Result<dgr::design::Design> parsed = dgr::design::try_read_design(is);
  if (!parsed.ok()) {
    result.fail(name + ": parse: " + parsed.status().to_string());
    return std::nullopt;
  }
  return parsed.take();
}

DesignRun route_untraced(const BatchSpec& spec, std::size_t i, RunResult& result) {
  DesignRun run;
  const Clock::time_point t0 = Clock::now();
  std::optional<dgr::design::Design> design = parse(spec.texts[i], spec.names[i], result);
  if (!design) return run;
  RoutingContext ctx(*design);
  dgr::pipeline::Pipeline pipe(ctx);
  const PipelineResult r = pipe.run(spec.router, spec.options, spec.plan);
  run.wall_s = seconds_between(t0, Clock::now());
  run.ok = check_design(ctx, r, spec.names[i], result);
  run.metrics = r.metrics;
  run.vias = r.layers.via_count;
  run.fingerprint = fingerprint(r);
  run.routable_nets = design->routable_nets().size();
  run.stats = r.stats;
  run.refine = r.refine;
  if (spec.router == "dgr") {
    dgr::dag::ForestOptions fopts = spec.options.forest;
    const dgr::dag::DagForest& forest = ctx.forest(fopts);  // cached by the route
    run.path_candidates = forest.paths().size();
    run.tree_candidates = forest.trees().size();
  }
  return run;
}

/// The DGR adapter's steps, one public call at a time: context forest,
/// solver construction, train_step per iteration, the final-cost
/// evaluation train() ends with, extraction, and the demand sync.
bool compose_dgr(RoutingContext& ctx, const RouterOptions& options, Tracer* tracer,
                 dgr::eval::RouteSolution& sol, const std::string& name, RunResult& result) {
  dgr::dag::ForestOptions fopts = options.forest;
  fopts.via_demand_beta = ctx.via_beta();
  const dgr::dag::DagForest* forest = nullptr;
  {
    Tracer::Scope s(tracer, "dag.forest");
    forest = &ctx.forest(fopts);
  }
  dgr::core::DgrConfig config = options.dgr;
  config.cancel_flag = ctx.cancel_flag();
  std::optional<dgr::core::DgrSolver> solver;
  {
    Tracer::Scope s(tracer, "core.solver_init");
    solver.emplace(*forest, ctx.capacities(), config);
  }
  {
    Tracer::Scope s(tracer, "core.train");
    for (int it = 0; it < config.iterations; ++it) {
      Tracer::Scope step(tracer, "core.train_step");
      solver->train_step(it);
      if (config.health_checks && !solver->last_step_finite()) {
        // train() would roll back here; the composition cannot, so the
        // per-layer numbers would describe another program.
        result.fail(name + ": non-finite train step " + std::to_string(it) +
                    " in the traced composition");
        return false;
      }
    }
    Tracer::Scope final_eval(tracer, "core.final_eval");
    solver->evaluate(solver->temperature_at(std::max(0, config.iterations - 1)));
  }
  {
    Tracer::Scope s(tracer, "core.extract");
    sol = solver->extract();
  }
  {
    Tracer::Scope s(tracer, "pipeline.sync");
    ctx.reset_demand();
    ctx.commit(sol);
  }
  return true;
}

/// Pipeline::run's stages composed from their public entry points under
/// spans; must reproduce route_untraced bitwise.
DesignRun route_traced(const BatchSpec& spec, std::size_t i, Tracer* tracer,
                       RunResult& result) {
  DesignRun run;
  const std::string& name = spec.names[i];
  const Clock::time_point t0 = Clock::now();
  std::optional<dgr::design::Design> design;  // outlives the context
  std::optional<RoutingContext> ctx;
  PipelineResult r;
  {
    Tracer::Scope d(tracer, "design");
    {
      Tracer::Scope s(tracer, "design.parse");
      design = parse(spec.texts[i], name, result);
    }
    if (!design) return run;
    {
      Tracer::Scope s(tracer, "pipeline.context");
      ctx.emplace(*design);
    }
    const Clock::time_point t_route = Clock::now();
    if (spec.router == "dgr") {
      if (!compose_dgr(*ctx, spec.options, tracer, r.solution, name, result)) return run;
    } else {
      Tracer::Scope s(tracer, "routers.route");
      const std::unique_ptr<dgr::pipeline::Router> router =
          dgr::pipeline::make_router(spec.router, spec.options);
      r.solution = router->route(*ctx);
      r.stats = router->stats();
    }
    run.route_s = seconds_between(t_route, Clock::now());
    {
      Tracer::Scope s(tracer, "perfbench.fingerprint");
      run.route_hash = solution_hash(r.solution);
    }

    const dgr::pipeline::PipelineOptions popts;
    dgr::post::MazeRefineOptions refine = popts.refine;
    refine.via_beta = ctx->via_beta();
    if (spec.plan.maze_refine) {
      {
        Tracer::Scope s(tracer, "post.refine");
        r.refine = dgr::post::maze_refine(r.solution, ctx->capacities(), refine);
      }
      Tracer::Scope s(tracer, "pipeline.sync");
      ctx->reset_demand();
      ctx->commit(r.solution);
    }
    {
      Tracer::Scope s(tracer, "pipeline.validate");
      r.validation = dgr::pipeline::validate_solution(*ctx, r.solution);
      if (!r.validation.demand_consistent) {
        ctx->reset_demand();
        ctx->commit(r.solution);
      }
      if (!r.validation.broken_nets.empty()) {
        r.stats.repaired_nets = dgr::pipeline::repair_broken_nets(
            *ctx, r.solution, r.validation.broken_nets, refine);
        r.validation = dgr::pipeline::validate_solution(*ctx, r.solution);
      }
    }
    if (spec.plan.layer_assign) {
      Tracer::Scope s(tracer, "post.layer_assign");
      r.layers = dgr::post::assign_layers(r.solution, ctx->capacities(), popts.layers);
    }
    {
      Tracer::Scope s(tracer, "eval.metrics");
      r.metrics = ctx->evaluate(r.solution);
      r.weighted_overflow = ctx->weighted_overflow(r.solution);
      r.nets_with_overflow = ctx->nets_with_overflow(r.solution);
    }
  }
  run.wall_s = seconds_between(t0, Clock::now());
  run.ok = check_design(*ctx, r, name + " (traced)", result);
  run.metrics = r.metrics;
  run.vias = r.layers.via_count;
  run.fingerprint = fingerprint(r);
  run.stats = r.stats;
  run.refine = r.refine;
  return run;
}

struct Pass {
  std::vector<DesignRun> designs;
  double wall_s = 0.0;
};

/// Set-up samples of each design per pass. A design's set-up, parse +
/// RoutingContext, takes milliseconds, and the host's speed drifts by tens
/// of percent over seconds, so a median that is steady between runs needs
/// many samples spread over the whole run. Back-to-back samples share the
/// speed of the moment, so they are taken in small groups: before each
/// design is routed, every design's set-up is timed
/// kSetupSamples / designs times (at least twice).
constexpr int kSetupSamples = 8;

/// Appends `count` timings of parse + RoutingContext of design `i`.
void time_setup(const BatchSpec& spec, std::size_t i, int count, std::vector<double>& samples,
                RunResult& result) {
  for (int k = 0; k < count; ++k) {
    const Clock::time_point t0 = Clock::now();
    std::optional<dgr::design::Design> design = parse(spec.texts[i], spec.names[i], result);
    if (!design) return;
    const RoutingContext ctx(*design);
    samples.push_back(seconds_between(t0, Clock::now()));
  }
}

/// One pass over the designs; with `setup_samples` (one list per design),
/// also samples every design's set-up before routing each one.
Pass untraced_pass(const BatchSpec& spec, RunResult& result,
                   std::vector<std::vector<double>>* setup_samples = nullptr) {
  Pass pass;
  const std::size_t designs = spec.texts.size();
  const int group = std::max(2, kSetupSamples / static_cast<int>(designs));
  for (std::size_t i = 0; i < designs; ++i) {
    for (std::size_t j = 0; setup_samples != nullptr && j < designs; ++j) {
      time_setup(spec, j, group, (*setup_samples)[j], result);
    }
    DesignRun d = route_untraced(spec, i, result);
    ++result.attempted;
    if (!d.ok) ++result.failed;
    pass.wall_s += d.wall_s;
    pass.designs.push_back(std::move(d));
  }
  return pass;
}

/// Passes of one run must agree bitwise with the first.
void check_same(const Pass& ref, const Pass& pass, const BatchSpec& spec,
                const std::string& what, RunResult& result) {
  for (std::size_t i = 0; i < spec.texts.size() && i < pass.designs.size(); ++i) {
    if (pass.designs[i].fingerprint != ref.designs[i].fingerprint) {
      result.fail(spec.names[i] + ": " + what + " differs from the first pass (" +
                  hex(pass.designs[i].fingerprint) + " vs " +
                  hex(ref.designs[i].fingerprint) + ")");
    }
  }
}

void report_quality(const Pass& pass, RunResult& result) {
  double overflow_edges = 0, total_overflow = 0, wirelength = 0, vias = 0;
  for (const DesignRun& d : pass.designs) {
    overflow_edges += static_cast<double>(d.metrics.overflow_edges);
    total_overflow += d.metrics.total_overflow;
    wirelength += static_cast<double>(d.metrics.wirelength);
    vias += static_cast<double>(d.vias);
  }
  result.metric("overflow_edges", overflow_edges);
  result.metric("total_overflow", total_overflow);
  result.metric("wirelength", wirelength);
  result.metric("vias", vias);
}

void run_untraced(const BatchSpec& spec, const RunOptions& options, RunResult& result) {
  std::vector<Pass> passes;
  std::vector<std::vector<double>> setup_samples(spec.texts.size());
  const Clock::time_point start = Clock::now();
  // At least two passes, so the bitwise repeatability check always runs;
  // another pass starts only if it is expected to end inside the budget.
  for (;;) {
    passes.push_back(untraced_pass(spec, result, &setup_samples));
    if (passes.size() > 1) check_same(passes.front(), passes.back(), spec, "pass", result);
    const double elapsed = seconds_between(start, Clock::now());
    std::vector<double> walls;
    for (const Pass& p : passes) walls.push_back(p.wall_s);
    if (passes.size() >= 2 && elapsed + median(walls) > options.seconds) break;
  }
  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall_s);
  // Latency of routing one design, text in to metrics out: each design's
  // median over the passes, then the percentiles over the designs. A batch
  // run has too few samples for a tail beyond its slowest design.
  std::vector<double> latencies;
  for (std::size_t i = 0; i < spec.texts.size(); ++i) {
    std::vector<double> per_pass;
    for (const Pass& p : passes) per_pass.push_back(p.designs[i].wall_s * 1e3);
    latencies.push_back(median(per_pass));
    result.info.push_back({"latency_ms_" + spec.names[i], std::to_string(latencies.back())});
  }
  const double measured = seconds_between(start, Clock::now());
  // A pass's set-up: each design's median set-up, summed.
  double setup_s = 0.0;
  for (const std::vector<double>& samples : setup_samples) setup_s += median(samples);
  result.metric("setup_s", setup_s);
  result.metric("route_wall_s", median(walls));
  report_quality(passes.front(), result);
  result.metric("latency_p50_ms", median(latencies));
  result.metric("latency_p95_ms", percentile(latencies, 0.95));
  // Closed loop, one design in flight: designs completed per second.
  result.metric("max_ok_rate_rps",
                static_cast<double>(spec.texts.size()) / std::max(median(walls), 1e-9));
  result.info.push_back({"passes", std::to_string(passes.size())});
  std::string pass_list;
  for (const double w : walls) pass_list += (pass_list.empty() ? "" : ",") + std::to_string(w);
  result.info.push_back({"pass_walls_s", pass_list});
  result.info.push_back({"measured_s", std::to_string(measured)});
}

void run_traced(const BatchSpec& spec, const RunOptions& options, RunResult& result) {
  Tracer tracer;
  std::vector<Pass> untraced, traced;
  std::vector<std::map<std::string, double>> selves;
  std::vector<double> step_ms, train_s, overhead;
  const Clock::time_point start = Clock::now();
  do {
    untraced.push_back(untraced_pass(spec, result));
    const std::size_t from = tracer.size();
    Pass pass;
    {
      Tracer::Scope root(&tracer, "pass");
      for (std::size_t i = 0; i < spec.texts.size(); ++i) {
        DesignRun d = route_traced(spec, i, &tracer, result);
        ++result.attempted;
        if (!d.ok) ++result.failed;
        pass.designs.push_back(std::move(d));
      }
    }
    pass.wall_s = tracer.durations("pass", from).back();
    check_same(untraced.back(), pass, spec, "traced composition", result);
    if (untraced.size() > 1) check_same(untraced.front(), untraced.back(), spec, "pass", result);
    selves.push_back(tracer.self_seconds(from));
    for (const double d : tracer.durations("core.train_step", from)) step_ms.push_back(d * 1e3);
    for (const double d : tracer.durations("core.train", from)) train_s.push_back(d);
    overhead.push_back(pass.wall_s / untraced.back().wall_s - 1.0);
    traced.push_back(std::move(pass));
  } while (seconds_between(start, Clock::now()) +
               untraced.back().wall_s + traced.back().wall_s <= options.seconds);

  auto self_median = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto& m : selves) {
      const auto it = m.find(name);
      v.push_back(it == m.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  result.metric("design.parse_s", self_median("design.parse"));
  result.metric("pipeline.context_s", self_median("pipeline.context"));
  result.metric("dag.forest_s", self_median("dag.forest"));
  result.metric("core.solver_init_s", self_median("core.solver_init"));
  result.metric("core.train_s", median(train_s));
  result.metric("core.step_ms_p50", median(step_ms));
  result.metric("core.extract_s", self_median("core.extract"));
  result.metric("post.refine_s", self_median("post.refine"));
  result.metric("pipeline.sync_s", self_median("pipeline.sync"));
  result.metric("pipeline.validate_s", self_median("pipeline.validate"));
  result.metric("post.layer_assign_s", self_median("post.layer_assign"));
  result.metric("eval.metrics_s", self_median("eval.metrics"));
  result.metric("routers.route_s", self_median("routers.route"));
  const double unattributed = self_median("pass") + self_median("design") +
                              self_median("core.train") + self_median("perfbench.fingerprint");
  std::vector<double> traced_walls;
  for (const Pass& p : traced) traced_walls.push_back(p.wall_s);
  result.metric("trace.pass_wall_s", median(traced_walls));
  result.metric("trace.unattributed_s", unattributed);
  result.metric("trace_overhead_frac", median(overhead));

  // Work counters from the untraced Pipeline::run of the first pass.
  double iterations = 0, rollbacks = 0, solver_bytes = 0, paths = 0, trees = 0;
  double rounds = 0, rerouted = 0, improved = 0, repaired = 0;
  double regions_routed = 0, reconcile_rerouted = 0, cross = 0, routable = 0;
  double regions_s = 0, reconcile_s = 0;
  for (const DesignRun& d : untraced.front().designs) {
    iterations += d.stats.counter("iterations");
    rollbacks += static_cast<double>(d.stats.rollbacks);
    solver_bytes += static_cast<double>(d.stats.solver_bytes);
    paths += static_cast<double>(d.path_candidates);
    trees += static_cast<double>(d.tree_candidates);
    rounds += d.refine.rounds_run;
    rerouted += static_cast<double>(d.refine.nets_rerouted);
    improved += static_cast<double>(d.refine.nets_improved);
    repaired += static_cast<double>(d.stats.repaired_nets);
    for (const dgr::pipeline::RouterStats& child : d.stats.children) {
      if (child.counter("region", -1.0) >= 0.0 && child.counter("region_nets") > 0.0) {
        ++regions_routed;
      }
    }
    reconcile_rerouted += d.stats.counter("reconcile_rerouted");
    cross += d.stats.counter("cross_nets");
    routable += static_cast<double>(d.routable_nets);
    regions_s += d.stats.stage_seconds("regions");
    reconcile_s += d.stats.stage_seconds("reconcile");
  }
  result.metric("dag.path_candidates", paths);
  result.metric("dag.tree_candidates", trees);
  result.metric("core.iterations", iterations);
  result.metric("core.rollbacks", rollbacks);
  result.metric("core.solver_bytes", solver_bytes);
  result.metric("post.refine_rounds", rounds);
  result.metric("post.refine_rerouted", rerouted);
  result.metric("post.refine_improved", improved);
  result.metric("post.refine_yield", rerouted > 0 ? improved / rerouted : 0.0);
  result.metric("pipeline.repaired_nets", repaired);

  if (spec.router == "partitioned") {
    result.metric("partition.regions_routed", regions_routed);
    result.metric("partition.reconcile_rerouted", reconcile_rerouted);
    result.metric("partition.cross_share", routable > 0 ? cross / routable : 0.0);
    result.metric("partition.regions_s", regions_s);
    result.metric("partition.reconcile_s", reconcile_s);

    // The plan on its own, on the same designs (a fresh context's demand
    // is what the router seeds from).
    std::vector<double> plan_s;
    const std::size_t from = tracer.size();
    for (std::size_t i = 0; i < spec.texts.size(); ++i) {
      std::optional<dgr::design::Design> design = parse(spec.texts[i], spec.names[i], result);
      if (!design) continue;
      const RoutingContext ctx(*design);
      Tracer::Scope s(&tracer, "partition.plan");
      dgr::partition::build_partition_plan(*design, spec.options.partition, &ctx.demand());
    }
    double plan_total = 0.0;
    for (const double d : tracer.durations("partition.plan", from)) plan_total += d;
    result.metric("partition.plan_s", plan_total);

    // Worker-count determinism: the route stage at 1 worker must equal the
    // traced 4-worker route bitwise; the time ratio is the parallel speedup.
    dgr::util::set_worker_count(1);
    double route_w1 = 0.0, route_wn = 0.0;
    for (std::size_t i = 0; i < spec.texts.size(); ++i) {
      std::optional<dgr::design::Design> design = parse(spec.texts[i], spec.names[i], result);
      if (!design) continue;
      RoutingContext ctx(*design);
      const std::unique_ptr<dgr::pipeline::Router> router =
          dgr::pipeline::make_router(spec.router, spec.options);
      const Clock::time_point t0 = Clock::now();
      const dgr::eval::RouteSolution sol = router->route(ctx);
      route_w1 += seconds_between(t0, Clock::now());
      route_wn += traced.back().designs[i].route_s;
      ++result.attempted;
      if (solution_hash(sol) != traced.back().designs[i].route_hash) {
        ++result.failed;
        result.fail(spec.names[i] + ": route at 1 worker differs from " +
                    std::to_string(options.workers) + " workers");
      }
    }
    dgr::util::set_worker_count(options.workers);
    result.metric("partition.speedup_w4", route_w1 / std::max(route_wn, 1e-9));
  }

  result.info.push_back({"traced_passes", std::to_string(traced.size())});
  result.info.push_back(
      {"attributed_frac",
       std::to_string(1.0 - unattributed / std::max(median(traced_walls), 1e-9))});
  if (!options.trace_out.empty() && !tracer.write_chrome_trace(options.trace_out)) {
    result.fail("cannot write the Chrome trace to " + options.trace_out);
  }
}

}  // namespace

void run_batch(const RunOptions& options, RunResult& result) {
  const BatchSpec spec = make_spec(options);
  if (options.trace) {
    run_traced(spec, options, result);
  } else {
    run_untraced(spec, options, result);
  }
}

}  // namespace perfbench
