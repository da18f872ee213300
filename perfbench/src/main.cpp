// si_perfbench: end-to-end benchmark of the paper workloads.
//
//   si_perfbench --workload <tran_table2|tran_large|sweep_yield|serve_mixed>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--repo <checkout root>] [--out-dir <dir>] [--ref-dir <dir>]
//   si_perfbench --workload <name> --seed <n> --dump-inputs
//   si_perfbench --workload <name> --write-references
//
// Untraced (--trace 0) the run measures the end-to-end metrics with
// telemetry off.  Traced (--trace 1) it runs half its time untraced and
// half with si::obs enabled and benchmark spans recorded, and reports
// the per-layer metrics plus the tracing overhead.  The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "analysis/mc_batch.hpp"
#include "obs/telemetry.hpp"
#include "runtime/parallel.hpp"
#include "workload.hpp"

extern char** environ;

namespace pb {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload (see README.md for
/// what each one means per workload).  Must match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"rate_per_s", "1/s"},
    {"latency_ms", "ms"},
};

/// Per-layer metrics of the traced run; a layer a workload never enters
/// reports 0.  Must match BENCHMARK.json.
constexpr MetricDef kPerLayer[] = {
    {"si.build_ms", "ms"},
    {"erc.check_ms", "ms"},
    {"verify.analyze_ms", "ms"},
    {"verify.fixpoint_iterations", "count"},
    {"verify.widenings", "count"},
    {"verify.corners_evaluated", "count"},
    {"spice.parse_ms", "ms"},
    {"spice.dc_op_ms", "ms"},
    {"spice.tran_step_us", "us"},
    {"spice.newton_iters_per_step", "ratio"},
    {"spice.newton_self_ms", "ms"},
    {"spice.pattern_builds", "count"},
    {"spice.gmin_ladders", "count"},
    {"linalg.factor_ms", "ms"},
    {"linalg.factors", "count"},
    {"linalg.refactor_ms", "ms"},
    {"linalg.refactors", "count"},
    {"linalg.repivots", "count"},
    {"linalg.schur_factor_ms", "ms"},
    {"linalg.schur_interface_ms", "ms"},
    {"linalg.share", "ratio"},
    {"event.block_solves", "count"},
    {"event.block_skips", "count"},
    {"event.latency_ratio", "ratio"},
    {"event.steps_skipped_ratio", "ratio"},
    {"event.scoped_solve_ms", "ms"},
    {"event.full_activations", "count"},
    {"dsm.ns_per_sample", "ns"},
    {"dsp.spectrum_ms_per_level", "ms"},
    {"analysis.mc_newton_iters_per_trial", "ratio"},
    {"analysis.mc_lane_fill_ratio", "ratio"},
    {"analysis.mc_ejection_ratio", "ratio"},
    {"analysis.mc_ladder_fallbacks", "count"},
    {"runtime.pool_tasks", "count"},
    {"runtime.pool_steals", "count"},
    {"runtime.pool_helped", "count"},
    {"runtime.pool_util", "ratio"},
    {"runtime.cache_hit_ratio", "ratio"},
    {"serve.op.server_ms", "ms"},
    {"serve.op.net_ms", "ms"},
    {"serve.op.exec_ms", "ms"},
    {"serve.op.queue_ms", "ms"},
    {"serve.tran.server_ms", "ms"},
    {"serve.tran.net_ms", "ms"},
    {"serve.tran.exec_ms", "ms"},
    {"serve.tran.queue_ms", "ms"},
    {"serve.mc.server_ms", "ms"},
    {"serve.mc.net_ms", "ms"},
    {"serve.mc.exec_ms", "ms"},
    {"serve.mc.queue_ms", "ms"},
    {"serve.json_parse_us", "us"},
    {"serve.json_dump_us", "us"},
    {"serve.parse_request_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.queue_depth_max", "count"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "si_perfbench: %s\nusage: si_perfbench --workload <tran_table2|tran_large|"
               "sweep_yield|serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--repo DIR] [--out-dir DIR] [--ref-dir DIR] [--dump-inputs] "
               "[--write-references]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--repo") o.repo = value();
      else if (a == "--out-dir") o.out_dir = value();
      else if (a == "--ref-dir") o.ref_dir = value();
      else if (a == "--dump-inputs") o.dump_inputs = true;
      else if (a == "--write-references") o.write_references = true;
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.ref_dir.empty()) o.ref_dir = o.repo + "/perfbench/reference";
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "tran_table2") return make_tran_workload(false);
  if (name == "tran_large") return make_tran_workload(true);
  if (name == "sweep_yield") return make_sweep_workload();
  if (name == "serve_mixed") return make_serve_workload();
  usage(("unknown workload " + name).c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Build and environment stamp; `flagged` marks a build whose timings
/// are not comparable (sanitizers, no optimization).
serve::Json host_stamp(const Options& opt, bool* flagged) {
  serve::Json h = serve::Json::object();
  const std::string build_type = SI_PERFBENCH_BUILD_TYPE;
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  *flagged = sanitized || !(build_type == "Release" || build_type == "RelWithDebInfo");
  h.set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  h.set("runtime_threads", static_cast<double>(si::runtime::thread_count()));
  h.set("compiler", SI_PERFBENCH_COMPILER);
  h.set("build_type", build_type);
  h.set("cxx_flags", SI_PERFBENCH_FLAGS);
  h.set("sanitizer", sanitized);
  h.set("obs_compiled", SI_OBS_ENABLED != 0);
  h.set("telemetry_on", opt.trace);
  h.set("flagged", *flagged);
  serve::Json env = serve::Json::object();
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "SI_", 3) == 0) {
      const char* eq = std::strchr(*e, '=');
      if (eq) env.set(std::string(*e, static_cast<std::size_t>(eq - *e)), std::string(eq + 1));
    }
  h.set("si_env", std::move(env));
  return h;
}

/// Runs rounds until `seconds` have passed and at least `min_rounds` ran.
void run_rounds(Workload& w, RunReport& r, Tracer* t, double seconds, int min_rounds) {
  const auto t0 = Clock::now();
  while (r.rounds < min_rounds || seconds_since(t0) < seconds) {
    w.round(r, t);
    ++r.rounds;
  }
}

/// Per-layer metrics read from the si::obs registry after `rounds`
/// traced rounds (counts and times are per round).
void registry_layers(RunReport& r, int rounds) {
  using si::obs::counter;
  auto c = [](const char* n) { return static_cast<double>(counter(n).value()); };
  auto ms = [](const char* n) { return static_cast<double>(si::obs::timer(n).total_ns()) * 1e-6; };
  auto calls = [](const char* n) { return static_cast<double>(si::obs::timer(n).count()); };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double R = rounds;
  auto& L = r.layers;

  // Newton time of the monolithic engine plus the event engine's scoped
  // solves; both enclose their own factor / refactor calls.
  const double newton_ms = ms("mna.newton") + ms("event.scoped_solve");
  const double factor_ms = ms("linalg.sparse.factor");
  const double refactor_ms = ms("linalg.sparse.refactor");
  const double schur_factor_ms = ms("schur.parallel_factor");
  const double schur_iface_ms = ms("schur.interface_solve");
  // SchurLu's timers enclose the block SparseLu factors it runs, so when
  // the BBD path ran they are the linalg time; otherwise the flat ones.
  const double linalg_ms =
      schur_factor_ms > 0.0 ? schur_factor_ms + schur_iface_ms : factor_ms + refactor_ms;
  L["spice.newton_iters_per_step"] = ratio(c("mna.newton_iterations"), c("transient.steps_accepted"));
  L["spice.newton_self_ms"] = std::max(0.0, newton_ms - linalg_ms) / R;
  L["spice.pattern_builds"] = c("mna.pattern_builds") / R;
  L["spice.gmin_ladders"] = c("dc.gmin_ladder_engaged") / R;
  L["linalg.factor_ms"] = factor_ms / R;
  L["linalg.factors"] = calls("linalg.sparse.factor") / R;
  L["linalg.refactor_ms"] = refactor_ms / R;
  L["linalg.refactors"] = calls("linalg.sparse.refactor") / R;
  L["linalg.repivots"] = (c("mna.pivot_repivots") + c("schur.repivots")) / R;
  L["linalg.schur_factor_ms"] = schur_factor_ms / R;
  L["linalg.schur_interface_ms"] = schur_iface_ms / R;
  // Linalg time beyond the Newton time means factors ran outside any
  // timed Newton loop (the batched MC engine): no share to report.
  L["linalg.share"] = linalg_ms <= newton_ms ? ratio(linalg_ms, newton_ms) : 0.0;

  const double solves = c("event.block_solves"), skips = c("event.block_skips");
  L["event.block_solves"] = solves / R;
  L["event.block_skips"] = skips / R;
  L["event.latency_ratio"] = ratio(skips, solves + skips);
  L["event.scoped_solve_ms"] = ms("event.scoped_solve") / R;
  L["event.full_activations"] = c("event.full_activations") / R;

  L["verify.fixpoint_iterations"] = c("verify.fixpoint_iterations") / R;
  L["verify.widenings"] = c("verify.widenings") / R;
  L["verify.corners_evaluated"] = c("verify.corners_evaluated") / R;

  const double batches = c("mc.batch.batches"), lanes = c("mc.batch.lanes_filled");
  if (lanes > 0.0) {
    // batched_solves counts batched Newton iterations (one per batch
    // pass, all live lanes at once); scalar_solves counts per-lane ones.
    const double lane_iters = c("mc.batch.batched_solves") * ratio(lanes, batches) +
                              c("mc.batch.scalar_solves");
    L["analysis.mc_newton_iters_per_trial"] = lane_iters / lanes;
    L["analysis.mc_lane_fill_ratio"] =
        ratio(lanes, batches * static_cast<double>(si::analysis::mc_batch_lanes(0)));
    L["analysis.mc_ejection_ratio"] = ratio(c("mc.batch.lane_ejections"), lanes);
    L["analysis.mc_ladder_fallbacks"] = c("dc.gmin_ladder_engaged") / R;
  }

  L["runtime.pool_tasks"] = c("runtime.pool_tasks") / R;
  L["runtime.pool_steals"] = c("runtime.pool_steals") / R;
  L["runtime.pool_helped"] = c("runtime.pool_helped") / R;
  L["runtime.cache_hit_ratio"] =
      ratio(c("runtime.cache_hits"), c("runtime.cache_hits") + c("runtime.cache_misses"));
}

void print_detail(const std::vector<Detail>& detail) {
  serve::Json d = serve::Json::object();
  for (const Detail& x : detail) {
    std::printf("  %-28s %14.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
    serve::Json m = serve::Json::object();
    m.set("value", x.value);
    m.set("unit", x.unit);
    m.set("better", x.better);
    d.set(x.name, std::move(m));
  }
  std::printf("detail: %s\n", d.dump().c_str());
}

int run(const Options& opt) {
  auto w = make_workload(opt.workload);
  if (opt.write_references) {
    w->prepare(opt);
    const serve::Json ref = w->make_reference();
    if (ref.is_null()) return 0;
    write_file(opt.ref_dir + "/" + opt.workload + ".json", ref.dump() + "\n");
    std::printf("wrote %s/%s.json\n", opt.ref_dir.c_str(), opt.workload.c_str());
    return 0;
  }
  w->prepare(opt);
  if (opt.dump_inputs) {
    std::fputs(w->dump_inputs().c_str(), stdout);
    return 0;
  }

  bool flagged = false;
  const serve::Json host = host_stamp(opt, &flagged);
  std::printf("host: %s\n", host.dump().c_str());
  if (flagged)
    std::fprintf(stderr, "si_perfbench: WARNING: %s build (sanitizer or unoptimized); "
                         "timings are not comparable\n", SI_PERFBENCH_BUILD_TYPE);

  si::obs::set_enabled(false);
  RunReport warm, main_run, traced;
  w->round(warm, nullptr);  // first-touch and lazy set-up; checked, not timed
  ++warm.rounds;

  serve::Json metrics = serve::Json::object();
  auto put = [&](const MetricDef& m, double v) {
    serve::Json e = serve::Json::object();
    e.set("value", v);
    e.set("unit", m.unit);
    metrics.set(m.name, std::move(e));
  };

  if (!opt.trace) {
    run_rounds(*w, main_run, nullptr, opt.seconds, 3);
    w->summarize(main_run);
    const double values[] = {fast(main_run.setup_s), peak_rss_mb(), 1.0 / fast(main_run.unit_s),
                             fast(main_run.latency_ms)};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) put(kEndToEnd[i], values[i]);
    std::printf("%s: %d rounds\n", opt.workload.c_str(), main_run.rounds);
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      std::printf("  %-28s %14.6g %s\n", kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
  } else {
    run_rounds(*w, main_run, nullptr, opt.seconds / 2.0, 2);
    Tracer tracer;
    tracer.set_enabled(true);
    w->trace_extras(traced, tracer);
    si::obs::reset();
    si::obs::set_enabled(true);
    run_rounds(*w, traced, &tracer, opt.seconds / 2.0, 1);
    si::obs::set_enabled(false);
    tracer.set_enabled(false);
    registry_layers(traced, traced.rounds);
    w->layers(traced, tracer, traced.rounds);
    traced.layers["trace.overhead_pct"] =
        100.0 * (fast(traced.latency_ms) / fast(main_run.latency_ms) - 1.0);
    for (const MetricDef& m : kPerLayer) {
      const auto it = traced.layers.find(m.name);
      put(m, it == traced.layers.end() ? 0.0 : it->second);
    }
    std::printf("%s traced: %d untraced + %d traced rounds\n", opt.workload.c_str(),
                main_run.rounds, traced.rounds);
    for (const MetricDef& m : kPerLayer)
      std::printf("  %-34s %14.6g %s\n", m.name, metrics.find(m.name)->find("value")->as_number(),
                  m.unit);

    std::filesystem::create_directories(opt.out_dir);
    const std::string stem = opt.out_dir + "/" + opt.workload + "_seed" + std::to_string(opt.seed);
    write_file(stem + ".trace.json", tracer.chrome_json() + "\n");
    serve::Json summary = serve::Json::object();
    serve::Json lt = serve::Json::object();
    for (const auto& [layer, t] : tracer.layer_times()) {
      serve::Json e = serve::Json::object();
      e.set("total_ms", t.total_ms);
      e.set("self_ms", t.self_ms);
      e.set("spans", static_cast<double>(t.spans));
      lt.set(layer, std::move(e));
    }
    summary.set("workload", opt.workload);
    summary.set("traced_rounds", traced.rounds);
    summary.set("span_layers", std::move(lt));
    summary.set("metrics", metrics);
    write_file(stem + ".layers.json", summary.dump() + "\n");
    std::printf("trace: %s.trace.json (Chrome trace-event JSON), %s.layers.json\n", stem.c_str(),
                stem.c_str());
  }
  Checker& check = warm.check;
  check.absorb(main_run.check);
  check.absorb(traced.check);
  const auto attempted = static_cast<double>(check.attempted());
  const auto failed = static_cast<double>(check.failed());
  if (!opt.trace) {
    main_run.detail.push_back({"error_rate", failed / attempted, "failed/attempted", "lower"});
    print_detail(main_run.detail);
  }
  for (const std::string& m : check.messages())
    std::fprintf(stderr, "si_perfbench: check failed: %s\n", m.c_str());

  serve::Json result = serve::Json::object();
  result.set("correct", check.failed() == 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run(pb::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "si_perfbench: %s\n", e.what());
    return 1;
  }
}
