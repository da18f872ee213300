// sim_stats: run the paper's two transistor-level workloads (Table 1
// delay-line chain, Table 2 modulator core) with solver telemetry
// enabled and report what the engines actually did — Newton iterations,
// factorizations vs symbolic reuses, re-pivots and pattern misses, grid
// steps taken, and per run the full baseline stamps against the solves
// that kept the baseline matrix — as a table or JSON.
//
//   sim_stats [--json] [--stages=N] [--sections=N] [--periods=P]
//             [--engine=event|monolithic]
//
// With --engine=event the runs go through the event-driven multi-rate
// engine (src/event) and the report gains the partition statistics:
// blocks, block solves vs skips, whole steps skipped, latency ratio.
//
// Every flag is parsed strictly: an unknown flag or a malformed value
// ("--stages=2x", "--engine=evnt") exits 2 naming the accepted values.
// Exit status 1 means a run stamped outside a discovered sparsity
// pattern (mna.pattern_misses), or — under the event engine — that
// partitioning degraded: the circuit collapsed into a single block.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/telemetry.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;
namespace nets = si::cells::netlists;

struct RunSummary {
  std::string workload;
  std::size_t unknowns = 0;
  std::size_t points = 0;
  std::uint64_t accepted = 0;
  std::uint64_t baseline_stamps = 0;  ///< mna.baseline_stamps of this run
  std::uint64_t baseline_reuses = 0;  ///< mna.baseline_reuses of this run
  // Event-engine fields (all zero under the monolithic engine).
  std::uint64_t blocks = 0;
  std::uint64_t block_solves = 0;
  std::uint64_t block_skips = 0;
  std::uint64_t steps_skipped = 0;
};

double latency_ratio(const RunSummary& s) {
  const double events = static_cast<double>(s.block_solves + s.block_skips);
  return events > 0.0 ? static_cast<double>(s.block_skips) / events : 0.0;
}

RunSummary summarize(const char* workload, const Circuit& c,
                     const TransientResult& r) {
  RunSummary s;
  s.workload = workload;
  s.unknowns = c.system_size();
  s.points = r.time.size();
  s.accepted = r.steps_accepted;
  s.blocks = r.event_blocks;
  s.block_solves = r.event_block_solves;
  s.block_skips = r.event_block_skips;
  s.steps_skipped = r.event_steps_skipped;
  return s;
}

/// Runs `tr` and records its own share of the baseline counters.
RunSummary run_counted(const char* workload, Circuit& c, Transient& tr) {
  si::obs::Counter& stamps = si::obs::counter("mna.baseline_stamps");
  si::obs::Counter& reuses = si::obs::counter("mna.baseline_reuses");
  const std::uint64_t stamps0 = stamps.value();
  const std::uint64_t reuses0 = reuses.value();
  RunSummary s = summarize(workload, c, tr.run());
  s.baseline_stamps = stamps.value() - stamps0;
  s.baseline_reuses = reuses.value() - reuses0;
  return s;
}

RunSummary run_delay_line(int stages, double periods, TransientEngine engine) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::DelayStageOptions opt;
  const auto h = nets::build_delay_line_chain(c, stages, opt, "dl_");
  const double T = opt.pair.clock_period;
  c.add<CurrentSource>(
      "Iin", c.ground(), h.in,
      std::make_unique<SineWave>(0.0, 5e-6, 1.0 / (8.0 * T)));
  TransientOptions topt;
  topt.t_stop = periods * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  topt.engine = engine;
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out));
  return run_counted("table1_delay_line", c, tr);
}

RunSummary run_modulator(int sections, double periods, TransientEngine engine) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  c.add<CurrentSource>(
      "Iinp", c.ground(), h.in_p,
      std::make_unique<SineWave>(0.0, 4e-6, 1.0 / (8.0 * T)));
  c.add<CurrentSource>(
      "Iinm", c.ground(), h.in_m,
      std::make_unique<SineWave>(0.0, -4e-6, 1.0 / (8.0 * T)));
  TransientOptions topt;
  topt.t_stop = periods * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;
  topt.engine = engine;
  Transient tr(c, topt);
  tr.probe_voltage(c.node_name(h.out_p));
  return run_counted("table2_modulator", c, tr);
}

/// The whole value must parse: "2x" is an error, not 2.
bool parse_count(const char* s, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < 1 || v > INT_MAX)
    return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_positive(const char* s, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v <= 0.0)
    return false;
  out = v;
  return true;
}

int usage_error(const char* what, const char* arg) {
  std::fprintf(stderr,
               "sim_stats: %s: '%s'\n"
               "usage: sim_stats [--json] [--stages=N] "
               "[--sections=N] [--periods=P] [--engine=event|monolithic]\n"
               "  N: integer >= 1; P: number > 0\n",
               what, arg);
  return 2;
}

void print_summary(const RunSummary& s, bool event_engine) {
  std::printf("%-18s unknowns=%-4zu points=%-6zu accepted=%llu "
              "baseline_stamps=%llu baseline_reuses=%llu",
              s.workload.c_str(), s.unknowns, s.points,
              static_cast<unsigned long long>(s.accepted),
              static_cast<unsigned long long>(s.baseline_stamps),
              static_cast<unsigned long long>(s.baseline_reuses));
  if (event_engine)
    std::printf(" blocks=%llu block_skips=%llu steps_skipped=%llu "
                "latency=%.3f",
                static_cast<unsigned long long>(s.blocks),
                static_cast<unsigned long long>(s.block_skips),
                static_cast<unsigned long long>(s.steps_skipped),
                latency_ratio(s));
  std::putchar('\n');
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int stages = 4;
  int sections = 2;
  double periods = 1.0;
  TransientEngine engine = TransientEngine::kMonolithic;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strncmp(a, "--stages=", 9) == 0) {
      if (!parse_count(a + 9, stages)) return usage_error("bad --stages", a);
    } else if (std::strncmp(a, "--sections=", 11) == 0) {
      if (!parse_count(a + 11, sections))
        return usage_error("bad --sections", a);
    } else if (std::strncmp(a, "--periods=", 10) == 0) {
      if (!parse_positive(a + 10, periods))
        return usage_error("bad --periods", a);
    } else if (std::strcmp(a, "--engine=event") == 0) {
      engine = TransientEngine::kEvent;
    } else if (std::strcmp(a, "--engine=monolithic") == 0) {
      engine = TransientEngine::kMonolithic;
    } else {
      return usage_error("unknown flag or value", a);
    }
  }
  const bool event_engine = engine == TransientEngine::kEvent;

  si::obs::set_enabled(true);
  si::obs::reset();

  const RunSummary dl = run_delay_line(stages, periods, engine);
  const RunSummary mod = run_modulator(sections, periods, engine);

  if (json) {
    std::printf("{\"runs\": [");
    bool first = true;
    for (const auto* s : {&dl, &mod}) {
      std::printf(
          "%s{\"workload\": \"%s\", \"unknowns\": %zu, \"points\": %zu, "
          "\"steps_accepted\": %llu, \"baseline_stamps\": %llu, "
          "\"baseline_reuses\": %llu, \"event_blocks\": %llu, "
          "\"event_block_solves\": %llu, \"event_block_skips\": %llu, "
          "\"event_steps_skipped\": %llu, \"latency_ratio\": %.6f}",
          first ? "" : ", ", s->workload.c_str(), s->unknowns, s->points,
          static_cast<unsigned long long>(s->accepted),
          static_cast<unsigned long long>(s->baseline_stamps),
          static_cast<unsigned long long>(s->baseline_reuses),
          static_cast<unsigned long long>(s->blocks),
          static_cast<unsigned long long>(s->block_solves),
          static_cast<unsigned long long>(s->block_skips),
          static_cast<unsigned long long>(s->steps_skipped),
          latency_ratio(*s));
      first = false;
    }
    std::printf("], \"telemetry\": %s}\n", si::obs::snapshot_json().c_str());
  } else {
    print_summary(dl, event_engine);
    print_summary(mod, event_engine);
    std::fputs(si::obs::snapshot_table().c_str(), stdout);
  }

  const std::uint64_t misses = si::obs::counter("mna.pattern_misses").value();
  if (misses > 0) {
    std::fprintf(stderr, "sim_stats: degraded run — pattern_misses=%llu\n",
                 static_cast<unsigned long long>(misses));
    return 1;
  }
  if (event_engine && (dl.blocks <= 2 || mod.blocks <= 2)) {
    // Degraded partitioning: the paper's workloads split into many
    // switch-separated blocks — a collapse to a single block (beyond
    // the rail block) means latency exploitation is not working.
    std::fprintf(stderr,
                 "sim_stats: degraded partitioning — blocks=%llu/%llu\n",
                 static_cast<unsigned long long>(dl.blocks),
                 static_cast<unsigned long long>(mod.blocks));
    return 1;
  }
  return 0;
}
