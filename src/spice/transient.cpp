#include "spice/transient.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "erc/check.hpp"
#include "event/event_transient.hpp"
#include "obs/telemetry.hpp"
#include "spice/elements.hpp"
#include "spice/mna.hpp"

namespace si::spice {

namespace {

/// Transient telemetry handles, hoisted once so the step loop records
/// through preallocated atomics only.  Every solved step counts in
/// steps_accepted, on either engine; runs counts monolithic runs (event
/// runs count under event.*).
struct TransientTelemetry {
  obs::Counter& steps_accepted = obs::counter("transient.steps_accepted");
  obs::Counter& runs = obs::counter("transient.runs");

  static TransientTelemetry& get() {
    static TransientTelemetry t;
    return t;
  }
};

}  // namespace

const std::vector<double>& TransientResult::signal(
    const std::string& name) const {
  auto it = signals.find(name);
  if (it == signals.end())
    throw std::out_of_range("TransientResult: no signal named " + name);
  return it->second;
}

Transient::Transient(Circuit& c, TransientOptions opt)
    : circuit_(&c), opt_(opt) {
  if (opt_.t_stop <= 0.0 || opt_.dt <= 0.0)
    throw std::invalid_argument("Transient: t_stop and dt must be > 0");
}

void Transient::probe_voltage(const std::string& node_name) {
  voltage_probes_.push_back(node_name);
}

void Transient::probe_current(const std::string& vsource_name) {
  current_probes_.push_back(vsource_name);
}

void Transient::set_initial_voltage(const std::string& node_name,
                                    double volts) {
  initial_voltages_.emplace_back(node_name, volts);
  opt_.start_from_dc = false;
}

TransientResult Transient::run(
    const std::function<void(double, const SolutionView&)>& on_step) {
  Circuit& c = *circuit_;
  if (opt_.erc_gate) erc::enforce(c);
  c.finalize();

  const bool event_engine = opt_.engine == TransientEngine::kEvent;
  TransientTelemetry& tm = TransientTelemetry::get();
  obs::TraceSpan run_span(event_engine ? "event.run" : "transient.run");
  if (!event_engine) tm.runs.add();

  // Probes and presets must name nodes the netlist already has:
  // Circuit::node() would add a misspelled name as a new floating
  // unknown, outside the state vector sized below.
  const auto existing_node = [&](const std::string& name) {
    const auto node = c.find_node(name);
    if (!node) throw std::invalid_argument("Transient: no node named " + name);
    return *node;
  };

  // Resolve probes up front, deduplicating repeats: a node (or source)
  // probed twice must collapse to ONE sink — two sinks feeding the same
  // result.signals vector would interleave doubled samples.  A label
  // that resolves to two different targets is a genuine collision and
  // is rejected instead.
  std::vector<std::pair<std::string, NodeId>> v_probes;
  for (const auto& n : voltage_probes_) {
    const std::string label = "v(" + n + ")";
    const NodeId node = existing_node(n);
    const auto it =
        std::find_if(v_probes.begin(), v_probes.end(),
                     [&](const auto& p) { return p.first == label; });
    if (it != v_probes.end()) {
      if (it->second != node)
        throw std::invalid_argument("Transient: probe label collision on " +
                                    label);
      continue;
    }
    v_probes.emplace_back(label, node);
  }
  std::vector<std::pair<std::string, const VoltageSource*>> i_probes;
  for (const auto& n : current_probes_) {
    const auto* vs = dynamic_cast<const VoltageSource*>(c.find(n));
    if (!vs)
      throw std::invalid_argument("Transient: no voltage source named " + n);
    const std::string label = "i(" + n + ")";
    const auto it =
        std::find_if(i_probes.begin(), i_probes.end(),
                     [&](const auto& p) { return p.first == label; });
    if (it != i_probes.end()) {
      if (it->second != vs)
        throw std::invalid_argument("Transient: probe label collision on " +
                                    label);
      continue;
    }
    i_probes.emplace_back(label, vs);
  }
  std::vector<std::pair<NodeId, double>> presets;
  for (const auto& [name, volts] : initial_voltages_)
    presets.emplace_back(existing_node(name), volts);

  // One engine for the whole run (DC operating point included): the
  // sparsity pattern, symbolic factorization, stamp-slot memos, and
  // solve workspaces are built once and reused — the time loop
  // allocates nothing.  An event run solves its DC start and every step
  // it does not skip on the same engine, so a solved step is the
  // monolithic solve.
  MnaEngine engine(c);
  std::optional<event::EventScheduler> scheduler;
  if (event_engine) scheduler.emplace(c, opt_);

  linalg::Vector x(c.system_size(), 0.0);
  if (opt_.start_from_dc) {
    DcOptions dco;
    dco.newton = opt_.newton;
    dco.erc_gate = false;  // already checked (or opted out) above
    DcResult op = dc_operating_point(c, engine, dco);
    x = std::move(op.x);
  } else {
    for (const auto& [node, volts] : presets) {
      if (node != kGroundNode)
        x[static_cast<std::size_t>(node - 1)] = volts;
    }
    StampContext ctx0;
    ctx0.mode = AnalysisMode::kDcOperatingPoint;
    SolutionView sol(c, x);
    for (const auto& e : c.elements()) e->accept(sol, ctx0);
  }
  // x keeps its identity for the rest of the run, so one view serves
  // every record and every accept.
  const SolutionView sol(c, x);

  // Fixed grid: full_steps whole dt intervals plus, when t_stop is not
  // an integer multiple of dt, one exact partial step — the old
  // llround() grid silently overshot (rounding up) or truncated
  // (rounding down) so result.time.back() missed t_stop.  The 1e-12
  // slack absorbs last-ulp ratio noise; a remainder below 1e-9*dt is
  // treated as an exact multiple rather than a denormal final step.
  const double ratio = opt_.t_stop / opt_.dt;
  const auto full_steps = static_cast<std::size_t>(ratio * (1.0 + 1e-12));
  double remainder =
      opt_.t_stop - static_cast<double>(full_steps) * opt_.dt;
  if (remainder <= 1e-9 * opt_.dt) remainder = 0.0;
  const std::size_t steps = full_steps + (remainder > 0.0 ? 1 : 0);

  TransientResult result;
  if (scheduler) result.event_blocks = scheduler->block_count();
  result.time.reserve(steps + 1);
  // Resolve each probe's signal vector once: the map lookups stay out
  // of the per-step hot path, and pointers into the node-based
  // unordered_map stay valid while it grows.
  std::vector<std::pair<NodeId, std::vector<double>*>> v_sinks;
  v_sinks.reserve(v_probes.size());
  for (const auto& [label, node] : v_probes) {
    auto& vec = result.signals[label];
    vec.reserve(steps + 1);
    v_sinks.emplace_back(node, &vec);
  }
  std::vector<std::pair<int, std::vector<double>*>> i_sinks;
  i_sinks.reserve(i_probes.size());
  for (const auto& [label, vs] : i_probes) {
    auto& vec = result.signals[label];
    vec.reserve(steps + 1);
    i_sinks.emplace_back(vs->branch(), &vec);
  }

  auto record = [&](double t) {
    result.time.push_back(t);
    for (const auto& [node, vec] : v_sinks) vec->push_back(sol.voltage(node));
    for (const auto& [branch, vec] : i_sinks)
      vec->push_back(sol.branch_current(branch));
    if (on_step) on_step(t, sol);
  };
  record(0.0);

  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = opt_.dt;
  ctx.integrator = opt_.integrator;

  for (std::size_t k = 1; k <= steps; ++k) {
    const bool last = k == steps;
    if (last && remainder > 0.0) ctx.dt = remainder;  // exact final step
    const double t_prev = ctx.time;
    ctx.time = last ? opt_.t_stop : static_cast<double>(k) * opt_.dt;
    // The event scheduler skips a step only when every block is
    // latent; the state and every companion history then hold.
    if (!scheduler || scheduler->solves_step(t_prev, ctx, x, result)) {
      engine.newton(ctx, x, opt_.newton);
      for (const auto& e : c.elements()) e->accept(sol, ctx);
      tm.steps_accepted.add();
      if (scheduler) scheduler->latch_quiescent(x);
    }
    record(ctx.time);
    ++result.steps_accepted;
  }
  return result;
}

}  // namespace si::spice
