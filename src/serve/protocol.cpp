#include "serve/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <vector>

#include "analysis/monte_carlo.hpp"
#include "erc/check.hpp"
#include "runtime/result_cache.hpp"
#include "runtime/rng_stream.hpp"
#include "spice/deck.hpp"
#include "spice/mna.hpp"
#include "spice/mosfet.hpp"
#include "spice/parser.hpp"

namespace si::serve {

namespace {

[[noreturn]] void bad_request(const std::string& why) {
  throw JobError("bad_request", why);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

double number_field(const Json& v, const char* key) {
  if (!v.is_number()) bad_request(std::string(key) + " must be a number");
  return v.as_number();
}

long integer_field(const Json& v, const char* key, long min, long max) {
  const double d = number_field(v, key);
  if (d != std::floor(d) || d < static_cast<double>(min) ||
      d > static_cast<double>(max))
    bad_request(std::string(key) + " must be an integer in [" +
                std::to_string(min) + ", " + std::to_string(max) + "]");
  return static_cast<long>(d);
}

bool bool_field(const Json& v, const char* key) {
  if (!v.is_bool()) bad_request(std::string(key) + " must be a bool");
  return v.as_bool();
}

const std::string& string_field(const Json& v, const char* key) {
  if (!v.is_string()) bad_request(std::string(key) + " must be a string");
  return v.as_string();
}

/// "auto" runs tran when the deck has a .tran card, else op.
Analysis resolve_analysis(Analysis requested, const spice::DeckCards& cards) {
  if (requested != Analysis::kAuto) return requested;
  return cards.has(spice::DirectiveKind::kTran) ? Analysis::kTran
                                                : Analysis::kOp;
}

/// "v(node)" -> "node"; a bare node name passes through.  Lower-cased,
/// as the parser stores node names.
std::string measure_node(const std::string& measure) {
  if (measure.size() >= 4 && lower(measure.substr(0, 2)) == "v(" &&
      measure.back() == ')')
    return lower(measure.substr(2, measure.size() - 3));
  if (!measure.empty() && measure.find('(') == std::string::npos)
    return lower(measure);
  bad_request("mc_measure must be \"v(<node>)\"");
}

/// ERC front gate shared by every analysis: error-severity findings
/// (including parse failures) become a structured JobError.  The lint
/// parses the element cards once; the job then simulates that circuit
/// with erc_gate = false, so it is parsed and linted once per job.
spice::Circuit erc_gate(const spice::DeckCards& cards) {
  erc::DeckReport report = erc::check_deck(cards);
  if (report.parse_ok && report.sink.ok()) return std::move(*report.circuit);
  report.sink.sort_by_line();
  // The sink's own JSON rendering is the diagnostic contract the CLI
  // already ships; embed it as structured data, not as a string.
  Json diags = Json::parse(report.sink.json());
  throw JobError(report.parse_ok ? "erc_failed" : "parse_error",
                 report.parse_ok
                     ? "electrical rule check failed"
                     : "deck failed to parse",
                 std::move(diags));
}

double node_voltage(const linalg::Vector& x, spice::NodeId n) {
  // MNA unknown layout: x = [v(1..N-1), i(branches)]; ground is 0 V.
  return n == 0 ? 0.0 : x[static_cast<std::size_t>(n) - 1];
}

Json op_payload(const spice::Circuit& c, const spice::DcResult& op) {
  Json volts = Json::object();
  for (spice::NodeId n = 1; n < static_cast<spice::NodeId>(c.node_count());
       ++n)
    volts.set(c.node_name(n), node_voltage(op.x, n));
  Json out = Json::object();
  out.set("analysis", "op");
  out.set("node_voltages", std::move(volts));
  out.set("iterations", op.iterations);
  return out;
}

Json run_op(spice::Circuit c, const spice::DeckRunOptions& opt) {
  const auto res = spice::run_deck(std::move(c), spice::DeckAnalyses{}, opt);
  return op_payload(res.circuit, res.op);
}

Json run_tran(spice::Circuit c, const spice::DeckCards& cards,
              const spice::DeckRunOptions& opt) {
  if (!cards.has(spice::DirectiveKind::kTran))
    bad_request("analysis \"tran\" needs a .tran card in the deck");
  // The reply carries the transient only, so a small-signal card would
  // cost a second operating point and a sweep that nobody receives.
  for (const spice::Directive& d : cards.directives)
    if (d.kind == spice::DirectiveKind::kAc ||
        d.kind == spice::DirectiveKind::kNoise)
      bad_request("analysis \"tran\" does not run " + d.tokens.front() +
                  " cards (deck line " + std::to_string(d.line) +
                  "); remove the card");
  const auto res = spice::run_deck(
      std::move(c), spice::parse_directives(cards.directives), opt);
  const spice::TransientResult& tr = *res.tran;

  Json time = Json::array();
  for (double t : tr.time) time.push(t);
  Json signals = Json::object();
  for (const auto& [name, wave] : tr.signals) {
    Json w = Json::array();
    for (double v : wave) w.push(v);
    signals.set(name, std::move(w));
  }
  Json out = Json::object();
  out.set("analysis", "tran");
  out.set("time", std::move(time));
  out.set("signals", std::move(signals));
  out.set("steps_accepted", tr.steps_accepted);
  return out;
}

Json run_mc(const JobRequest& r, spice::Circuit c,
            const spice::DeckRunOptions& opt) {
  const std::string node_name = measure_node(r.mc_measure);

  // A typoed measure node must be an error, not a silently-floating
  // extra unknown (Circuit::node() would create it).
  const auto found = c.find_node(node_name);
  if (!found)
    bad_request("mc_measure node \"" + node_name + "\" is not in the deck");
  const spice::NodeId probe = *found;

  // Snapshot every MOSFET's nominal parameters once, then perturb
  // kp / Vt0 per trial — apply() is a pure function of the seed.
  std::vector<std::pair<spice::Mosfet*, spice::MosfetParams>> devices;
  for (const auto& e : c.elements())
    if (auto* m = dynamic_cast<spice::Mosfet*>(e.get()))
      devices.emplace_back(m, m->params());
  if (devices.empty())
    bad_request("analysis \"mc\" needs at least one MOSFET to mismatch");

  spice::DcOptions dopt;
  dopt.newton = opt.newton;
  dopt.erc_gate = false;  // the job-level gate already ran

  // Trials stay sequential inside one job: the JobServer's workers are
  // the parallelism, and the cancel token is honoured every Newton
  // iteration regardless.  One engine serves every trial, as in
  // dc_sweep: a draw moves values, never the topology, so a sparse-sized
  // deck builds its pattern and symbolic factor once per job.  Trials
  // still start from zero, not from the previous sample.
  spice::MnaEngine engine(c);
  std::vector<double> samples(static_cast<std::size_t>(r.mc_trials));
  for (std::size_t k = 0; k < samples.size(); ++k) {
    runtime::RngStream rng(runtime::trial_seed(r.mc_seed, k));
    for (const auto& [mos, nominal] : devices) {
      spice::MosfetParams p = nominal;
      p.kp = nominal.kp * std::max(0.1, 1.0 + r.mc_sigma * rng.normal());
      p.vt0 = nominal.vt0 * (1.0 + r.mc_sigma * rng.normal());
      mos->set_params(p);
    }
    const auto res = spice::dc_operating_point(c, engine, dopt);
    samples[k] = node_voltage(res.x, probe);
  }
  std::sort(samples.begin(), samples.end());
  const analysis::McStatistics st =
      analysis::detail::aggregate_sorted(std::move(samples));

  Json out = Json::object();
  out.set("analysis", "mc");
  out.set("trials", r.mc_trials);
  out.set("measure", "v(" + node_name + ")");
  out.set("mean", st.mean);
  out.set("sigma", st.sigma);
  out.set("min", st.min);
  out.set("max", st.max);
  out.set("p05", st.percentile(0.05));
  out.set("p50", st.percentile(0.50));
  out.set("p95", st.percentile(0.95));
  return out;
}

}  // namespace

const char* analysis_name(Analysis a) {
  switch (a) {
    case Analysis::kAuto: return "auto";
    case Analysis::kOp: return "op";
    case Analysis::kTran: return "tran";
    case Analysis::kMc: return "mc";
  }
  return "?";
}

JobRequest parse_request(const Json& request) {
  if (!request.is_object()) bad_request("request must be a JSON object");
  JobRequest r;
  bool have_deck = false;
  for (const auto& [key, v] : request.members()) {
    if (key == "id") {
      r.id = string_field(v, "id");
    } else if (key == "deck") {
      r.deck = string_field(v, "deck");
      have_deck = true;
    } else if (key == "analysis") {
      const std::string a = lower(string_field(v, "analysis"));
      if (a == "auto")
        r.analysis = Analysis::kAuto;
      else if (a == "op")
        r.analysis = Analysis::kOp;
      else if (a == "tran")
        r.analysis = Analysis::kTran;
      else if (a == "mc")
        r.analysis = Analysis::kMc;
      else
        bad_request("analysis must be \"auto\", \"op\", \"tran\" or \"mc\"");
    } else if (key == "timeout_ms") {
      r.timeout_ms = number_field(v, "timeout_ms");
    } else if (key == "max_newton_iterations") {
      r.max_newton_iterations =
          static_cast<int>(integer_field(v, "max_newton_iterations", 1, 100000));
    } else if (key == "want_telemetry") {
      r.want_telemetry = bool_field(v, "want_telemetry");
    } else if (key == "no_cache") {
      r.no_cache = bool_field(v, "no_cache");
    } else if (key == "mc_trials") {
      r.mc_trials = static_cast<int>(integer_field(v, "mc_trials", 1, 100000));
    } else if (key == "mc_sigma") {
      r.mc_sigma = number_field(v, "mc_sigma");
      if (!(r.mc_sigma > 0.0 && r.mc_sigma < 1.0))
        bad_request("mc_sigma must be in (0, 1)");
    } else if (key == "mc_seed") {
      r.mc_seed = static_cast<std::uint64_t>(
          integer_field(v, "mc_seed", 0, 9007199254740992L));
    } else if (key == "mc_measure") {
      r.mc_measure = string_field(v, "mc_measure");
    } else {
      bad_request("unknown request key \"" + key + "\"");
    }
  }
  if (!have_deck || r.deck.empty()) bad_request("missing required \"deck\"");
  if (r.analysis == Analysis::kMc && r.mc_measure.empty())
    bad_request("analysis \"mc\" requires \"mc_measure\"");
  return r;
}

std::uint64_t request_cache_key(const JobRequest& r) {
  // Hash the *resolved* analysis so "auto" on a .tran deck and an
  // explicit "tran" on the same deck share one entry.  id / timeout /
  // want_telemetry / no_cache never affect the physics and are excluded.
  // Only "auto" reads the deck's directives to resolve.
  const Analysis a = r.analysis != Analysis::kAuto
                         ? r.analysis
                         : resolve_analysis(r.analysis,
                                            spice::split_deck(r.deck));
  runtime::Fnv1a h;
  h.str("serve.job").str(r.deck).u64(static_cast<std::uint64_t>(a));
  h.u64(static_cast<std::uint64_t>(r.max_newton_iterations));
  if (a == Analysis::kMc) {
    h.u64(static_cast<std::uint64_t>(r.mc_trials))
        .f64(r.mc_sigma)
        .u64(r.mc_seed)
        .str(r.mc_measure);
  }
  return h.digest();
}

Json run_job(const JobRequest& r, const runtime::CancelToken* cancel) {
  // One split and one parse per job: the ERC gate parses the element
  // cards and the analysis runs on that circuit.
  const spice::DeckCards cards = spice::split_deck(r.deck);
  spice::Circuit circuit = erc_gate(cards);

  spice::DeckRunOptions opt;
  opt.erc_gate = false;  // linted above, with deck-line attribution
  opt.newton.cancel = cancel;
  if (r.max_newton_iterations > 0)
    opt.newton.max_iterations = r.max_newton_iterations;

  try {
    switch (resolve_analysis(r.analysis, cards)) {
      case Analysis::kOp:
        return run_op(std::move(circuit), opt);
      case Analysis::kTran:
        return run_tran(std::move(circuit), cards, opt);
      case Analysis::kMc:
        return run_mc(r, std::move(circuit), opt);
      case Analysis::kAuto:
        break;  // resolved away above
    }
    throw JobError("internal", "unresolved analysis");
  } catch (const spice::ConvergenceError& e) {
    // The deck is structurally fine but the solve did not converge
    // (e.g. conflicting sources making the MNA system singular).
    throw JobError("convergence", e.what());
  } catch (const spice::ParseError& e) {
    // Directive-level errors (bad .tran card, unknown probe) surface
    // here; element-card errors were already caught by the ERC gate.
    throw JobError("parse_error", e.what());
  }
}

}  // namespace si::serve
