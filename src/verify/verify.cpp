#include "verify/verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "obs/telemetry.hpp"

namespace si::verify {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// JSON has no literal for infinities / NaN; emit null so machine
/// consumers see "unbounded" without choking the parser.
std::string jnum(double v) { return std::isfinite(v) ? fmt(v) : "null"; }

/// One searchable coordinate of the corner box.
struct SearchVar {
  enum Kind { kVdd, kVtN, kVtP, kBetaN, kBetaP, kSource } kind = kVdd;
  std::string source;  ///< element name for kSource
  double lo = 1.0, nominal = 1.0, hi = 1.0;
};

void apply(Corner& c, const SearchVar& v, double value) {
  switch (v.kind) {
    case SearchVar::kVdd: c.vdd_scale = value; break;
    case SearchVar::kVtN: c.vt_n_shift = value; break;
    case SearchVar::kVtP: c.vt_p_shift = value; break;
    case SearchVar::kBetaN: c.beta_n_scale = value; break;
    case SearchVar::kBetaP: c.beta_p_scale = value; break;
    case SearchVar::kSource: c.source_scale[v.source] = value; break;
  }
}

double get(const Corner& c, const SearchVar& v) {
  switch (v.kind) {
    case SearchVar::kVdd: return c.vdd_scale;
    case SearchVar::kVtN: return c.vt_n_shift;
    case SearchVar::kVtP: return c.vt_p_shift;
    case SearchVar::kBetaN: return c.beta_n_scale;
    case SearchVar::kBetaP: return c.beta_p_scale;
    case SearchVar::kSource: {
      const auto it = c.source_scale.find(v.source);
      return it == c.source_scale.end() ? 1.0 : it->second;
    }
  }
  return 1.0;
}

std::vector<SearchVar> standard_vars(const AbsOptions& o,
                                     const std::vector<std::string>& sources) {
  std::vector<SearchVar> vars = {
      {SearchVar::kVdd, "", 1.0 - o.supply_rel_tol, 1.0, 1.0 + o.supply_rel_tol},
      {SearchVar::kVtN, "", -o.vt_abs_tol, 0.0, o.vt_abs_tol},
      {SearchVar::kVtP, "", -o.vt_abs_tol, 0.0, o.vt_abs_tol},
      {SearchVar::kBetaN, "", 1.0 - o.beta_rel_tol, 1.0, 1.0 + o.beta_rel_tol},
      {SearchVar::kBetaP, "", 1.0 - o.beta_rel_tol, 1.0, 1.0 + o.beta_rel_tol},
  };
  for (const std::string& s : sources)
    vars.push_back({SearchVar::kSource, s, 1.0 - o.current_rel_tol, 1.0,
                    1.0 + o.current_rel_tol});
  return vars;
}

/// Greedy coordinate descent over the corner box: each round tries the
/// {lo, nominal, hi} value of every coordinate, keeping improvements.
/// The SI margin functions are monotone in each coordinate, so this
/// converges to the true worst corner in one or two rounds.
template <typename Fn>
double corner_search(const std::vector<SearchVar>& vars, Corner& corner,
                     std::size_t& evals, Fn&& margin) {
  double best = margin(corner);
  ++evals;
  for (int round = 0; round < 8; ++round) {
    bool improved = false;
    for (const SearchVar& v : vars) {
      const double keep = get(corner, v);
      double best_val = keep;
      for (const double cand : {v.lo, v.nominal, v.hi}) {
        if (cand == keep) continue;
        apply(corner, v, cand);
        const double m = margin(corner);
        ++evals;
        if (m < best - 1e-15) {
          best = m;
          best_val = cand;
          improved = true;
        }
      }
      apply(corner, v, best_val);
    }
    if (!improved) break;
  }
  return best;
}

std::vector<WitnessVar> witness_of(const Corner& corner,
                                   const PairAnalysis& P) {
  std::vector<WitnessVar> w = {
      {"vdd", P.rail_nominal * corner.vdd_scale},
      {"vt_n", (P.mn ? P.mn->params().vt0 : 0.0) + corner.vt_n_shift},
      {"vt_p", (P.mp ? P.mp->params().vt0 : 0.0) + corner.vt_p_shift},
      {"beta_n_scale", corner.beta_n_scale},
      {"beta_p_scale", corner.beta_p_scale},
  };
  for (const auto& [name, scale] : corner.source_scale)
    w.push_back({"scale(" + name + ")", scale});
  return w;
}

std::string pair_label(const PairAnalysis& P) {
  std::string s;
  if (P.mn) s += P.mn->name();
  s += "/";
  if (P.mp) s += P.mp->name();
  return s;
}

std::string witness_text(const std::vector<WitnessVar>& w) {
  std::string s = "witness corner: ";
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (i) s += ", ";
    s += w[i].name + "=" + fmt(w[i].value);
  }
  return s;
}

}  // namespace

std::string to_string(const Interval& v) {
  if (v.is_empty()) return "empty";
  if (v.is_top()) return "top";
  return "[" + fmt(v.lo) + ", " + fmt(v.hi) + "]";
}

VerifyResult analyze(const spice::Circuit& c, const VerifyOptions& opt) {
  obs::counter("verify.runs").add();
  AbstractInterpreter ai(c, opt.abs);
  const AbsResult ar = ai.run();

  VerifyResult out;
  out.stats.nodes = c.node_count();
  out.stats.segments = ar.segments.size();
  out.stats.pairs = ar.pairs.size();
  out.stats.switches = ar.switch_elements.size();
  out.stats.iterations = ar.iterations;
  out.stats.widenings = ar.widenings;
  out.stats.nodes_resolved = ar.nodes_resolved;

  for (std::size_t n = 1; n < c.node_count(); ++n)
    if (!ar.hull[n].is_empty())
      out.ranges.push_back({c.node_name(static_cast<spice::NodeId>(n)),
                            ar.hull[n]});

  for (const PairAnalysis& P : ar.pairs)
    out.pairs.push_back({P.mn ? P.mn->name() : "", P.mp ? P.mp->name() : "",
                         c.node_name(static_cast<spice::NodeId>(P.drain)),
                         P.i_in, P.v_drain, P.vov_n, P.vov_p, P.resolved,
                         P.input_forked});

  const double min_ov = opt.min_overdrive;
  std::size_t evals = 0;
  std::size_t iin_evals = 0;

  for (std::size_t k = 0; k < ar.pairs.size(); ++k) {
    const PairAnalysis& P = ar.pairs[k];
    if (!P.resolved || !P.mn || !P.mp) continue;
    const double vt_n0 = P.mn->params().vt0;
    const double vt_p0 = P.mp->params().vt0;

    // --- si.supply-floor-worstcase (Eqs. (1)-(2)) ------------------
    if (opt.check_supply_floor) {
      const Interval screen = P.vdd - P.vt_n - P.vt_p -
                              Interval::point(2.0 * min_ov);
      if (screen.is_empty() || screen.lo < 0.0) {
        Corner corner;
        const auto vars = standard_vars(opt.abs, {});
        const double m = corner_search(
            vars, corner, evals, [&](const Corner& cr) {
              return P.rail_nominal * cr.vdd_scale - (vt_n0 + cr.vt_n_shift) -
                     (vt_p0 + cr.vt_p_shift) - 2.0 * min_ov;
            });
        if (m < 0.0) {
          Finding f;
          f.rule = "si.supply-floor-worstcase";
          f.element = pair_label(P);
          f.margin = m;
          f.witness = witness_of(corner, P);
          f.message = "supply floor violated at a tolerance corner: Vdd=" +
                      fmt(P.rail_nominal * corner.vdd_scale) +
                      " V < Vtn+Vtp+2*Vov_min=" +
                      fmt(vt_n0 + corner.vt_n_shift + vt_p0 +
                          corner.vt_p_shift + 2.0 * min_ov) +
                      " V (Eqs. (1)-(2)); " + witness_text(f.witness);
          f.fix = "raise the supply or use lower-Vt memory devices";
          out.findings.push_back(std::move(f));
        }
      }
    }

    // --- si.overdrive-margin ---------------------------------------
    if (opt.check_overdrive) {
      const bool safe = !P.vov_n.is_empty() && !P.vov_p.is_empty() &&
                        std::min(P.vov_n.lo, P.vov_p.lo) >= min_ov;
      if (!safe) {
        Corner corner;
        const auto vars = standard_vars(opt.abs, P.source_deps);
        const double m = corner_search(
            vars, corner, evals, [&](const Corner& cr) {
              const PairOp op = ai.eval_pair(ar, k, cr, &iin_evals);
              if (!op.valid) return kInf;
              return std::min(op.vov_n, op.vov_p) - min_ov;
            });
        if (m < 0.0 && std::isfinite(m)) {
          const PairOp op = ai.eval_pair(ar, k, corner, &iin_evals);
          Finding f;
          f.rule = "si.overdrive-margin";
          f.element = pair_label(P);
          f.margin = m;
          f.witness = witness_of(corner, P);
          f.message = "sampling overdrive collapses at a tolerance corner: "
                      "min(Vov_n, Vov_p)=" +
                      fmt(std::min(op.vov_n, op.vov_p)) + " V < " +
                      fmt(min_ov) + " V; " + witness_text(f.witness);
          f.fix = "increase bias current or supply headroom";
          out.findings.push_back(std::move(f));
        }
      }
    }

    // --- si.region-violation ---------------------------------------
    if (opt.check_region && !P.hold_segments.empty()) {
      Interval v_hold = Interval::empty();
      for (const int s : P.hold_segments)
        v_hold = join(v_hold,
                      ar.v[static_cast<std::size_t>(P.drain)]
                          [static_cast<std::size_t>(s)]);
      const bool ok_n = !P.vov_n.is_empty() &&
                        (P.vov_n.hi <= 0.0 ||
                         (!v_hold.is_empty() && v_hold.lo >= P.vov_n.hi));
      const bool ok_p = !P.vov_p.is_empty() &&
                        (P.vov_p.hi <= 0.0 ||
                         (!v_hold.is_empty() && !P.vdd.is_empty() &&
                          P.vdd.lo - v_hold.hi >= P.vov_p.hi));
      if (!(ok_n && ok_p)) {
        Corner corner;
        const auto vars = standard_vars(opt.abs, P.source_deps);
        const double m = corner_search(
            vars, corner, evals, [&](const Corner& cr) {
              const PairOp op = ai.eval_pair(ar, k, cr, &iin_evals);
              if (!op.valid || !std::isfinite(op.v_drain_hold)) return kInf;
              const double mn = op.vov_n > 0.0
                                    ? op.v_drain_hold - op.vov_n
                                    : kInf;
              const double mp = op.vov_p > 0.0
                                    ? (op.vdd - op.v_drain_hold) - op.vov_p
                                    : kInf;
              return std::min(mn, mp);
            });
        if (m < 0.0 && std::isfinite(m)) {
          const PairOp op = ai.eval_pair(ar, k, corner, &iin_evals);
          Finding f;
          f.rule = "si.region-violation";
          f.element = pair_label(P);
          f.margin = m;
          f.witness = witness_of(corner, P);
          f.message = "memory transistor leaves saturation during hold: "
                      "held drain voltage " +
                      fmt(op.v_drain_hold) + " V vs overdrive (Vov_n=" +
                      fmt(op.vov_n) + ", Vov_p=" + fmt(op.vov_p) + ") V; " +
                      witness_text(f.witness);
          f.fix = "keep the held drain inside [Vov_n, Vdd-Vov_p]";
          out.findings.push_back(std::move(f));
        }
      }
    }

    // --- si.range-overflow -----------------------------------------
    if (opt.check_range) {
      const Interval hull = ar.hull[static_cast<std::size_t>(P.drain)];
      const bool safe = !hull.is_empty() && ar.rail_window.contains(hull);
      if (!safe) {
        Corner corner;
        const auto vars = standard_vars(opt.abs, P.source_deps);
        const double rail_margin = opt.abs.rail_margin;
        const double m = corner_search(
            vars, corner, evals, [&](const Corner& cr) {
              const PairOp op = ai.eval_pair(ar, k, cr, &iin_evals);
              if (!op.valid) return kInf;
              const double lo_win = -rail_margin;
              const double hi_win = op.vdd + rail_margin;
              double margin = std::min(op.v_drain - lo_win,
                                       hi_win - op.v_drain);
              if (std::isfinite(op.v_drain_hold))
                margin = std::min(
                    margin, std::min(op.v_drain_hold - lo_win,
                                     hi_win - op.v_drain_hold));
              return margin;
            });
        if (m < 0.0 && std::isfinite(m)) {
          const PairOp op = ai.eval_pair(ar, k, corner, &iin_evals);
          Finding f;
          f.rule = "si.range-overflow";
          f.element = pair_label(P);
          f.margin = m;
          f.witness = witness_of(corner, P);
          f.message = "signal range overflow: drain of " + pair_label(P) +
                      " reaches " + fmt(op.v_drain) +
                      " V, outside the rail window [" + fmt(-rail_margin) +
                      ", " + fmt(op.vdd + rail_margin) + "] V; " +
                      witness_text(f.witness);
          f.fix = "reduce the input current amplitude or re-bias the pair";
          out.findings.push_back(std::move(f));
        }
      }
    }
  }

  // --- exact clock-phase timing ------------------------------------
  if (opt.check_clocks) {
    const auto& sws = ar.switch_elements;
    for (std::size_t i = 0; i < sws.size(); ++i)
      for (std::size_t j = i + 1; j < sws.size(); ++j) {
        const OverlapReport rep = phase_overlap(ar.phases[i], ar.phases[j]);
        if (!std::isfinite(rep.margin) && rep.overlap == 0.0) continue;
        out.timing.edges.push_back(
            {sws[i]->name(), sws[j]->name(), rep.margin, rep.overlap});
        if (rep.margin < out.timing.min_margin) {
          out.timing.min_margin = rep.margin;
          out.timing.worst_a = sws[i]->name();
          out.timing.worst_b = sws[j]->name();
        }
      }
  }

  out.stats.corners_evaluated = evals;
  out.stats.pair_current_evals = iin_evals;
  obs::counter("verify.nodes_analyzed").add(out.stats.nodes);
  obs::counter("verify.segments").add(out.stats.segments);
  obs::counter("verify.pairs_analyzed").add(out.stats.pairs);
  obs::counter("verify.fixpoint_iterations").add(out.stats.iterations);
  obs::counter("verify.widenings").add(out.stats.widenings);
  obs::counter("verify.corners_evaluated").add(evals);
  obs::counter("verify.pair_current_evals").add(iin_evals);
  obs::counter("verify.findings").add(out.findings.size());
  return out;
}

void report(const VerifyResult& r, erc::DiagnosticSink& sink) {
  for (const Finding& f : r.findings) {
    erc::Diagnostic d;
    d.severity = erc::Severity::kError;
    d.rule = f.rule;
    d.message = f.message;
    d.element = f.element;
    d.fix = f.fix;
    sink.report(std::move(d));
  }
}

std::string to_json(const VerifyResult& r) {
  std::ostringstream os;
  os << "{\"findings\":[";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    const Finding& f = r.findings[i];
    if (i) os << ",";
    os << "{\"rule\":\"" << erc::json_escape(f.rule) << "\",\"element\":\""
       << erc::json_escape(f.element) << "\",\"margin\":" << jnum(f.margin)
       << ",\"witness\":{";
    for (std::size_t w = 0; w < f.witness.size(); ++w) {
      if (w) os << ",";
      os << "\"" << erc::json_escape(f.witness[w].name)
         << "\":" << jnum(f.witness[w].value);
    }
    os << "},\"message\":\"" << erc::json_escape(f.message) << "\",\"fix\":\""
       << erc::json_escape(f.fix) << "\"}";
  }
  os << "],\"ranges\":[";
  bool first = true;
  for (const NodeRange& nr : r.ranges) {
    if (nr.v.is_empty()) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"node\":\"" << erc::json_escape(nr.node) << "\",\"lo\":"
       << jnum(nr.v.lo) << ",\"hi\":" << jnum(nr.v.hi) << "}";
  }
  os << "],\"pairs\":[";
  for (std::size_t i = 0; i < r.pairs.size(); ++i) {
    const PairSummary& p = r.pairs[i];
    if (i) os << ",";
    os << "{\"mn\":\"" << erc::json_escape(p.mn) << "\",\"mp\":\""
       << erc::json_escape(p.mp) << "\",\"drain\":\""
       << erc::json_escape(p.drain) << "\",\"resolved\":"
       << (p.resolved ? "true" : "false") << ",\"forked\":"
       << (p.input_forked ? "true" : "false");
    if (p.resolved && !p.vov_n.is_empty())
      os << ",\"i_in\":[" << jnum(p.i_in.lo) << "," << jnum(p.i_in.hi)
         << "],\"v_drain\":[" << jnum(p.v_drain.lo) << "," << jnum(p.v_drain.hi)
         << "],\"vov_n\":[" << jnum(p.vov_n.lo) << "," << jnum(p.vov_n.hi)
         << "],\"vov_p\":[" << jnum(p.vov_p.lo) << "," << jnum(p.vov_p.hi)
         << "]";
    os << "}";
  }
  os << "],\"timing\":{";
  if (std::isfinite(r.timing.min_margin))
    os << "\"min_margin\":" << fmt(r.timing.min_margin) << ",\"worst\":[\""
       << erc::json_escape(r.timing.worst_a) << "\",\""
       << erc::json_escape(r.timing.worst_b) << "\"],";
  os << "\"edges\":[";
  for (std::size_t i = 0; i < r.timing.edges.size(); ++i) {
    const TimingEdge& e = r.timing.edges[i];
    if (i) os << ",";
    os << "{\"a\":\"" << erc::json_escape(e.a) << "\",\"b\":\""
       << erc::json_escape(e.b) << "\",\"margin\":" << jnum(e.margin)
       << ",\"overlap\":" << jnum(e.overlap) << "}";
  }
  os << "]},\"stats\":{\"nodes\":" << r.stats.nodes
     << ",\"segments\":" << r.stats.segments << ",\"pairs\":" << r.stats.pairs
     << ",\"switches\":" << r.stats.switches
     << ",\"nodes_resolved\":" << r.stats.nodes_resolved
     << ",\"iterations\":" << r.stats.iterations
     << ",\"widenings\":" << r.stats.widenings
     << ",\"corners_evaluated\":" << r.stats.corners_evaluated << "}}";
  return os.str();
}

}  // namespace si::verify
