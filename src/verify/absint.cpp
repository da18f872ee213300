#include "verify/absint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "spice/waveform.hpp"
#include "verify/topology.hpp"

namespace si::verify {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Resistors above this are treated as open for current routing and as
/// carrying no voltage-equality information (their IR drop can be
/// anything).
constexpr double kSeriesResistanceMax = 10e3;

/// Fixpoint pass cap.
constexpr int kMaxFixpointIterations = 64;
/// Updates of a feedback node before its value is widened.
constexpr int kWidenAfter = 8;

/// Global min/max of a stimulus over one period (or a 1 s token window
/// for aperiodic waveforms): breakpoints plus a uniform sweep.
std::pair<double, double> waveform_range(const spice::Waveform& w) {
  const double span = w.period() > 0.0 ? w.period() : 1.0;
  std::vector<double> marks;
  w.breakpoints(0.0, span, marks);
  marks.push_back(0.0);
  marks.push_back(span);
  for (int k = 1; k < 64; ++k) marks.push_back(span * k / 64.0);
  double lo = kInf, hi = -kInf;
  for (const double t : marks) {
    const double v = w.value(std::min(t, span));
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}

/// Smallest k in [1, 64] such that k*a is an integer multiple of b.
int commensurate_step(double a, double b) {
  for (int k = 1; k <= 64; ++k) {
    const double q = k * a / b;
    if (std::abs(q - std::round(q)) < 1e-9 * std::max(1.0, std::abs(q)))
      return k;
  }
  return 0;
}

}  // namespace

double class_ab_drain_voltage(double vdd, double vt_n, double vt_p,
                              double beta_n, double beta_p, double i_in) {
  const auto g = [&](double v) {
    const double ovn = std::max(v - vt_n, 0.0);
    const double ovp = std::max(vdd - v - vt_p, 0.0);
    return 0.5 * beta_n * ovn * ovn - 0.5 * beta_p * ovp * ovp - i_in;
  };
  double a = std::min(0.0, vt_n) - 1.0;
  double b = std::max(vdd + 1.0, a + 2.0);
  for (int i = 0; i < 64 && g(a) > 0.0; ++i) a -= std::max(1.0, b - a);
  for (int i = 0; i < 64 && g(b) < 0.0; ++i) b += std::max(1.0, b - a);
  // Bisect to one ULP; on the cutoff plateau (g == 0 over a span) this
  // converges deterministically to the plateau's upper edge.
  for (;;) {
    const double m = a + (b - a) * 0.5;
    if (m <= a || m >= b) break;
    (g(m) <= 0.0 ? a : b) = m;
  }
  return a + (b - a) * 0.5;
}

struct AbstractInterpreter::Impl {
  const spice::Circuit& c;
  AbsOptions opt;
  const SiTopology topo;

  // --- clock model -------------------------------------------------
  std::vector<const spice::Switch*> switches;
  std::vector<SwitchPhase> sw_phases;
  PhaseResolver resolve_phase;
  std::vector<unsigned char> sw_unknown;  ///< incommensurate with hyperperiod
  std::vector<Segment> segments;
  double hyperperiod = 0.0;
  /// on[sw][seg]; unknown switches read as OFF here and are handled
  /// conservatively (fork routing, no joins, no pair sampling).
  std::vector<std::vector<unsigned char>> sw_on;

  // --- pinned nodes ------------------------------------------------
  std::vector<Interval> pin;           ///< empty = not pinned
  std::vector<double> pin_nom;         ///< nominal value of pinned nodes
  std::vector<unsigned char> pinned;
  Interval rail_window;
  double vdd_hi = 0.0;

  // --- device motifs -----------------------------------------------
  struct DiodeGroup {
    std::vector<const spice::Mosfet*> devs;
    int node = 0;  ///< common gate==drain node
    int src = 0;
    bool nmos = true;
    Interval vt, beta_sum;
    double vt_nom = 0.0, beta_sum_nom = 0.0;
  };
  std::vector<DiodeGroup> diodes;
  std::unordered_map<int, std::size_t> diode_at;

  struct Mirror {
    const spice::Mosfet* dev = nullptr;
    std::size_t master = 0;  ///< diode group index
    double ratio = 0.0;      ///< beta_dev / beta_sum(master), correlated
    int drain = 0;
    bool nmos = true;
  };
  std::vector<Mirror> mirrors;

  std::vector<PairAnalysis> pairs;
  struct PairExtra {
    int hold_kind = 0;  ///< 0 none, 1 pair, 2 diode group, 3 pinned node
    double hold_pin = 0.0;  ///< nominal pinned voltage (hold_kind 3)
    std::size_t hold_ref = 0;
    int hold_seg = -1;
    bool hold_forked = false;
    int iin_seg = -1;  ///< representative sampling segment (concrete eval)
  };
  std::vector<PairExtra> pair_extra;
  std::unordered_map<int, std::size_t> pair_at;  ///< drain node -> pair

  // --- current dataflow --------------------------------------------
  struct Contribution {
    enum Kind { kSource, kPairHold, kMirror } kind = kSource;
    std::size_t ref = 0;   ///< pair index (kPairHold) or diode group (kMirror)
    std::string name;      ///< source element name (kSource)
    double nominal = 0.0;  ///< signed scalar for concrete evaluation
    Interval range;        ///< toleranced value (kSource)
    double factor = 1.0;   ///< -1 for holds; signed mirror ratio
    bool forked = false;   ///< delivery split across several sinks
  };
  /// pair_in[pair][seg], diode_in[group][seg]: current INTO the node.
  std::vector<std::vector<std::vector<Contribution>>> pair_in, diode_in;

  struct JoinEdge {
    int a = 0, b = 0;
    double r = 0.0;                        ///< IR-drop slack resistance
    int sw = -1;                           ///< gate on this switch's state
    Interval offset = Interval::point(0);  ///< v(a) - v(b)
  };
  std::vector<JoinEdge> joins;
  std::vector<std::vector<std::size_t>> joins_at;  ///< per node

  /// poisoned[seg] nodes: a DC current is forced into this undriven
  /// island during the segment — the voltage is unbounded in the static
  /// model, so the abstract value is top, never "held".
  std::vector<std::unordered_set<int>> poisoned;
  /// Contributions injected into each poisoned island, recorded on every
  /// island node so the fixpoint can bound the dead-phase drift.
  std::vector<std::unordered_map<int, std::vector<Contribution>>> poison_in;

  double i_slack = 0.0;  ///< |I| bound for join IR-drop slack

  // --- interval resolution memos -----------------------------------
  std::vector<int> pair_rs;  ///< 0 new, 1 visiting, 2 done
  std::vector<Interval> pair_iin_memo;
  std::vector<std::unordered_map<int, Interval>> diode_i_memo;
  std::vector<std::unordered_map<int, int>> diode_rs;

  std::size_t widenings = 0;
  std::size_t iterations = 0;

  Impl(const spice::Circuit& circ, const AbsOptions& o)
      : c(circ), opt(o), topo(circ) {}

  int nid(spice::NodeId n) const { return static_cast<int>(n); }

  // ================= model construction =============================

  void build_clock_model() {
    switches = topo.switches;
    sw_phases.reserve(switches.size());
    for (const auto* sw : switches) sw_phases.push_back(resolve_phase(*sw));
    sw_unknown.assign(switches.size(), 0);

    double h = 0.0;
    for (const SwitchPhase& p : sw_phases) {
      if (p.period <= 0.0) continue;
      if (h == 0.0) {
        h = p.period;
        continue;
      }
      const int k = commensurate_step(h, p.period);
      if (k == 0) continue;  // resolved below per switch
      h = k * h;
    }
    hyperperiod = h;

    // Segment boundaries: every ON/OFF crossing of every commensurate
    // switch, tiled over the hyperperiod.
    std::vector<double> marks = {0.0};
    if (h > 0.0) {
      marks.push_back(h);
      for (std::size_t i = 0; i < switches.size(); ++i) {
        const SwitchPhase& p = sw_phases[i];
        if (p.period <= 0.0) continue;
        if (commensurate_step(p.period, h) != 1 &&
            commensurate_step(h, p.period) == 0) {
          sw_unknown[i] = 1;
          continue;
        }
        const double reps = std::round(h / p.period);
        if (std::abs(reps * p.period - h) > 1e-6 * h) {
          sw_unknown[i] = 1;
          continue;
        }
        for (int k = 0; k < static_cast<int>(reps); ++k)
          for (const auto& run : p.on) {
            const double b0 = k * p.period + run.begin;
            const double b1 = k * p.period + run.end;
            if (b0 > 0.0 && b0 < h) marks.push_back(b0);
            if (b1 > 0.0 && b1 < h) marks.push_back(b1);
          }
      }
    } else {
      marks.push_back(1.0);  // no periodic switches: one token segment
    }
    std::sort(marks.begin(), marks.end());
    const double tol = 1e-12 * marks.back();
    std::vector<double> uniq;
    for (const double m : marks)
      if (uniq.empty() || m - uniq.back() > tol) uniq.push_back(m);
    for (std::size_t i = 0; i + 1 < uniq.size(); ++i)
      segments.push_back({uniq[i], uniq[i + 1]});
    if (segments.empty()) segments.push_back({0.0, 1.0});

    sw_on.assign(switches.size(),
                 std::vector<unsigned char>(segments.size(), 0));
    for (std::size_t i = 0; i < switches.size(); ++i) {
      const SwitchPhase& p = sw_phases[i];
      for (std::size_t s = 0; s < segments.size(); ++s) {
        const double t = segments[s].begin +
                         (segments[s].end - segments[s].begin) * 0.5;
        bool on = false;
        if (sw_unknown[i]) {
          on = false;  // handled conservatively elsewhere
        } else if (p.period > 0.0) {
          double tm = std::fmod(t, p.period);
          for (const auto& run : p.on)
            if (tm >= run.begin && tm < run.end) {
              on = true;
              break;
            }
        } else {
          // Aperiodic: steady state (the analysis describes the settled
          // clock pattern, not the power-up transient).
          on = !p.on.empty() && p.on.back().end == kInf;
        }
        sw_on[i][s] = on ? 1 : 0;
      }
    }
  }

  void build_pins_and_joins() {
    const std::size_t n = c.node_count();
    pin.assign(n, Interval::empty());
    pin_nom.assign(n, 0.0);
    pinned.assign(n, 0);
    pinned[0] = 1;
    pin[0] = Interval::point(0.0);

    double rail_lo = 0.0;
    for (const auto& e : c.elements()) {
      const auto* vs = dynamic_cast<const spice::VoltageSource*>(e.get());
      if (!vs) continue;
      const auto terms = vs->terminals();
      const int p = nid(terms[0].node), m = nid(terms[1].node);
      Interval val;
      double nom = 0.0;
      if (dynamic_cast<const spice::DcWave*>(&vs->waveform())) {
        nom = vs->waveform().value(0.0);
        val = Interval::around_rel(nom, opt.supply_rel_tol);
      } else {
        const auto [lo, hi] = waveform_range(vs->waveform());
        nom = std::abs(hi) >= std::abs(lo) ? hi : lo;
        val = Interval::make(lo, hi) *
              Interval::make(1.0 - opt.supply_rel_tol, 1.0 + opt.supply_rel_tol);
        val = join(val, Interval::make(lo, hi));
      }
      if (m == 0 && p != 0) {
        pin[p] = pin[p].is_empty() ? val : meet(pin[p], val);
        pin_nom[p] = nom;
        pinned[p] = 1;
      } else if (p == 0 && m != 0) {
        pin[m] = pin[m].is_empty() ? -val : meet(pin[m], -val);
        pin_nom[m] = -nom;
        pinned[m] = 1;
      } else if (p != m) {
        joins.push_back({p, m, 0.0, -1, val});
      }
    }
    for (std::size_t k = 1; k < n; ++k) {
      if (!pinned[k]) continue;
      vdd_hi = std::max(vdd_hi, pin[k].hi);
      rail_lo = std::min(rail_lo, pin[k].lo);
    }
    rail_window = {round_down(rail_lo - opt.rail_margin),
                   round_up(vdd_hi + opt.rail_margin)};

    const auto& elems = c.elements();
    for (std::size_t k = 0; k < elems.size(); ++k) {
      const spice::Element* e = elems[k].get();
      if (const auto* r = dynamic_cast<const spice::Resistor*>(e)) {
        if (r->resistance() > kSeriesResistanceMax) continue;
        const auto& terms = topo.terminals[k];
        joins.push_back({nid(terms[0].node), nid(terms[1].node),
                         r->resistance(), -1, Interval::point(0.0)});
      } else if (const int idx = topo.switch_ordinal[k]; idx >= 0) {
        const spice::Switch* sw = switches[static_cast<std::size_t>(idx)];
        if (sw_unknown[static_cast<std::size_t>(idx)]) continue;
        joins.push_back({nid(sw->p()), nid(sw->m()), sw->r_on(), idx,
                         Interval::point(0.0)});
      }
    }
    joins_at.assign(n, {});
    for (std::size_t j = 0; j < joins.size(); ++j) {
      joins_at[static_cast<std::size_t>(joins[j].a)].push_back(j);
      joins_at[static_cast<std::size_t>(joins[j].b)].push_back(j);
    }
  }

  /// vt and beta intervals for one device; channel-length modulation is
  /// folded into the upper beta bound (vds <= vdd_hi).
  Interval vt_iv(const spice::Mosfet& m) const {
    return Interval::around_abs(m.params().vt0, opt.vt_abs_tol);
  }
  Interval beta_iv(const spice::Mosfet& m) const {
    Interval b = Interval::around_rel(m.params().beta(), opt.beta_rel_tol);
    b.hi = round_up(b.hi * (1.0 + m.params().lambda * vdd_hi));
    return b;
  }

  void classify_devices() {
    std::unordered_set<const spice::Mosfet*> used;

    // Class-AB memory pairs: of the shared candidates (NMOS and PMOS
    // sharing a drain, both gates tied to it permanently or through a
    // sampling switch), those with the NMOS source grounded and the
    // PMOS source at a pinned rail; each device joins its first match.
    for (const ClassAbCandidate& cand : topo.class_ab) {
      const spice::Mosfet* mn = cand.mn;
      const spice::Mosfet* mp = cand.mp;
      if (used.count(mn) || used.count(mp) || nid(mn->source()) != 0)
        continue;
      const int rail = nid(mp->source());
      if (!pinned[static_cast<std::size_t>(rail)]) continue;
      const int in = cand.sn, ip = cand.sp;
      PairAnalysis P;
      P.mn = mn;
      P.mp = mp;
      P.drain = nid(cand.drain);
      P.sn = in >= 0 ? switches[static_cast<std::size_t>(in)] : nullptr;
      P.sp = ip >= 0 ? switches[static_cast<std::size_t>(ip)] : nullptr;
      P.rail_node = rail;
      P.rail_nominal = pin_nom[static_cast<std::size_t>(rail)];
      P.vdd = pin[static_cast<std::size_t>(rail)];
      P.vt_n = vt_iv(*mn);
      P.vt_p = vt_iv(*mp);
      P.beta_n = beta_iv(*mn);
      P.beta_p = beta_iv(*mp);
      const bool unknown =
          (in >= 0 && sw_unknown[static_cast<std::size_t>(in)]) ||
          (ip >= 0 && sw_unknown[static_cast<std::size_t>(ip)]);
      for (std::size_t s = 0; s < segments.size() && !unknown; ++s) {
        const bool non = in < 0 || sw_on[static_cast<std::size_t>(in)][s];
        const bool pon = ip < 0 || sw_on[static_cast<std::size_t>(ip)][s];
        if (non && pon) P.sampling_segments.push_back(static_cast<int>(s));
        if (P.sn && P.sp && !sw_on[static_cast<std::size_t>(in)][s] &&
            !sw_on[static_cast<std::size_t>(ip)][s])
          P.hold_segments.push_back(static_cast<int>(s));
      }
      P.resolved = !unknown && !P.sampling_segments.empty();
      used.insert(mn);
      used.insert(mp);
      pair_at.emplace(P.drain, pairs.size());
      pairs.push_back(std::move(P));
    }

    // Diode-connected devices, grouped per node (parallel diodes share
    // the node current in proportion to beta).
    for (const spice::Mosfet* m : topo.diodes) {
      if (used.count(m)) continue;
      const int node = nid(m->drain());
      const bool nmos_dev = m->type() == spice::MosType::kNmos;
      const auto it = diode_at.find(node);
      if (it != diode_at.end()) {
        DiodeGroup& g = diodes[it->second];
        if (g.nmos != nmos_dev || g.src != nid(m->source())) continue;
        g.devs.push_back(m);
        g.vt = join(g.vt, vt_iv(*m));
        g.beta_sum = g.beta_sum + beta_iv(*m);
        g.beta_sum_nom += m->params().beta();
        used.insert(m);
        continue;
      }
      DiodeGroup g;
      g.devs = {m};
      g.node = node;
      g.src = nid(m->source());
      g.nmos = nmos_dev;
      g.vt = vt_iv(*m);
      g.beta_sum = beta_iv(*m);
      g.vt_nom = m->params().vt0;
      g.beta_sum_nom = m->params().beta();
      diode_at.emplace(node, diodes.size());
      diodes.push_back(std::move(g));
      used.insert(m);
    }

    // Current mirrors: gate on a diode node, same type and source as
    // the diode group.  The beta ratio is taken as exact (process
    // tolerance is correlated within a device class on one die).
    for (const auto& e : c.elements()) {
      const auto* m = dynamic_cast<const spice::Mosfet*>(e.get());
      if (!m || used.count(m)) continue;
      const auto it = diode_at.find(nid(m->gate()));
      if (it == diode_at.end()) continue;
      const DiodeGroup& g = diodes[it->second];
      const bool nmos_dev = m->type() == spice::MosType::kNmos;
      if (g.nmos != nmos_dev || g.src != nid(m->source())) continue;
      mirrors.push_back({m, it->second, m->params().beta() / g.beta_sum_nom,
                         nid(m->drain()), nmos_dev});
      used.insert(m);
    }
  }

  // ================= current routing ================================

  /// Sink classification at (node, seg): 0 none, 1 absorb (ground or
  /// pinned), 2 diode group, 3 sampling pair drain.
  int sink_kind(int node, std::size_t seg, std::size_t* ref) const {
    if (pinned[static_cast<std::size_t>(node)]) return 1;
    const auto dit = diode_at.find(node);
    if (dit != diode_at.end()) {
      *ref = dit->second;
      return 2;
    }
    const auto pit = pair_at.find(node);
    if (pit != pair_at.end()) {
      const PairAnalysis& P = pairs[pit->second];
      for (const int s : P.sampling_segments)
        if (static_cast<std::size_t>(s) == seg) {
          *ref = pit->second;
          return 3;
        }
    }
    return 0;
  }

  /// Series conduction of join edge j during segment seg (current can
  /// flow through it).  Unknown-phase switches conduct "maybe": the
  /// caller marks the whole route forked.
  bool edge_conducts(const JoinEdge& e, std::size_t seg, bool* maybe) const {
    if (e.sw < 0) return true;
    if (sw_unknown[static_cast<std::size_t>(e.sw)]) {
      *maybe = true;
      return true;
    }
    return sw_on[static_cast<std::size_t>(e.sw)][seg] != 0;
  }

  /// Routes one emitted contribution from `n0` through the seg's series
  /// network to its sink(s).
  void route(std::size_t seg, int n0, Contribution proto, PairExtra* hold_of) {
    struct Delivery {
      int kind;
      std::size_t ref;
    };
    std::vector<Delivery> hits;
    int branches = 0;
    int pin_sink = -1;  ///< pinned node absorbing the route, if any
    bool maybe = false;

    std::size_t ref = 0;
    const int k0 = sink_kind(n0, seg, &ref);
    if (k0 != 0) {
      if (k0 != 1) hits.push_back({k0, ref});
      else pin_sink = n0;
      branches = 1;
    } else {
      std::unordered_set<int> visited = {n0};
      std::vector<int> frontier = {n0};
      while (!frontier.empty()) {
        const int n = frontier.back();
        frontier.pop_back();
        for (const std::size_t j : joins_at[static_cast<std::size_t>(n)]) {
          const JoinEdge& e = joins[j];
          if (!edge_conducts(e, seg, &maybe)) continue;
          const int o = e.a == n ? e.b : e.a;
          if (!visited.insert(o).second) continue;
          const int k = sink_kind(o, seg, &ref);
          if (k != 0) {
            ++branches;
            if (k != 1) hits.push_back({k, ref});
            else pin_sink = o;
            continue;  // sinks absorb; do not route through them
          }
          frontier.push_back(o);
        }
      }
      if (branches == 0) {
        // Undriven island with forced current: poison every node of the
        // component for this segment, keeping the contribution so the
        // fixpoint can bound the drift instead of assuming the worst.
        for (const int n : visited) {
          poisoned[seg].insert(n);
          poison_in[seg][n].push_back(proto);
        }
        return;
      }
    }

    const bool forked = proto.forked || maybe || branches > 1;
    for (const Delivery& d : hits) {
      Contribution cpy = proto;
      cpy.forked = forked;
      if (d.kind == 2)
        diode_in[d.ref][seg].push_back(cpy);
      else
        pair_in[d.ref][seg].push_back(cpy);
      if (hold_of && hold_of->hold_kind == 0) {
        hold_of->hold_kind = d.kind == 3 ? 1 : 2;
        hold_of->hold_ref = d.ref;
        hold_of->hold_seg = static_cast<int>(seg);
        hold_of->hold_forked = forked;
      }
    }
    // A route absorbed only by a pinned node still fixes the held
    // drain voltage (kind 3: the pin's nominal value).
    if (hold_of && hold_of->hold_kind == 0 && pin_sink >= 0) {
      hold_of->hold_kind = 3;
      hold_of->hold_seg = static_cast<int>(seg);
      hold_of->hold_forked = forked;
      hold_of->hold_pin = pin_nom[static_cast<std::size_t>(pin_sink)];
    }
  }

  void route_all() {
    const std::size_t S = segments.size();
    pair_in.assign(pairs.size(), std::vector<std::vector<Contribution>>(S));
    diode_in.assign(diodes.size(), std::vector<std::vector<Contribution>>(S));
    poisoned.assign(S, {});
    poison_in.assign(S, {});
    pair_extra.assign(pairs.size(), {});

    for (std::size_t s = 0; s < S; ++s) {
      for (const auto& e : c.elements()) {
        const auto* cs = dynamic_cast<const spice::CurrentSource*>(e.get());
        if (!cs) continue;
        const auto terms = cs->terminals();
        const int p = nid(terms[0].node), m = nid(terms[1].node);
        double nom = 0.0;
        Interval iv;
        if (dynamic_cast<const spice::DcWave*>(&cs->waveform())) {
          nom = cs->waveform().value(0.0);
          iv = Interval::around_rel(nom, opt.current_rel_tol);
        } else {
          const auto [lo, hi] = waveform_range(cs->waveform());
          nom = std::abs(hi) >= std::abs(lo) ? hi : lo;
          iv = Interval::make(lo, hi) * Interval::make(1.0 - opt.current_rel_tol,
                                                       1.0 + opt.current_rel_tol);
          iv = join(iv, Interval::make(lo, hi));
        }
        Contribution into_m;
        into_m.kind = Contribution::kSource;
        into_m.name = cs->name();
        into_m.nominal = nom;
        into_m.range = iv;
        Contribution out_of_p = into_m;
        out_of_p.nominal = -nom;
        out_of_p.range = -iv;
        route(s, m, into_m, nullptr);
        route(s, p, out_of_p, nullptr);
      }
      for (const Mirror& mi : mirrors) {
        Contribution cb;
        cb.kind = Contribution::kMirror;
        cb.ref = mi.master;
        cb.factor = mi.nmos ? -mi.ratio : mi.ratio;
        route(s, mi.drain, cb, nullptr);
      }
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const PairAnalysis& P = pairs[k];
        const bool holding =
            std::find(P.hold_segments.begin(), P.hold_segments.end(),
                      static_cast<int>(s)) != P.hold_segments.end();
        if (!holding) continue;
        Contribution cb;
        cb.kind = Contribution::kPairHold;
        cb.ref = k;
        cb.factor = -1.0;
        route(s, P.drain, cb, &pair_extra[k]);
      }
    }
  }

  // ================= interval current resolution ====================

  Interval contrib_value(const Contribution& cb, std::size_t seg) {
    Interval v;
    switch (cb.kind) {
      case Contribution::kSource:
        v = cb.range;
        break;
      case Contribution::kPairHold:
        v = Interval::point(cb.factor) * pair_iin(cb.ref);
        break;
      case Contribution::kMirror: {
        const Interval i_node = diode_current(cb.ref, seg);
        const Interval i_dev =
            max(diodes[cb.ref].nmos ? i_node : -i_node, Interval::point(0.0));
        v = Interval::point(cb.factor) * i_dev;
        break;
      }
    }
    // A forked delivery: any split of the current between the branches
    // is possible, so the sink sees anywhere between none and all of it.
    if (cb.forked) v = join(v, Interval::point(0.0));
    return v;
  }

  Interval sum_contribs(const std::vector<Contribution>& list,
                        std::size_t seg) {
    Interval sum = Interval::point(0.0);
    for (const Contribution& cb : list) sum = sum + contrib_value(cb, seg);
    return sum;
  }

  Interval pair_iin(std::size_t k) {
    if (pair_rs[k] == 2) return pair_iin_memo[k];
    if (pair_rs[k] == 1) return Interval::top();  // feedback current loop
    pair_rs[k] = 1;
    Interval iin = Interval::empty();
    PairAnalysis& P = pairs[k];
    for (const int s : P.sampling_segments) {
      const auto su = static_cast<std::size_t>(s);
      iin = join(iin, sum_contribs(pair_in[k][su], su));
      if (pair_extra[k].iin_seg < 0 || !pair_in[k][su].empty())
        if (pair_extra[k].iin_seg < 0) pair_extra[k].iin_seg = s;
    }
    // Prefer a sampling segment that actually receives current.
    for (const int s : P.sampling_segments)
      if (!pair_in[k][static_cast<std::size_t>(s)].empty()) {
        pair_extra[k].iin_seg = s;
        break;
      }
    pair_rs[k] = 2;
    pair_iin_memo[k] = iin;
    return iin;
  }

  Interval diode_current(std::size_t d, std::size_t seg) {
    auto& st = diode_rs[d][static_cast<int>(seg)];
    if (st == 1) return Interval::top();
    const auto it = diode_i_memo[d].find(static_cast<int>(seg));
    if (st == 2 && it != diode_i_memo[d].end()) return it->second;
    st = 1;
    const Interval i = sum_contribs(diode_in[d][seg], seg);
    st = 2;
    diode_i_memo[d][static_cast<int>(seg)] = i;
    return i;
  }

  void gather_source_deps(std::size_t k, std::unordered_set<std::size_t>& seen,
                          std::vector<std::string>& out) {
    if (!seen.insert(k).second) return;
    const PairAnalysis& P = pairs[k];
    for (const int s : P.sampling_segments)
      for (const Contribution& cb : pair_in[k][static_cast<std::size_t>(s)]) {
        if (cb.kind == Contribution::kSource) {
          if (std::find(out.begin(), out.end(), cb.name) == out.end())
            out.push_back(cb.name);
        } else if (cb.kind == Contribution::kPairHold) {
          gather_source_deps(cb.ref, seen, out);
        } else {
          for (const auto& per_seg : diode_in[cb.ref])
            for (const Contribution& dc : per_seg)
              if (dc.kind == Contribution::kSource &&
                  std::find(out.begin(), out.end(), dc.name) == out.end())
                out.push_back(dc.name);
        }
      }
  }

  void resolve_currents() {
    pair_rs.assign(pairs.size(), 0);
    pair_iin_memo.assign(pairs.size(), Interval::empty());
    diode_i_memo.assign(diodes.size(), {});
    diode_rs.assign(diodes.size(), {});
    double imax = 1e-6;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      PairAnalysis& P = pairs[k];
      if (!P.resolved) continue;
      P.i_in = pair_iin(k);
      for (const int s : P.sampling_segments)
        for (const Contribution& cb : pair_in[k][static_cast<std::size_t>(s)])
          if (cb.forked) P.input_forked = true;
      std::unordered_set<std::size_t> seen;
      gather_source_deps(k, seen, P.source_deps);
      if (std::isfinite(P.i_in.lo) && std::isfinite(P.i_in.hi))
        imax = std::max({imax, std::abs(P.i_in.lo), std::abs(P.i_in.hi)});
    }
    for (std::size_t d = 0; d < diodes.size(); ++d)
      for (std::size_t s = 0; s < segments.size(); ++s) {
        const Interval i = diode_current(d, s);
        if (std::isfinite(i.lo) && std::isfinite(i.hi))
          imax = std::max({imax, std::abs(i.lo), std::abs(i.hi)});
      }
    for (const auto& e : c.elements())
      if (const auto* cs = dynamic_cast<const spice::CurrentSource*>(e.get())) {
        const auto [lo, hi] = waveform_range(cs->waveform());
        imax = std::max({imax, std::abs(lo), std::abs(hi)});
      }
    i_slack = imax;
  }

  // ================= class-AB pair transfer =========================

  void pair_transfer(PairAnalysis& P) {
    if (!P.resolved) return;
    const Interval iin = P.i_in.is_empty() ? Interval::point(0.0) : P.i_in;
    const double ends[6][2] = {{P.vdd.lo, P.vdd.hi},   {P.vt_n.lo, P.vt_n.hi},
                               {P.vt_p.lo, P.vt_p.hi}, {P.beta_n.lo, P.beta_n.hi},
                               {P.beta_p.lo, P.beta_p.hi}, {iin.lo, iin.hi}};
    for (const auto& pr : ends)
      for (const double v : pr)
        if (!std::isfinite(v)) {
          P.i_n = P.i_p = P.v_drain = P.vov_n = P.vov_p = Interval::top();
          return;
        }
    double lo[5], hi[5];
    std::fill(lo, lo + 5, kInf);
    std::fill(hi, hi + 5, -kInf);
    for (int mask = 0; mask < 64; ++mask) {
      const double vdd = ends[0][mask & 1];
      const double vtn = ends[1][(mask >> 1) & 1];
      const double vtp = ends[2][(mask >> 2) & 1];
      const double bn = ends[3][(mask >> 3) & 1];
      const double bp = ends[4][(mask >> 4) & 1];
      const double ii = ends[5][(mask >> 5) & 1];
      const double v = class_ab_drain_voltage(vdd, vtn, vtp, bn, bp, ii);
      const double ovn = v - vtn;
      const double ovp = vdd - v - vtp;
      const double pn = std::max(ovn, 0.0);
      const double pp = std::max(ovp, 0.0);
      const double vals[5] = {v, ovn, ovp, 0.5 * bn * pn * pn,
                              0.5 * bp * pp * pp};
      for (int q = 0; q < 5; ++q) {
        lo[q] = std::min(lo[q], vals[q]);
        hi[q] = std::max(hi[q], vals[q]);
      }
    }
    // The square-law transfer is monotone in each argument, so the
    // corner sweep is the exact image; one outward ULP keeps soundness
    // through the bisection's own rounding.
    P.v_drain = {round_down(lo[0]), round_up(hi[0])};
    P.vov_n = {round_down(lo[1]), round_up(hi[1])};
    P.vov_p = {round_down(lo[2]), round_up(hi[2])};
    P.i_n = {round_down(lo[3]), round_up(hi[3])};
    P.i_p = {round_down(lo[4]), round_up(hi[4])};
  }

  // ================= voltage fixpoint ===============================

  /// Per-segment BFS distance from a driven root: a node is driven when
  /// a pinned node, diode node, or sampling pair drain (distance 0)
  /// reaches it through conducting join edges.  dist < 0 means undriven:
  /// the node holds its previous-segment value (capacitive memory).
  /// Join-edge constraints only propagate *away* from the roots
  /// (strictly increasing distance) — re-joining a node from its own
  /// dependents would compound the IR slack every iteration and widen
  /// perfectly bounded nets to top.
  std::vector<std::vector<int>> compute_driven() const {
    const std::size_t S = segments.size(), N = c.node_count();
    std::vector<std::vector<int>> dist(S, std::vector<int>(N, -1));
    for (std::size_t s = 0; s < S; ++s) {
      std::vector<int> frontier;
      for (std::size_t n = 0; n < N; ++n) {
        bool root = pinned[n] != 0 || diode_at.count(static_cast<int>(n)) > 0;
        if (!root) {
          const auto pit = pair_at.find(static_cast<int>(n));
          if (pit != pair_at.end() && pairs[pit->second].resolved) {
            const auto& segs = pairs[pit->second].sampling_segments;
            root = std::find(segs.begin(), segs.end(), static_cast<int>(s)) !=
                   segs.end();
          }
        }
        if (root) {
          dist[s][n] = 0;
          frontier.push_back(static_cast<int>(n));
        }
      }
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const int n = frontier[head];
        for (const std::size_t j : joins_at[static_cast<std::size_t>(n)]) {
          const JoinEdge& e = joins[j];
          bool maybe = false;
          if (!edge_conducts(e, s, &maybe) || maybe) continue;
          const int o = e.a == n ? e.b : e.a;
          if (dist[s][static_cast<std::size_t>(o)] >= 0) continue;
          dist[s][static_cast<std::size_t>(o)] =
              dist[s][static_cast<std::size_t>(n)] + 1;
          frontier.push_back(o);
        }
      }
    }
    return dist;
  }

  /// Drift bound for a poisoned (undriven, current-forced) node.  Two
  /// physical anchors keep the excursion finite:
  ///   - a resolved pair holding at this drain absorbs the island's net
  ///     current mismatch through the devices' lambda output
  ///     conductance: v = v_drain + i_net / (l_n i_n + l_p i_p);
  ///   - a lone mirror drain only pulls toward its source rail, so the
  ///     node stays between the rail and its previous-segment value.
  /// Anything else genuinely diverges under an ideal forced current and
  /// stays top.
  Interval poison_bound(int node, std::size_t s, const Interval& prev) {
    const auto it = poison_in[s].find(node);
    Interval inet = Interval::point(0.0);
    bool all_mirror = true;
    if (it != poison_in[s].end())
      for (const Contribution& cb : it->second) {
        inet = inet + contrib_value(cb, s);
        if (cb.kind != Contribution::kMirror) all_mirror = false;
      }

    const auto pit = pair_at.find(node);
    if (pit != pair_at.end()) {
      const PairAnalysis& P = pairs[pit->second];
      if (P.resolved &&
          std::find(P.hold_segments.begin(), P.hold_segments.end(),
                    static_cast<int>(s)) != P.hold_segments.end()) {
        const Interval g =
            Interval::point(P.mn->params().lambda) *
                max(P.i_n, Interval::point(0.0)) +
            Interval::point(P.mp->params().lambda) *
                max(P.i_p, Interval::point(0.0));
        if (g.lo > 0.0 && !inet.is_empty()) return P.v_drain + inet / g;
      }
    }

    const Mirror* mine = nullptr;
    bool mixed = false;
    for (const Mirror& mi : mirrors)
      if (mi.drain == node) {
        if (mine) mixed = true;
        mine = &mi;
      }
    if (mine && !mixed && all_mirror) {
      const auto su = static_cast<std::size_t>(nid(mine->dev->source()));
      const Interval srail = su == 0             ? Interval::point(0.0)
                             : pinned[su] != 0   ? pin[su]
                                                 : Interval::top();
      if (!prev.is_empty() && !srail.is_empty())
        return mine->nmos
                   ? Interval::make(std::min(prev.lo, srail.lo), prev.hi)
                   : Interval::make(prev.lo, std::max(prev.hi, srail.hi));
    }
    return Interval::top();
  }

  void fixpoint(AbsResult& r) {
    const std::size_t S = segments.size(), N = c.node_count();
    r.v.assign(N, std::vector<Interval>(S, Interval::empty()));
    const auto dist = compute_driven();
    const Interval slack_base = Interval::make(-i_slack, i_slack);
    std::vector<int> visits(N, 0);

    for (std::size_t n = 0; n < N; ++n)
      if (pinned[n])
        for (std::size_t s = 0; s < S; ++s) r.v[n][s] = pin[n];

    for (int it = 0; it < kMaxFixpointIterations; ++it) {
      bool changed = false;
      for (std::size_t s = 0; s < S; ++s) {
        for (const int node : r.sfg.order) {
          const auto n = static_cast<std::size_t>(node);
          if (pinned[n]) continue;
          if (poisoned[s].count(node)) {
            // Poisoned islands have no conducting path to a driven root,
            // so nothing else below applies; recompute from scratch each
            // pass (a first-pass top from a not-yet-computed previous
            // segment must not latch into the monotone join).
            const Interval prev = r.v[n][(s + S - 1) % S];
            Interval acc = poison_bound(node, s, prev);
            if (S > 1) acc = join(acc, prev);
            if (acc != r.v[n][s]) {
              r.v[n][s] = acc;
              changed = true;
            }
            continue;
          }
          Interval acc = r.v[n][s];

          const auto pit = pair_at.find(node);
          if (pit != pair_at.end() && pairs[pit->second].resolved) {
            const PairAnalysis& P = pairs[pit->second];
            if (std::find(P.sampling_segments.begin(),
                          P.sampling_segments.end(),
                          static_cast<int>(s)) != P.sampling_segments.end())
              acc = join(acc, P.v_drain);
          }
          const auto dit = diode_at.find(node);
          if (dit != diode_at.end()) {
            const DiodeGroup& g = diodes[dit->second];
            const Interval i_node = diode_current(dit->second, s);
            const Interval i_dev = g.nmos ? i_node : -i_node;
            const Interval drop =
                g.vt + verify::sqrt(Interval::point(2.0) *
                                    max(i_dev, Interval::point(0.0)) /
                                    g.beta_sum);
            const auto su = static_cast<std::size_t>(g.src);
            const Interval base = g.src == 0 ? Interval::point(0.0)
                                  : pinned[su] ? pin[su]
                                               : r.v[su][s];
            if (!base.is_empty())
              acc = join(acc, g.nmos ? base + drop : base - drop);
          }
          for (const std::size_t j : joins_at[n]) {
            const JoinEdge& e = joins[j];
            bool maybe = false;
            if (!edge_conducts(e, s, &maybe) || maybe) continue;
            const int o = e.a == node ? e.b : e.a;
            // Constraints flow away from the driven roots only; see
            // compute_driven.
            const int dn = dist[s][n], dc = dist[s][static_cast<std::size_t>(o)];
            if (dc < 0 || (dn >= 0 && dc >= dn)) continue;
            const Interval slack = Interval::point(e.r) * slack_base;
            const Interval ov = r.v[static_cast<std::size_t>(o)][s];
            if (ov.is_empty()) continue;
            // v(a) - v(b) = offset (+/- IR drop through r).
            acc = join(acc, e.a == node ? ov + e.offset + slack
                                        : ov - e.offset + slack);
          }
          if (S > 1 && dist[s][n] < 0) {
            const std::size_t prev = (s + S - 1) % S;
            acc = join(acc, r.v[n][prev]);
          }

          if (acc != r.v[n][s]) {
            ++visits[n];
            if (r.sfg.is_feedback[n] && visits[n] > kWidenAfter) {
              acc = widen(r.v[n][s], acc, rail_window);
              ++widenings;
            }
            r.v[n][s] = acc;
            changed = true;
          }
        }
      }
      ++iterations;
      if (!changed) break;
    }

    r.hull.assign(N, Interval::empty());
    for (std::size_t n = 0; n < N; ++n)
      for (std::size_t s = 0; s < S; ++s) r.hull[n] = join(r.hull[n], r.v[n][s]);
  }

  // ================= concrete (witness) evaluation ==================

  double conc_source(const Contribution& cb, const Corner& k) const {
    const auto it = k.source_scale.find(cb.name);
    return cb.nominal * (it == k.source_scale.end() ? 1.0 : it->second);
  }

  /// Per-call state of one concrete evaluation (one corner, one root):
  /// the cycle guard and the memo of pair input currents.  A current is
  /// memoised only when its evaluation hit no guard, and it is reused
  /// only at the hold level that computed it or the next one, where no
  /// guard it could reach is set (DESIGN.md, "Abstract domain & fixpoint
  /// contract").
  struct ConcState {
    explicit ConcState(std::size_t pairs)
        : guard(pairs, 0), iin(pairs, 0.0), iin_level(pairs, -2) {}
    std::vector<int> guard;
    std::vector<double> iin;
    std::vector<int> iin_level;  // hold level that memoised iin[k]
    int level = 0;               // hold descents below the root
    std::size_t guard_hits = 0;
    std::size_t evals = 0;       // pair input currents evaluated
  };

  double conc_contrib(const Contribution& cb, std::size_t seg, const Corner& k,
                      ConcState& st) const {
    if (cb.forked) return kNan;
    switch (cb.kind) {
      case Contribution::kSource:
        return conc_source(cb, k);
      case Contribution::kPairHold:
        return cb.factor * conc_pair_iin(cb.ref, k, st);
      case Contribution::kMirror: {
        const double i_node = conc_diode_current(cb.ref, seg, k, st);
        const double i_dev =
            std::max(diodes[cb.ref].nmos ? i_node : -i_node, 0.0);
        return cb.factor * i_dev;
      }
    }
    return kNan;
  }

  double conc_diode_current(std::size_t d, std::size_t seg, const Corner& k,
                            ConcState& st) const {
    double sum = 0.0;
    for (const Contribution& cb : diode_in[d][seg])
      sum += conc_contrib(cb, seg, k, st);
    return sum;
  }

  double conc_pair_iin(std::size_t k, const Corner& corner,
                       ConcState& st) const {
    if (st.guard[k]) {
      ++st.guard_hits;
      return kNan;
    }
    if (st.iin_level[k] + 1 >= st.level) return st.iin[k];
    ++st.evals;
    const std::size_t hits = st.guard_hits;
    st.guard[k] = 1;
    const int seg = pair_extra[k].iin_seg;
    double sum = kNan;
    if (seg >= 0) {
      sum = 0.0;
      for (const Contribution& cb :
           pair_in[k][static_cast<std::size_t>(seg)])
        sum += conc_contrib(cb, static_cast<std::size_t>(seg), corner, st);
    }
    st.guard[k] = 0;
    if (st.guard_hits == hits) {
      st.iin[k] = sum;
      st.iin_level[k] = st.level;
    }
    return sum;
  }

  PairOp conc_pair_op(std::size_t k, const Corner& corner,
                      ConcState& st) const {
    PairOp op;
    op.v_drain_hold = kNan;
    const PairAnalysis& P = pairs[k];
    if (!P.resolved || !P.mn || !P.mp) return op;
    op.vdd = P.rail_nominal * corner.vdd_scale;
    op.vt_n = P.mn->params().vt0 + corner.vt_n_shift;
    op.vt_p = P.mp->params().vt0 + corner.vt_p_shift;
    const double bn = P.mn->params().beta() * corner.beta_n_scale;
    const double bp = P.mp->params().beta() * corner.beta_p_scale;
    op.i_in = conc_pair_iin(k, corner, st);
    if (!std::isfinite(op.i_in)) return op;
    op.v_drain = class_ab_drain_voltage(op.vdd, op.vt_n, op.vt_p, bn, bp,
                                        op.i_in);
    op.vov_n = op.v_drain - op.vt_n;
    op.vov_p = op.vdd - op.v_drain - op.vt_p;
    const double pn = std::max(op.vov_n, 0.0);
    const double pp = std::max(op.vov_p, 0.0);
    op.i_n = 0.5 * bn * pn * pn;
    op.i_p = 0.5 * bp * pp * pp;
    op.valid = true;

    // The hold evaluations below run with guard[k] set: one hold level
    // down.
    const PairExtra& x = pair_extra[k];
    if (x.hold_kind == 1 && !x.hold_forked) {
      if (!st.guard[x.hold_ref]) {
        st.guard[k] = 1;
        ++st.level;
        const PairOp down = conc_pair_op(x.hold_ref, corner, st);
        --st.level;
        st.guard[k] = 0;
        if (down.valid) op.v_drain_hold = down.v_drain;
      }
    } else if (x.hold_kind == 2 && !x.hold_forked) {
      const DiodeGroup& g = diodes[x.hold_ref];
      st.guard[k] = 1;
      ++st.level;
      const double i_node = conc_diode_current(
          x.hold_ref, static_cast<std::size_t>(x.hold_seg), corner, st);
      --st.level;
      st.guard[k] = 0;
      if (std::isfinite(i_node)) {
        const double i_dev = std::max(g.nmos ? i_node : -i_node, 0.0);
        const double vt =
            g.vt_nom + (g.nmos ? corner.vt_n_shift : corner.vt_p_shift);
        const double beta = g.beta_sum_nom * (g.nmos ? corner.beta_n_scale
                                                     : corner.beta_p_scale);
        const double drop = vt + std::sqrt(2.0 * i_dev / beta);
        const double base =
            g.src == 0 ? 0.0
                       : pin_nom[static_cast<std::size_t>(g.src)] *
                             corner.vdd_scale;
        op.v_drain_hold = g.nmos ? base + drop : base - drop;
      }
    } else if (x.hold_kind == 3 && !x.hold_forked) {
      op.v_drain_hold = x.hold_pin;
    }
    return op;
  }

  // ================= top level ======================================

  AbsResult run() {
    AbsResult r;
    build_clock_model();
    build_pins_and_joins();
    classify_devices();
    route_all();
    resolve_currents();
    for (PairAnalysis& P : pairs) pair_transfer(P);
    r.sfg = build_sfg(c);
    r.hyperperiod = hyperperiod;
    r.segments = segments;
    r.rail_window = rail_window;
    fixpoint(r);
    r.pairs = pairs;
    r.switch_elements = switches;
    r.iterations = iterations;
    r.widenings = widenings;
    r.phase_resolutions = resolve_phase.resolutions();
    for (const Interval& h : r.hull)
      if (!h.is_empty() && !h.is_top()) ++r.nodes_resolved;
    return r;
  }
};

AbstractInterpreter::AbstractInterpreter(const spice::Circuit& c,
                                         const AbsOptions& opt)
    : impl_(new Impl(c, opt)) {}

AbstractInterpreter::~AbstractInterpreter() { delete impl_; }

AbsResult AbstractInterpreter::run() { return impl_->run(); }

PairOp AbstractInterpreter::eval_pair(const AbsResult& r, std::size_t pair,
                                      const Corner& corner,
                                      std::size_t* iin_evals) const {
  (void)r;
  Impl::ConcState st(impl_->pairs.size());
  const PairOp op = impl_->conc_pair_op(pair, corner, st);
  if (iin_evals) *iin_evals += st.evals;
  return op;
}

}  // namespace si::verify
