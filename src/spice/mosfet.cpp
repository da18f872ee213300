#include "spice/mosfet.hpp"

#include <cmath>
#include <stdexcept>

namespace si::spice {

Mosfet::Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
               NodeId source, MosfetParams params)
    : Element(std::move(name)),
      type_(type),
      d_(drain),
      g_(gate),
      s_(source),
      params_(params),
      cgs_cap_(params.cgs),
      cgd_cap_(params.cgd),
      op_d_eff_(drain),
      op_s_eff_(source) {
  if (params.w <= 0 || params.l <= 0 || params.kp <= 0)
    throw std::invalid_argument("Mosfet: w, l, kp must be > 0");
}

Mosfet::Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
               NodeId source, NodeId bulk, MosfetParams params)
    : Mosfet(std::move(name), type, drain, gate, source, params) {
  b_ = bulk;
  has_bulk_ = true;
}

void Mosfet::set_params(const MosfetParams& params) {
  if (params.w <= 0 || params.l <= 0 || params.kp <= 0)
    throw std::invalid_argument("Mosfet: w, l, kp must be > 0");
  params_ = params;
  cgs_cap_.set_capacitance(params.cgs);
  cgd_cap_.set_capacitance(params.cgd);
}

double Mosfet::threshold(double vsb_primed) const {
  if (!has_bulk_ || params_.gamma == 0.0) return params_.vt0;
  // Clamp the junction to weak forward bias; deeper forward bias would
  // need a diode model.
  const double arg = std::max(params_.phi + vsb_primed, 0.0);
  return params_.vt0 +
         params_.gamma * (std::sqrt(arg) - std::sqrt(params_.phi));
}

Mosfet::Eval Mosfet::evaluate(double vd, double vg, double vs,
                              double vb) const {
  Eval e;
  e.sign = (type_ == MosType::kNmos) ? 1.0 : -1.0;
  // Work in the primed frame where the device behaves as an NMOS.
  double vdp = e.sign * vd;
  double vgp = e.sign * vg;
  double vsp = e.sign * vs;
  // The MOSFET is symmetric: the higher-potential terminal acts as the
  // drain (in the primed frame).
  if (!(vdp >= vsp)) {
    std::swap(vdp, vsp);
    e.swapped = true;
  }
  const double vgsp = vgp - vsp;
  const double vdsp = vdp - vsp;
  const double vbp = e.sign * vb;
  const double vt = threshold(vsp - vbp);
  const double vov = vgsp - vt;
  e.vov = vov;
  const double beta = params_.beta();

  if (vov <= 0.0) {
    e.region = MosRegion::kCutoff;
    return e;
  }
  if (vdsp < vov) {
    // Triode.  Include the (1 + lambda*vds) factor so current and its
    // derivatives are continuous at vds = vov.
    const double clm = 1.0 + params_.lambda * vdsp;
    const double core = vov * vdsp - 0.5 * vdsp * vdsp;
    e.region = MosRegion::kTriode;
    e.id = beta * core * clm;
    e.gm = beta * vdsp * clm;
    e.gds = beta * ((vov - vdsp) * clm + core * params_.lambda);
  } else {
    const double clm = 1.0 + params_.lambda * vdsp;
    e.region = MosRegion::kSaturation;
    e.id = 0.5 * beta * vov * vov * clm;
    e.gm = beta * vov * clm;
    e.gds = 0.5 * beta * vov * vov * params_.lambda;
  }
  return e;
}

std::vector<Terminal> Mosfet::terminals() const {
  std::vector<Terminal> t = {
      {d_, "d", false}, {g_, "g", true}, {s_, "s", false}};
  if (has_bulk_) t.push_back({b_, "b", true});
  return t;
}

template <typename Writer>
void Mosfet::load(Writer& w, const StampContext& ctx, NodeId d, NodeId g,
                  NodeId s, NodeId b) const {
  const Eval e = evaluate(w.voltage(d), w.voltage(g), w.voltage(s),
                          has_bulk_ ? w.voltage(b) : w.voltage(s));
  const NodeId d_eff = e.swapped ? s : d;
  const NodeId s_eff = e.swapped ? d : s;
  // Actual current from d_eff to s_eff and actual controlling voltages.
  const double vgs_eff = w.voltage(g) - w.voltage(s_eff);
  const double vds_eff = w.voltage(d_eff) - w.voltage(s_eff);
  const double i0 = e.sign * e.id;
  // Newton companion: i ~ i0 + gm*(vgs - vgs0) + gds*(vds - vds0).
  const double ieq = i0 - e.gm * vgs_eff - e.gds * vds_eff;
  w.conductance(d_eff, s_eff, e.gds + kGmin);
  w.transconductance(d_eff, s_eff, g, s_eff, e.gm);
  w.current(d_eff, s_eff, ieq);
  // Gate capacitances.
  cgs_cap_.stamp(w, ctx, g, s);
  cgd_cap_.stamp(w, ctx, g, d);
}

void Mosfet::stamp(RealStamper& s, const StampContext& ctx) {
  load(s, ctx, d_, g_, s_, b_);
}

void Mosfet::stamp(SlotStamper& s, const StampContext& ctx) const {
  load(s, ctx, 0, 1, 2, 3);
}

MosfetSlots MosfetSlots::resolve(const Mosfet& m,
                                 const linalg::SparsePattern* pattern,
                                 int n) {
  MosfetSlots out;
  const NodeId nodes[4] = {m.drain(), m.gate(), m.source(), m.bulk()};
  for (std::size_t t = 0; t < 4; ++t) out.row[t] = nodes[t] - 1;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) {
      const int r = out.row[i];
      const int c = out.row[j];
      int slot = -1;
      if (r >= 0 && c >= 0) {
        slot = pattern ? pattern->find(r, c) : r * n + c;
        if (slot < 0) throw linalg::PatternMissError(r, c);
      }
      out.slot[3 * i + j] = slot;
    }
  return out;
}

void Mosfet::accept(const SolutionView& sol, const StampContext& ctx) {
  const Eval e =
      evaluate(sol.voltage(d_), sol.voltage(g_), sol.voltage(s_),
               has_bulk_ ? sol.voltage(b_) : sol.voltage(s_));
  op_id_ = e.sign * e.id * (e.swapped ? -1.0 : 1.0);  // drain->source
  op_gm_ = e.gm;
  op_gds_ = e.gds;
  op_region_ = e.region;
  op_vov_ = std::max(e.vov, 0.0);
  op_vgs_ = sol.voltage(g_) - sol.voltage(s_);
  op_vds_ = sol.voltage(d_) - sol.voltage(s_);
  op_d_eff_ = e.swapped ? s_ : d_;
  op_s_eff_ = e.swapped ? d_ : s_;
  cgs_cap_.accept(sol, ctx, g_, s_);
  cgd_cap_.accept(sol, ctx, g_, d_);
}

void Mosfet::stamp_ac(ComplexStamper& s, double omega) const {
  s.admittance(op_d_eff_, op_s_eff_, op_gds_);
  s.transadmittance(op_d_eff_, op_s_eff_, g_, op_s_eff_, op_gm_);
  cgs_cap_.stamp_ac(s, omega, g_, s_);
  cgd_cap_.stamp_ac(s, omega, g_, d_);
}

void Mosfet::append_noise(std::vector<NoiseSource>& out) const {
  const double thermal =
      4.0 * kBoltzmann * params_.temperature * params_.noise_gamma * op_gm_;
  const double kf_id = params_.kf * std::abs(op_id_);
  out.push_back(NoiseSource{
      op_d_eff_, op_s_eff_,
      [thermal, kf_id](double f) {
        return thermal + (f > 0.0 ? kf_id / f : 0.0);
      },
      name() + ".channel"});
}

double Mosfet::dissipated_power(const SolutionView& sol) const {
  const double vds = sol.voltage(d_) - sol.voltage(s_);
  return std::abs(op_id_ * vds);
}

}  // namespace si::spice
