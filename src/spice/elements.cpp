#include "spice/elements.hpp"

#include <cmath>
#include <stdexcept>

#include "spice/circuit.hpp"

namespace si::spice {

// ---------------------------------------------------------------- caps

void CompanionCap::stamp_ac(ComplexStamper& s, double omega, NodeId p,
                            NodeId m) const {
  if (c_ <= 0.0) return;
  s.admittance(p, m, std::complex<double>(0.0, omega * c_));
}

// ------------------------------------------------------------ resistor

Resistor::Resistor(std::string name, NodeId p, NodeId m, double ohms,
                   double temperature)
    : Element(std::move(name)), p_(p), m_(m), ohms_(ohms),
      temperature_(temperature) {
  if (ohms <= 0.0) throw std::invalid_argument("Resistor: ohms must be > 0");
}

std::vector<Terminal> Resistor::terminals() const {
  return {{p_, "p", false}, {m_, "m", false}};
}

void Resistor::stamp(RealStamper& s, const StampContext&) {
  s.conductance(p_, m_, 1.0 / ohms_);
}

void Resistor::stamp_ac(ComplexStamper& s, double) const {
  s.admittance(p_, m_, 1.0 / ohms_);
}

void Resistor::append_noise(std::vector<NoiseSource>& out) const {
  const double psd = 4.0 * kBoltzmann * temperature_ / ohms_;
  out.push_back(NoiseSource{p_, m_, [psd](double) { return psd; },
                            name() + ".thermal"});
}

double Resistor::dissipated_power(const SolutionView& sol) const {
  const double v = sol.voltage(p_) - sol.voltage(m_);
  return v * v / ohms_;
}

// ----------------------------------------------------------- capacitor

Capacitor::Capacitor(std::string name, NodeId p, NodeId m, double farads)
    : Element(std::move(name)), p_(p), m_(m), cap_(farads) {
  if (farads <= 0.0)
    throw std::invalid_argument("Capacitor: farads must be > 0");
}

std::vector<Terminal> Capacitor::terminals() const {
  return {{p_, "p", true}, {m_, "m", true}};
}

void Capacitor::stamp(RealStamper& s, const StampContext& ctx) {
  cap_.stamp(s, ctx, p_, m_);
}

void Capacitor::accept(const SolutionView& sol, const StampContext& ctx) {
  cap_.accept(sol, ctx, p_, m_);
}

void Capacitor::stamp_ac(ComplexStamper& s, double omega) const {
  cap_.stamp_ac(s, omega, p_, m_);
}

// ------------------------------------------------------ current source

CurrentSource::CurrentSource(std::string name, NodeId p, NodeId m,
                             std::unique_ptr<Waveform> wave)
    : Element(std::move(name)), p_(p), m_(m), wave_(std::move(wave)) {
  if (!wave_) throw std::invalid_argument("CurrentSource: null waveform");
}

CurrentSource::CurrentSource(std::string name, NodeId p, NodeId m,
                             double dc_amps)
    : CurrentSource(std::move(name), p, m, std::make_unique<DcWave>(dc_amps)) {}

std::vector<Terminal> CurrentSource::terminals() const {
  return {{p_, "p", false}, {m_, "m", false}};
}

void CurrentSource::stamp(RealStamper& s, const StampContext& ctx) {
  const double i = ctx.mode == AnalysisMode::kDcOperatingPoint
                       ? wave_->dc_value()
                       : wave_->value(ctx.time);
  s.current(p_, m_, i);
}

void CurrentSource::stamp_ac(ComplexStamper& s, double) const {
  if (ac_magnitude_ != 0.0) s.current(p_, m_, ac_magnitude_);
}

void CurrentSource::set_waveform(std::unique_ptr<Waveform> wave) {
  if (!wave) throw std::invalid_argument("CurrentSource: null waveform");
  wave_ = std::move(wave);
}

// ------------------------------------------------------ voltage source

VoltageSource::VoltageSource(std::string name, NodeId p, NodeId m,
                             std::unique_ptr<Waveform> wave)
    : Element(std::move(name)), p_(p), m_(m), wave_(std::move(wave)) {
  if (!wave_) throw std::invalid_argument("VoltageSource: null waveform");
}

VoltageSource::VoltageSource(std::string name, NodeId p, NodeId m,
                             double dc_volts)
    : VoltageSource(std::move(name), p, m,
                    std::make_unique<DcWave>(dc_volts)) {}

std::vector<Terminal> VoltageSource::terminals() const {
  return {{p_, "p", false}, {m_, "m", false}};
}

void VoltageSource::setup(Circuit& c) { branch_ = c.allocate_branch(); }

void VoltageSource::stamp(RealStamper& s, const StampContext& ctx) {
  const double v = ctx.mode == AnalysisMode::kDcOperatingPoint
                       ? wave_->dc_value()
                       : wave_->value(ctx.time);
  s.branch_voltage_row(branch_, p_, m_);
  s.branch_rhs(branch_, v);
}

void VoltageSource::stamp_ac(ComplexStamper& s, double) const {
  s.branch_voltage_row(branch_, p_, m_);
  if (ac_magnitude_ != 0.0) s.branch_rhs(branch_, ac_magnitude_);
}

void VoltageSource::set_waveform(std::unique_ptr<Waveform> wave) {
  if (!wave) throw std::invalid_argument("VoltageSource: null waveform");
  wave_ = std::move(wave);
}

double VoltageSource::dissipated_power(const SolutionView& sol) const {
  // Power *delivered by* the source (positive when sourcing).
  const double v = sol.voltage(p_) - sol.voltage(m_);
  const double i = sol.branch_current(branch_);
  return -v * i;
}

// ----------------------------------------------------------------- vccs

Vccs::Vccs(std::string name, NodeId out_p, NodeId out_m, NodeId cp, NodeId cm,
           double gm)
    : Element(std::move(name)),
      out_p_(out_p),
      out_m_(out_m),
      cp_(cp),
      cm_(cm),
      gm_(gm) {}

std::vector<Terminal> Vccs::terminals() const {
  return {{out_p_, "op", false},
          {out_m_, "om", false},
          {cp_, "cp", true},
          {cm_, "cm", true}};
}

void Vccs::stamp(RealStamper& s, const StampContext&) {
  s.transconductance(out_p_, out_m_, cp_, cm_, gm_);
}

void Vccs::stamp_ac(ComplexStamper& s, double) const {
  s.transadmittance(out_p_, out_m_, cp_, cm_, gm_);
}

// ----------------------------------------------------------------- vcvs

Vcvs::Vcvs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm,
           double k)
    : Element(std::move(name)), p_(p), m_(m), cp_(cp), cm_(cm), k_(k) {}

std::vector<Terminal> Vcvs::terminals() const {
  return {{p_, "op", false},
          {m_, "om", false},
          {cp_, "cp", true},
          {cm_, "cm", true}};
}

void Vcvs::setup(Circuit& c) { branch_ = c.allocate_branch(); }

void Vcvs::stamp(RealStamper& s, const StampContext&) {
  s.branch_voltage_row(branch_, p_, m_);
  s.branch_row_entry(branch_, cp_, -k_);
  s.branch_row_entry(branch_, cm_, k_);
}

void Vcvs::stamp_ac(ComplexStamper& s, double) const {
  s.branch_voltage_row(branch_, p_, m_);
  s.branch_row_entry(branch_, cp_, -k_);
  s.branch_row_entry(branch_, cm_, k_);
}

// ----------------------------------------------------------------- cccs

Cccs::Cccs(std::string name, NodeId out_p, NodeId out_m,
           const VoltageSource& sense, double gain)
    : Element(std::move(name)),
      out_p_(out_p),
      out_m_(out_m),
      sense_(&sense),
      gain_(gain) {}

std::vector<Terminal> Cccs::terminals() const {
  return {{out_p_, "op", false}, {out_m_, "om", false}};
}

void Cccs::stamp(RealStamper& s, const StampContext&) {
  // Current gain * i(sense) leaves out_p and enters out_m: the node
  // equations pick up the sense-branch unknown directly.
  s.node_branch_entry(out_p_, sense_->branch(), gain_);
  s.node_branch_entry(out_m_, sense_->branch(), -gain_);
}

void Cccs::stamp_ac(ComplexStamper& s, double) const {
  s.node_branch_entry(out_p_, sense_->branch(), gain_);
  s.node_branch_entry(out_m_, sense_->branch(), -gain_);
}

// ----------------------------------------------------------------- ccvs

Ccvs::Ccvs(std::string name, NodeId p, NodeId m, const VoltageSource& sense,
           double transresistance)
    : Element(std::move(name)), p_(p), m_(m), sense_(&sense),
      k_(transresistance) {}

std::vector<Terminal> Ccvs::terminals() const {
  return {{p_, "op", false}, {m_, "om", false}};
}

void Ccvs::setup(Circuit& c) { branch_ = c.allocate_branch(); }

void Ccvs::stamp(RealStamper& s, const StampContext&) {
  s.branch_voltage_row(branch_, p_, m_);
  s.branch_branch_entry(branch_, sense_->branch(), -k_);
}

void Ccvs::stamp_ac(ComplexStamper& s, double) const {
  s.branch_voltage_row(branch_, p_, m_);
  s.branch_branch_entry(branch_, sense_->branch(), -k_);
}

// ---------------------------------------------------------------- switch

Switch::Switch(std::string name, NodeId p, NodeId m,
               std::unique_ptr<Waveform> ctrl, double r_on, double r_off,
               double threshold)
    : Element(std::move(name)),
      p_(p),
      m_(m),
      ctrl_(std::move(ctrl)),
      g_on_(1.0 / r_on),
      g_off_(1.0 / r_off),
      threshold_(threshold),
      last_g_(g_off_) {
  if (!ctrl_) throw std::invalid_argument("Switch: null control waveform");
  if (r_on <= 0.0 || r_off <= 0.0)
    throw std::invalid_argument("Switch: resistances must be > 0");
}

std::vector<Terminal> Switch::terminals() const {
  return {{p_, "p", false}, {m_, "m", false}};
}

bool Switch::is_on(double t) const { return ctrl_->value(t) > threshold_; }

double Switch::conductance_at(double t, AnalysisMode mode) const {
  const double c = mode == AnalysisMode::kDcOperatingPoint
                       ? ctrl_->dc_value()
                       : ctrl_->value(t);
  return c > threshold_ ? g_on_ : g_off_;
}

void Switch::stamp(RealStamper& s, const StampContext& ctx) {
  s.conductance(p_, m_, conductance_at(ctx.time, ctx.mode));
}

void Switch::accept(const SolutionView&, const StampContext& ctx) {
  last_g_ = conductance_at(ctx.time, ctx.mode);
}

void Switch::stamp_ac(ComplexStamper& s, double) const {
  s.admittance(p_, m_, last_g_);
}

}  // namespace si::spice
