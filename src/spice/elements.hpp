// Linear circuit elements: resistor, capacitor, independent sources,
// controlled sources, and the clock-controlled switch used for SI
// sampling phases.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "spice/element.hpp"
#include "spice/waveform.hpp"

namespace si::spice {

/// Physical constants used by device and noise models.
constexpr double kBoltzmann = 1.380649e-23;  // [J/K]
constexpr double kRoomTemperature = 300.0;   // [K]

/// Shared companion-model state for a linear capacitance between two
/// nodes.  Used by Capacitor and by the MOSFET's gate capacitances.
class CompanionCap {
 public:
  explicit CompanionCap(double c) : c_(c) {}

  double capacitance() const { return c_; }

  /// Value-only update (Monte-Carlo parameter draws); the stored state
  /// of the companion integrator is preserved.
  void set_capacitance(double c) { c_ = c; }

  /// Stamps the integration companion (open circuit at DC) through
  /// either writer: RealStamper with nodes, or a MOSFET's SlotStamper
  /// with terminal indices.  Defined here, like the stamper's write
  /// path, so it compiles into the MOSFET's per-iteration stamp.
  template <typename Writer>
  void stamp(Writer& s, const StampContext& ctx, NodeId p, NodeId m) const {
    if (ctx.mode == AnalysisMode::kDcOperatingPoint || c_ <= 0.0) return;
    const double g = companion_g(ctx);
    s.conductance(p, m, g);
    // i = g*v + i_const; trapezoidal keeps the previous current term.
    double i_const = -g * v_prev_;
    if (ctx.integrator == Integrator::kTrapezoidal) i_const -= i_prev_;
    s.current(p, m, i_const);
  }

  /// Updates stored voltage/current after an accepted step.
  void accept(const SolutionView& sol, const StampContext& ctx, NodeId p,
              NodeId m) {
    const double v = sol.voltage(p) - sol.voltage(m);
    if (ctx.mode == AnalysisMode::kDcOperatingPoint) {
      v_prev_ = v;
      i_prev_ = 0.0;
      return;
    }
    if (c_ <= 0.0) return;
    const double g = companion_g(ctx);
    double i = g * (v - v_prev_);
    if (ctx.integrator == Integrator::kTrapezoidal) i -= i_prev_;
    v_prev_ = v;
    i_prev_ = i;
  }

  void stamp_ac(ComplexStamper& s, double omega, NodeId p, NodeId m) const;

 private:
  double companion_g(const StampContext& ctx) const {
    if (ctx.integrator == Integrator::kTrapezoidal) return 2.0 * c_ / ctx.dt;
    return c_ / ctx.dt;
  }

  double c_;
  double v_prev_ = 0.0;
  double i_prev_ = 0.0;
};

/// Linear resistor with thermal noise 4kT/R.
class Resistor final : public Element {
 public:
  Resistor(std::string name, NodeId p, NodeId m, double ohms,
           double temperature = kRoomTemperature);

  std::vector<Terminal> terminals() const override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  void stamp_ac(ComplexStamper& s, double omega) const override;
  void append_noise(std::vector<NoiseSource>& out) const override;
  double dissipated_power(const SolutionView& sol) const override;

  double resistance() const { return ohms_; }

 private:
  NodeId p_, m_;
  double ohms_;
  double temperature_;
};

/// Linear capacitor (companion model in transient, open at DC).
class Capacitor final : public Element {
 public:
  Capacitor(std::string name, NodeId p, NodeId m, double farads);

  std::vector<Terminal> terminals() const override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  void accept(const SolutionView& sol, const StampContext& ctx) override;
  void stamp_ac(ComplexStamper& s, double omega) const override;

  double capacitance() const { return cap_.capacitance(); }

 private:
  NodeId p_, m_;
  CompanionCap cap_;
};

/// Independent current source; positive current flows from node p
/// through the source into node m.
class CurrentSource final : public Element {
 public:
  CurrentSource(std::string name, NodeId p, NodeId m,
                std::unique_ptr<Waveform> wave);
  CurrentSource(std::string name, NodeId p, NodeId m, double dc_amps);

  std::vector<Terminal> terminals() const override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  void stamp_ac(ComplexStamper& s, double omega) const override;

  /// Magnitude of the small-signal excitation for AC analysis (default 0).
  void set_ac_magnitude(double mag) { ac_magnitude_ = mag; }

  /// Replaces the stimulus with a DC level (used by parameter sweeps).
  void set_level(double amps) { wave_ = std::make_unique<DcWave>(amps); }

  /// Replaces the stimulus waveform.
  void set_waveform(std::unique_ptr<Waveform> wave);

  /// The driving stimulus (never null).
  const Waveform& waveform() const { return *wave_; }
  double ac_magnitude() const { return ac_magnitude_; }

 private:
  NodeId p_, m_;
  std::unique_ptr<Waveform> wave_;
  double ac_magnitude_ = 0.0;
};

/// Independent voltage source (adds one branch-current unknown).
class VoltageSource final : public Element {
 public:
  VoltageSource(std::string name, NodeId p, NodeId m,
                std::unique_ptr<Waveform> wave);
  VoltageSource(std::string name, NodeId p, NodeId m, double dc_volts);

  std::vector<Terminal> terminals() const override;
  void setup(Circuit& c) override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  void stamp_ac(ComplexStamper& s, double omega) const override;
  double dissipated_power(const SolutionView& sol) const override;

  void set_ac_magnitude(double mag) { ac_magnitude_ = mag; }

  /// Replaces the stimulus with a DC level (used by parameter sweeps).
  void set_level(double volts) { wave_ = std::make_unique<DcWave>(volts); }

  /// Replaces the stimulus waveform.
  void set_waveform(std::unique_ptr<Waveform> wave);

  /// The driving stimulus (never null).
  const Waveform& waveform() const { return *wave_; }
  double ac_magnitude() const { return ac_magnitude_; }

  /// Branch index carrying this source's current (valid after setup()).
  int branch() const { return branch_; }

  std::vector<int> branches() const override { return {branch_}; }

 private:
  NodeId p_, m_;
  std::unique_ptr<Waveform> wave_;
  double ac_magnitude_ = 0.0;
  int branch_ = -1;
};

/// Voltage-controlled current source: i(out) = gm * (v(cp) - v(cm)).
class Vccs final : public Element {
 public:
  Vccs(std::string name, NodeId out_p, NodeId out_m, NodeId cp, NodeId cm,
       double gm);

  std::vector<Terminal> terminals() const override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  void stamp_ac(ComplexStamper& s, double omega) const override;

 private:
  NodeId out_p_, out_m_, cp_, cm_;
  double gm_;
};

/// Voltage-controlled voltage source: v(p) - v(m) = k * (v(cp) - v(cm)).
class Vcvs final : public Element {
 public:
  Vcvs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm, double k);

  std::vector<Terminal> terminals() const override;
  void setup(Circuit& c) override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  void stamp_ac(ComplexStamper& s, double omega) const override;
  std::vector<int> branches() const override { return {branch_}; }

 private:
  NodeId p_, m_, cp_, cm_;
  double k_;
  int branch_ = -1;
};

/// Current-controlled current source: i(out) = k * i(sensed branch).
/// The sensing element must be a voltage-defined branch (a
/// VoltageSource, often a 0 V ammeter).
class Cccs final : public Element {
 public:
  Cccs(std::string name, NodeId out_p, NodeId out_m,
       const VoltageSource& sense, double gain);

  std::vector<Terminal> terminals() const override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  void stamp_ac(ComplexStamper& s, double omega) const override;

 private:
  NodeId out_p_, out_m_;
  const VoltageSource* sense_;
  double gain_;
};

/// Current-controlled voltage source: v(p) - v(m) = k * i(sensed branch).
class Ccvs final : public Element {
 public:
  Ccvs(std::string name, NodeId p, NodeId m, const VoltageSource& sense,
       double transresistance);

  std::vector<Terminal> terminals() const override;
  void setup(Circuit& c) override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  void stamp_ac(ComplexStamper& s, double omega) const override;
  std::vector<int> branches() const override { return {branch_}; }

 private:
  NodeId p_, m_;
  const VoltageSource* sense_;
  double k_;
  int branch_ = -1;
};

/// Clock-controlled switch: a resistor of `r_on` when the control
/// waveform exceeds `threshold`, else `r_off`.  The idealized stand-in
/// for a MOS sampling switch when charge injection is not under study
/// (use a real Mosfet driven by a clock VoltageSource when it is).
class Switch final : public Element {
 public:
  Switch(std::string name, NodeId p, NodeId m, std::unique_ptr<Waveform> ctrl,
         double r_on = 1.0, double r_off = 1e12, double threshold = 0.5);

  std::vector<Terminal> terminals() const override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  /// Records the accepted time and mode; stamp_ac() evaluates the
  /// control there.
  void accept(const SolutionView& sol, const StampContext& ctx) override;
  /// Conductance at the last accepted time and mode; r_off before any
  /// accept.
  void stamp_ac(ComplexStamper& s, double omega) const override;

  /// True when the control exceeds the threshold: its dc_value() at the
  /// DC operating point, its value at `t` in transient.
  bool is_on(double t,
             AnalysisMode mode = AnalysisMode::kTransient) const;

  /// The controlling clock waveform (never null).
  const Waveform& control() const { return *ctrl_; }
  /// Control level above which the switch is closed (is_on).
  double threshold() const { return threshold_; }
  double r_on() const { return 1.0 / g_on_; }
  double r_off() const { return 1.0 / g_off_; }
  NodeId p() const { return p_; }
  NodeId m() const { return m_; }

 private:
  NodeId p_, m_;
  std::unique_ptr<Waveform> ctrl_;
  double g_on_, g_off_, threshold_;
  std::optional<StampContext> accepted_;
};

/// The bits of a PulseWave control's parameters and of the threshold it
/// is compared against.  Switches with equal keys are on and off
/// together at every time, in both analysis modes.
using PulseKey = std::array<std::uint64_t, 8>;

/// `sw`'s PulseKey; nullopt when its control is not a PulseWave.
std::optional<PulseKey> pulse_key(const Switch& sw);

}  // namespace si::spice
