// Level-1 (square-law) MOSFET with channel-length modulation, fixed gate
// capacitances, thermal and flicker noise.  This is the device model
// behind every transistor-level experiment: the class-AB memory cell
// (Fig. 1), the CMFF mirrors (Fig. 2), and the supply-voltage limits of
// Eqs. (1)-(2).
#pragma once

#include <array>
#include <string>

#include "spice/element.hpp"
#include "spice/elements.hpp"

namespace si::spice {

class Mosfet;

/// One MOSFET's positions in one MNA system, resolved once per pattern
/// (SPICE3's SMPmakeElt): the row of each terminal — drain, gate,
/// source, bulk; -1 for ground — and the value index of every (row, col)
/// among drain, gate and source, -1 where either is ground.  A value
/// index is the pattern slot when the system is sparse and r·n + c when
/// it is dense.
struct MosfetSlots {
  std::array<int, 4> row{};
  std::array<int, 9> slot{};  ///< (i, j) at 3·i + j, i, j in {d, g, s}

  /// Resolves `m` through `pattern`, or densely in an n × n matrix when
  /// `pattern` is null.  Throws linalg::PatternMissError, located, for a
  /// coordinate outside the pattern.
  static MosfetSlots resolve(const Mosfet& m,
                             const linalg::SparsePattern* pattern, int n);
};

/// The per-iteration writer of one bound MOSFET: RealStamper's helpers,
/// addressed by terminal index (0 drain, 1 gate, 2 source, 3 bulk)
/// instead of by node, adding straight into the iteration values through
/// the device's slots.  No memo, no representation branch.
/// Mosfet stamps both writers from one template, so both make the same
/// adds in the same order (DESIGN.md, "Stamp-partition contract").
class SlotStamper {
 public:
  SlotStamper(double* a, double* b, const double* x, const MosfetSlots& slots)
      : a_(a), b_(b), x_(x), slots_(&slots) {}

  double voltage(int t) const {
    const int r = slots_->row[static_cast<std::size_t>(t)];
    return r < 0 ? 0.0 : x_[r];
  }
  void conductance(int p, int m, double g) {
    add(p, p, g);
    add(m, m, g);
    add(p, m, -g);
    add(m, p, -g);
  }
  void transconductance(int out_p, int out_m, int cp, int cm, double g) {
    add(out_p, cp, g);
    add(out_p, cm, -g);
    add(out_m, cp, -g);
    add(out_m, cm, g);
  }
  void current(int p, int m, double i) {
    const int rp = slots_->row[static_cast<std::size_t>(p)];
    const int rm = slots_->row[static_cast<std::size_t>(m)];
    if (rp >= 0) b_[rp] -= i;
    if (rm >= 0) b_[rm] += i;
  }

 private:
  /// Skips exactly the adds RealStamper's ground guards skip.
  void add(int i, int j, double v) {
    const int k = slots_->slot[static_cast<std::size_t>(3 * i + j)];
    if (k >= 0) a_[k] += v;
  }

  double* a_;
  double* b_;
  const double* x_;
  const MosfetSlots* slots_;
};

enum class MosType { kNmos, kPmos };

/// Level-1 model parameters.  Defaults approximate a 0.8 um digital CMOS
/// process like the paper's (Vt ~ 0.8-1 V, KP tens of uA/V^2).
struct MosfetParams {
  double w = 10e-6;    ///< channel width [m]
  double l = 0.8e-6;   ///< channel length [m]
  double kp = 100e-6;  ///< transconductance parameter uCox [A/V^2]
  double vt0 = 0.8;    ///< threshold voltage magnitude [V]
  double lambda = 0.05;  ///< channel-length modulation [1/V]
  double gamma = 0.0;  ///< body-effect coefficient [V^0.5]; 0 disables
  double phi = 0.7;    ///< surface potential 2*phi_F [V]
  double cgs = 0.0;    ///< fixed gate-source capacitance [F]
  double cgd = 0.0;    ///< fixed gate-drain (overlap) capacitance [F]
  double noise_gamma = 2.0 / 3.0;  ///< thermal noise coefficient
  double kf = 0.0;     ///< flicker coefficient: Sid = kf * |Id| / f
  double temperature = kRoomTemperature;

  double beta() const { return kp * w / l; }
};

/// Operating region of the device at the last accepted solution.
enum class MosRegion { kCutoff, kTriode, kSaturation };

/// MOSFET with optional bulk terminal.  Without an explicit bulk the
/// device behaves source-tied (no body effect regardless of gamma);
/// with one, the threshold follows
///   Vt = Vt0 + gamma (sqrt(phi + Vsb) - sqrt(phi))
/// evaluated in the source-referenced primed frame.
class Mosfet final : public Element {
 public:
  Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
         NodeId source, MosfetParams params);

  /// Four-terminal variant with an explicit bulk node.
  Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
         NodeId source, NodeId bulk, MosfetParams params);

  std::vector<Terminal> terminals() const override;
  void stamp(RealStamper& s, const StampContext& ctx) override;
  /// The same stamp through a bound slot block: MnaEngine's
  /// per-iteration restamp.
  void stamp(SlotStamper& s, const StampContext& ctx) const;
  void accept(const SolutionView& sol, const StampContext& ctx) override;
  bool nonlinear() const override { return true; }
  void stamp_ac(ComplexStamper& s, double omega) const override;
  void append_noise(std::vector<NoiseSource>& out) const override;
  double dissipated_power(const SolutionView& sol) const override;

  MosType type() const { return type_; }
  const MosfetParams& params() const { return params_; }

  /// Replaces the model parameters in place (Monte-Carlo mismatch
  /// draws): values only — the device's nodes, and therefore the MNA
  /// sparsity pattern, are untouched, so no Circuit revision bump is
  /// needed.  Same validation as construction.
  void set_params(const MosfetParams& params);

  // Terminal nodes (for topology inspection).
  NodeId drain() const { return d_; }
  NodeId gate() const { return g_; }
  NodeId source() const { return s_; }
  bool has_bulk() const { return has_bulk_; }
  NodeId bulk() const { return b_; }

  // Operating-point values captured by the last accept().
  double id() const { return op_id_; }    ///< drain current, drain->source
  double gm() const { return op_gm_; }
  double gds() const { return op_gds_; }
  MosRegion region() const { return op_region_; }
  double vgs() const { return op_vgs_; }
  double vds() const { return op_vds_; }
  /// Saturation voltage |Vgs - Vt| at the operating point.
  double vdsat() const { return op_vov_; }

 private:
  struct Eval {
    double id = 0.0;   ///< primed-orientation current (>= 0)
    double gm = 0.0;
    double gds = 0.0;
    double vov = 0.0;
    MosRegion region = MosRegion::kCutoff;
    bool swapped = false;  ///< source acts as the drain (vd < vs, primed)
    double sign = 1.0;     ///< +1 NMOS, -1 PMOS
  };

  /// Evaluates the square-law equations at the given node voltages.
  Eval evaluate(double vd, double vg, double vs, double vb) const;

  /// The Newton companion and gate-capacitance stamp, written once for
  /// both writers: `d`, `g`, `s`, `b` are nodes for RealStamper and
  /// terminal indices for SlotStamper.
  template <typename Writer>
  void load(Writer& w, const StampContext& ctx, NodeId d, NodeId g, NodeId s,
            NodeId b) const;

  /// Effective threshold in the primed frame for source-bulk voltage.
  double threshold(double vsb_primed) const;

  MosType type_;
  NodeId d_, g_, s_;
  NodeId b_ = kGroundNode;
  bool has_bulk_ = false;
  MosfetParams params_;
  CompanionCap cgs_cap_;
  CompanionCap cgd_cap_;

  // Captured operating point.
  double op_id_ = 0.0;
  double op_gm_ = 0.0;
  double op_gds_ = 0.0;
  double op_vgs_ = 0.0;
  double op_vds_ = 0.0;
  double op_vov_ = 0.0;
  MosRegion op_region_ = MosRegion::kCutoff;
  NodeId op_d_eff_, op_s_eff_;
};

}  // namespace si::spice
