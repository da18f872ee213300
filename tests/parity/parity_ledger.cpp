// parity_ledger: "bit for bit" as a test.
//
// Runs the transistor-level paper workloads and hashes what they
// produce with 64-bit FNV-1a: `t` and the full solution vector at every
// transient on_step, the AC solutions, and the sorted Monte-Carlo
// samples.  The running hash of a transient is also stored every 1000
// steps, so a failure names the case and the first checkpoint that
// moved.  The hashes are compared with tests/parity/expected.txt, which
// records, per compiler, the case, the checkpoint and the hash.
//
//   parity_ledger            compare with the committed file
//   parity_ledger --write    regenerate this compiler's lines of it
//
// A change that is meant to move results regenerates the file and lists
// in CHANGES.md which cases moved and why; any other change must leave
// it byte-identical.  Exit status: 0 when every case matches, 1 when a
// case moved or has no recorded hashes, 2 on a usage error, 77 (which
// ctest reports as skipped) when the file records nothing for this
// compiler: the hashes follow the compiler's floating-point code and
// the C library's maths, so another toolchain is not compared.
//
// Every case runs in the sanitizer builds too, where the hashes are the
// same: on an x86-64 host with GCC 12.2 the whole ledger took 0.4 s in
// the plain build, 2.6 s under ASan+UBSan and 7.6 s under TSan.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/mc_batch.hpp"
#include "runtime/parallel.hpp"
#include "si/netlists.hpp"
#include "spice/ac.hpp"
#include "spice/elements.hpp"
#include "spice/transient.hpp"

#ifndef SI_PARITY_EXPECTED
#error "SI_PARITY_EXPECTED must name tests/parity/expected.txt"
#endif

namespace {

using namespace si;
namespace nets = si::cells::netlists;

constexpr int kStepsPerPeriod = 200;
constexpr std::size_t kCheckpointEvery = 1000;
constexpr int kSkipExit = 77;

/// 64-bit FNV-1a over the bytes of the values added.
class Fnv1a {
 public:
  void add(double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// One case's hashes, in order: (checkpoint label, hash).
using Checkpoints = std::vector<std::pair<std::string, std::uint64_t>>;

/// Hashes t and the full solution at every on_step; keeps the running
/// hash every kCheckpointEvery calls and at the end.
class StepHasher {
 public:
  std::function<void(double, const spice::SolutionView&)> callback() {
    return [this](double t, const spice::SolutionView& sol) {
      h_.add(t);
      for (double v : sol.raw()) h_.add(v);
      if (++calls_ % kCheckpointEvery == 0)
        out_.emplace_back(std::to_string(calls_), h_.value());
    };
  }
  Checkpoints finish(const std::string& label = "end") {
    out_.emplace_back(label + "@" + std::to_string(calls_), h_.value());
    return out_;
  }

 private:
  Fnv1a h_;
  std::size_t calls_ = 0;
  Checkpoints out_;
};

/// The Table 2 modulator core, Vdd 3.3 V, driven differentially by a
/// sine at f_clk / 8 or held at +-1 uA.
struct Core {
  spice::Circuit c;
  double period = 0.0;
};

void build_core(Core& core, int sections, bool hold) {
  spice::Circuit& c = core.c;
  c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  core.period = opt.stage.pair.clock_period;
  if (hold) {
    c.add<spice::CurrentSource>("Iinp", c.ground(), h.in_p, 1e-6);
    c.add<spice::CurrentSource>("Iinm", c.ground(), h.in_m, -1e-6);
    return;
  }
  const double f = 1.0 / (8.0 * core.period);
  c.add<spice::CurrentSource>(
      "Iinp", c.ground(), h.in_p,
      std::make_unique<spice::SineWave>(0.0, 4e-6, f));
  c.add<spice::CurrentSource>(
      "Iinm", c.ground(), h.in_m,
      std::make_unique<spice::SineWave>(0.0, -4e-6, f));
}

Checkpoints core_sine(int sections, double periods) {
  Core core;
  build_core(core, sections, /*hold=*/false);
  spice::TransientOptions topt;
  topt.t_stop = periods * core.period;
  topt.dt = core.period / kStepsPerPeriod;
  topt.erc_gate = false;
  spice::Transient tr(core.c, topt);
  StepHasher h;
  tr.run(h.callback());
  return h.finish();
}

/// The DC hold on the event engine at the latency-exploitation
/// tolerance: most steps are skipped, and the hash covers the held
/// values of the skipped steps too.
Checkpoints event_hold(int sections, double periods) {
  Core core;
  build_core(core, sections, /*hold=*/true);
  spice::TransientOptions topt;
  topt.t_stop = periods * core.period;
  topt.dt = core.period / kStepsPerPeriod;
  topt.erc_gate = false;
  topt.engine = spice::TransientEngine::kEvent;
  topt.event_quiescent_tol = 1e-6;
  spice::Transient tr(core.c, topt);
  StepHasher h;
  tr.run(h.callback());
  return h.finish();
}

/// The Table 1 delay-line chain from preset node voltages instead of a
/// DC operating point, with a Vdd current probe and a partial final
/// step (t_stop = 3.3025 clock periods), then an AC sweep around the
/// state the transient left.
Checkpoints table1_chain(int stages) {
  spice::Circuit c;
  c.add<spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::DelayStageOptions opt;
  const auto h = nets::build_delay_line_chain(c, stages, opt, "dl_");
  const double T = opt.pair.clock_period;
  auto& iin = c.add<spice::CurrentSource>(
      "Iin", c.ground(), h.in,
      std::make_unique<spice::SineWave>(1e-6, 5e-6, 1.0 / (8.0 * T)));
  spice::TransientOptions topt;
  topt.t_stop = 3.3025 * T;
  topt.dt = T / kStepsPerPeriod;
  topt.erc_gate = false;
  spice::Transient tr(c, topt);
  tr.set_initial_voltage("vdd", 3.3);
  tr.set_initial_voltage(c.node_name(h.in), 1.5);
  tr.set_initial_voltage(c.node_name(h.out), 1.5);
  tr.probe_voltage(c.node_name(h.out));
  tr.probe_current("Vdd");
  StepHasher hs;
  const spice::TransientResult res = tr.run(hs.callback());
  Checkpoints out = hs.finish("tran");

  Fnv1a probes;
  for (double v : res.time) probes.add(v);
  for (const auto& [name, samples] : res.signals)
    for (double v : samples) probes.add(v);
  out.emplace_back("probes", probes.value());

  iin.set_ac_magnitude(1e-6);
  spice::AcOptions aopt;
  aopt.erc_gate = false;
  const spice::AcResult ac =
      spice::ac_analysis(c, spice::log_space(1e3, 1e9, 4), aopt);
  Fnv1a ha;
  for (const auto& sol : ac.solutions)
    for (const auto& v : sol) {
      ha.add(v.real());
      ha.add(v.imag());
    }
  out.emplace_back("ac@" + std::to_string(ac.solutions.size()), ha.value());
  return out;
}

/// monte_carlo_dc on the delay-line mismatch workload at `threads`
/// runtime threads: the sorted samples, then mean and sigma.
Checkpoints mc_delay_line(int stages, int trials, unsigned threads) {
  runtime::set_thread_count(threads);
  analysis::McOptions opts;
  opts.seed0 = 7;
  const auto st = analysis::monte_carlo_dc(
      trials, analysis::delay_line_mismatch_workload(stages), opts);
  runtime::set_thread_count(0);
  Fnv1a h;
  for (double v : st.samples) h.add(v);
  h.add(st.mean);
  h.add(st.sigma);
  return {{"samples@" + std::to_string(st.samples.size()), h.value()}};
}

struct Case {
  const char* name;
  std::function<Checkpoints()> run;
};

std::vector<Case> cases() {
  return {
      {"core_sine_1", [] { return core_sine(1, 10.0); }},
      {"core_sine_8", [] { return core_sine(8, 20.0); }},
      {"core_sine_64", [] { return core_sine(64, 2.0); }},
      {"event_hold_8", [] { return event_hold(8, 200.0); }},
      {"table1_chain_3", [] { return table1_chain(3); }},
      {"mc_delay_line_32_t1", [] { return mc_delay_line(32, 256, 1); }},
      {"mc_delay_line_32_t2", [] { return mc_delay_line(32, 256, 2); }},
      {"mc_delay_line_32_t8", [] { return mc_delay_line(32, 256, 8); }},
  };
}

/// The toolchain the hashes belong to: compiler, version and target
/// architecture, with no spaces.
std::string compiler_id() {
#if defined(__clang__)
  std::string id = "clang-" __clang_version__;
#elif defined(__GNUC__)
  std::string id = "gcc-" __VERSION__;
#else
  std::string id = "unknown-compiler";
#endif
#if defined(__x86_64__)
  id += "-x86_64";
#elif defined(__aarch64__)
  id += "-aarch64";
#endif
  for (char& ch : id)
    if (ch == ' ') ch = '-';
  return id;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One data line of the expected file.
struct Line {
  std::string compiler, case_name, checkpoint, hash;
};

std::vector<Line> read_expected(const char* path) {
  std::vector<Line> out;
  std::ifstream in(path);
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty() || text[0] == '#') continue;
    std::istringstream fields(text);
    Line l;
    if (fields >> l.compiler >> l.case_name >> l.checkpoint >> l.hash)
      out.push_back(l);
  }
  return out;
}

const char* const kHeader =
    "# Parity ledger: 64-bit FNV-1a hashes of simulated results, checked by\n"
    "# the parity_ledger test (tests/parity/parity_ledger.cpp).  Regenerate\n"
    "# with `parity_ledger --write` only in a change meant to move results,\n"
    "# and list the moved cases in CHANGES.md.\n"
    "# compiler case checkpoint hash\n";

}  // namespace

int main(int argc, char** argv) {
  bool write = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write") == 0) {
      write = true;
    } else {
      std::fprintf(stderr, "usage: parity_ledger [--write]\n");
      return 2;
    }
  }
  const std::string compiler = compiler_id();
  const std::vector<Line> expected = read_expected(SI_PARITY_EXPECTED);
  std::map<std::string, Checkpoints> recorded;
  for (const Line& l : expected)
    if (l.compiler == compiler)
      recorded[l.case_name].emplace_back(
          l.checkpoint, std::stoull(l.hash, nullptr, 16));
  if (!write && recorded.empty()) {
    std::printf("SKIPPED: %s records no hashes for %s\n", SI_PARITY_EXPECTED,
                compiler.c_str());
    return kSkipExit;
  }

  std::vector<Line> lines;
  int failures = 0;
  for (const Case& k : cases()) {
    const auto t0 = std::chrono::steady_clock::now();
    const Checkpoints got = k.run();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    for (const auto& [label, hash] : got)
      lines.push_back({compiler, k.name, label, hex(hash)});
    if (write) {
      std::printf("%-22s %8.1f ms  %s\n", k.name, ms,
                  hex(got.back().second).c_str());
      continue;
    }
    const auto it = recorded.find(k.name);
    std::string verdict = "ok";
    if (it == recorded.end()) {
      verdict = "FAIL: no expected hashes (run parity_ledger --write)";
    } else {
      const Checkpoints& want = it->second;
      for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
        if (i < want.size() && i < got.size() && want[i] == got[i]) continue;
        verdict = "FAIL: first moved checkpoint " +
                  (i < want.size() ? want[i].first : got[i].first) +
                  ": expected " +
                  (i < want.size() ? hex(want[i].second) : "(none)") +
                  ", got " + (i < got.size() ? hex(got[i].second) : "(none)");
        break;
      }
    }
    if (verdict != "ok") ++failures;
    std::printf("%-22s %8.1f ms  %s\n", k.name, ms, verdict.c_str());
  }

  if (write) {
    std::ofstream out(SI_PARITY_EXPECTED, std::ios::trunc);
    out << kHeader;
    for (const Line& l : expected)  // other compilers' lines stay
      if (l.compiler != compiler)
        out << l.compiler << ' ' << l.case_name << ' ' << l.checkpoint << ' '
            << l.hash << '\n';
    for (const Line& l : lines)
      out << l.compiler << ' ' << l.case_name << ' ' << l.checkpoint << ' '
          << l.hash << '\n';
    std::printf("wrote %zu hashes for %s to %s\n", lines.size(),
                compiler.c_str(), SI_PARITY_EXPECTED);
    return out ? 0 : 1;
  }
  if (failures) {
    std::printf("parity ledger: %d case(s) moved under %s\n", failures,
                compiler.c_str());
    return 1;
  }
  std::printf("parity ledger: every case matches under %s\n",
              compiler.c_str());
  return 0;
}
