#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "erc/check.hpp"
#include "obs/telemetry.hpp"
#include "spice/deck.hpp"
#include "spice/elements.hpp"
#include "spice/parser.hpp"

namespace {

using namespace si::spice;

TEST(Deck, OpOnly) {
  auto r = run_deck(R"(
V1 in 0 DC 3.0
R1 in out 1k
R2 out 0 2k
.op
)");
  SolutionView sol(r.circuit, r.op.x);
  EXPECT_NEAR(sol.voltage(r.node("out")), 2.0, 1e-6);
  EXPECT_FALSE(r.tran.has_value());
  EXPECT_FALSE(r.ac.has_value());
  EXPECT_FALSE(r.noise.has_value());
}

TEST(Deck, TransientWithProbes) {
  auto r = run_deck(R"(
V1 in 0 PULSE(0 1 0 1n 1n 1.9m 2m)
R1 in out 1k
C1 out 0 1u
.tran 1u 3m
.probe v(out) i(v1)
)");
  ASSERT_TRUE(r.tran.has_value());
  const auto& v = r.tran->signal("v(out)");
  ASSERT_FALSE(v.empty());
  // tau = 1 ms: ~63% at 1 ms.
  const std::size_t k1ms = 1000;
  EXPECT_NEAR(v[k1ms], 1.0 - std::exp(-1.0), 5e-3);
  EXPECT_NO_THROW(r.tran->signal("i(v1)"));
}

TEST(Deck, AcSweepWithSourceMagnitude) {
  auto r = run_deck(R"(
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 159.155n
.ac dec 10 10 100k
)");
  ASSERT_TRUE(r.ac.has_value());
  // Find the bin nearest the 1 kHz corner: |H| ~ 0.707.
  const double f0 = 1.0 / (2.0 * std::numbers::pi * 1e3 * 159.155e-9);
  std::size_t best = 0;
  for (std::size_t k = 0; k < r.ac->freq.size(); ++k)
    if (std::abs(r.ac->freq[k] - f0) < std::abs(r.ac->freq[best] - f0))
      best = k;
  EXPECT_NEAR(std::abs(r.ac->voltage(r.circuit, best, r.node("out"))),
              1.0 / std::sqrt(2.0), 0.05);
}

TEST(Deck, NoiseAnalysis) {
  auto r = run_deck(R"(
R1 n1 0 10k
.noise v(n1) dec 5 1k 100k
)");
  ASSERT_TRUE(r.noise.has_value());
  const double expected = 4.0 * kBoltzmann * kRoomTemperature * 10e3;
  EXPECT_NEAR(r.noise->total_psd[0], expected, 1e-9 * expected);
}

TEST(Deck, CombinedAnalyses) {
  auto r = run_deck(R"(
V1 in 0 SIN(0 1 10k) AC 1
R1 in out 10k
C1 out 0 1n
.tran 1u 100u
.probe v(out)
.ac dec 5 100 1meg
.noise v(out) dec 5 100 1meg
)");
  EXPECT_TRUE(r.tran.has_value());
  EXPECT_TRUE(r.ac.has_value());
  EXPECT_TRUE(r.noise.has_value());
}

TEST(Deck, LintsOncePerRun) {
  // The DC op, the transient, the re-op before AC and the AC sweep all
  // run on one unchanged circuit, so ERC runs once per deck.
  si::obs::set_enabled(true);
  si::obs::Counter& erc_runs = si::obs::counter("erc.runs");
  si::obs::Counter& solves = si::obs::counter("mna.newton_solves");
  const std::uint64_t erc_before = erc_runs.value();
  auto r = run_deck(R"(
V1 in 0 SIN(0 1 10k) AC 1
R1 in out 10k
C1 out 0 1n
.tran 1u 100u
.probe v(out)
.ac dec 5 100 1meg
)");
  EXPECT_TRUE(r.tran.has_value());
  EXPECT_TRUE(r.ac.has_value());
  EXPECT_EQ(erc_runs.value(), erc_before + 1);
  const std::uint64_t solves_before = solves.value();
  // A deck that fails ERC still throws before any solve.
  EXPECT_THROW(run_deck(R"(
V1 in 0 DC 1
R1 in 0 1k
R2 isla islb 10k
R3 isla islb 22k
.tran 1u 10u
)"),
               si::erc::ErcError);
  EXPECT_EQ(solves.value(), solves_before);
  si::obs::set_enabled(false);
}

TEST(Deck, DirectiveErrors) {
  EXPECT_THROW(run_deck(".tran 1u"), ParseError);
  EXPECT_THROW(run_deck(".ac lin 5 1 10"), ParseError);
  EXPECT_THROW(run_deck(".noise i(v1) dec 5 1 10\nR1 a 0 1k"), ParseError);
  EXPECT_THROW(run_deck(".probe x(a)\nR1 a 0 1k"), ParseError);
  // parse_value's errors and values the analyses would reject are
  // ParseErrors at the directive's own line.
  for (const char* card :
       {".tran 1x 2u", ".tran 0 1u", ".tran 1n 0", ".ac dec 0 1k 10k",
        ".ac dec 2 10k 1k", ".ac dec 2 1q 10k", ".noise v(a) dec 2 0 10k",
        ".noise v(a) dec 2 1k 1z"}) {
    try {
      run_deck(std::string("V1 a 0 DC 1\nR1 a 0 1k\n") + card + "\n");
      FAIL() << card << " must not run";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3u) << card << ": " << e.what();
    }
  }
  // Directive names match as whole tokens: a card that only starts
  // like one is an unsupported directive at its own line, not a
  // malformed .op / .tran card.
  for (const char* card : {".options reltol=1e-3", ".opt", ".tranx 1u 10u"}) {
    try {
      run_deck(std::string("V1 a 0 DC 1\nR1 a 0 1k\n") + card + "\n");
      FAIL() << card << " must not parse";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3u) << card;
      const std::string text = card;
      const std::string name = text.substr(0, text.find(' '));
      EXPECT_NE(std::string(e.what()).find("unsupported directive '" + name +
                                           "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Deck, RunDeckHonoursErcDisableCards) {
  // The undriven R2/R3 island is an ERC error the deck disables; the
  // text entry point must gate the way erc::check_deck lints.
  const std::string deck =
      "* erc-disable spice.node-island spice.dangling-node\n"
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      "R2 x y 1k\n"
      "R3 y x 2k\n";
  EXPECT_TRUE(si::erc::check_deck(deck).sink.ok());
  EXPECT_NO_THROW(run_deck(deck));
  // Without the card the same gate still refuses it.
  EXPECT_THROW(run_deck(deck.substr(deck.find('\n') + 1)),
               si::erc::ErcError);
}

TEST(Deck, AcMagnitudeOnCurrentSource) {
  auto r = run_deck(R"(
I1 0 n1 DC 0 AC 1
R1 n1 0 2k
.ac dec 2 1k 10k
)");
  ASSERT_TRUE(r.ac.has_value());
  EXPECT_NEAR(std::abs(r.ac->voltage(r.circuit, 0, r.node("n1"))), 2e3,
              1.0);
}

}  // namespace
