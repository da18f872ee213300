// Tests for the simulation service: the JSON codec, the request
// protocol (validation, cache keys), and the JobServer lifecycle —
// admission control, deadlines, cancellation, draining shutdown, the
// shared result memo, and the one-reply-per-submit guarantee under
// deliberately hostile request streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "runtime/rng_stream.hpp"
#include "serve/job_server.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "spice/dc.hpp"
#include "spice/deck.hpp"
#include "spice/mosfet.hpp"
#include "spice/parser.hpp"

namespace {

using namespace si::serve;

// ---------------------------------------------------------------- json

TEST(Json, RoundTripsEscapesAndUnicode) {
  const std::string text =
      R"({"s":"a\"b\\c\n\t","e":"caf\u00e9","emoji":"\ud83d\ude00"})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.find("s")->as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(j.find("e")->as_string(), "caf\xc3\xa9");
  EXPECT_EQ(j.find("emoji")->as_string(), "\xf0\x9f\x98\x80");
  // dump -> parse is the identity on the decoded values.
  const Json again = Json::parse(j.dump());
  EXPECT_EQ(again.find("s")->as_string(), j.find("s")->as_string());
  EXPECT_EQ(again.find("emoji")->as_string(), j.find("emoji")->as_string());
}

TEST(Json, NumbersDumpAtFullPrecision) {
  EXPECT_EQ(Json(5.0).dump(), "5");
  EXPECT_EQ(Json(-42.0).dump(), "-42");
  const double v = 0.1234567890123456789;
  EXPECT_DOUBLE_EQ(Json::parse(Json(v).dump()).as_number(), v);

  // Reply bytes: every finite number prints exactly as printf's "%.0f"
  // (integral values below 2^53) or "%.17g" (everything else) does.
  const auto printf_form = [](double d) {
    char buf[64];
    if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15)
      std::snprintf(buf, sizeof buf, "%.0f", d);
    else
      std::snprintf(buf, sizeof buf, "%.17g", d);
    return std::string(buf);
  };
  const double two53 = 9007199254740992.0;
  std::vector<double> corpus = {0.0,
                                -0.0,
                                1e22,
                                -1e22,
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                1e-5,
                                1e16,
                                1e17,
                                0.1,
                                2.5,
                                -0.5};
  for (int k = -3; k <= 3; ++k) {
    corpus.push_back(two53 + 2 * k);
    corpus.push_back(-(two53 + 2 * k));
    corpus.push_back(std::nextafter(two53 + 2 * k, 0.0));
  }
  std::mt19937_64 rng(20);
  for (int k = 0; k < 50000; ++k) {
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) corpus.push_back(d);
    // Subnormals, and integers up to 2^54 around the integral cut-off.
    const std::uint64_t sub = bits & 0x800FFFFFFFFFFFFFull;
    std::memcpy(&d, &sub, sizeof d);
    corpus.push_back(d);
    corpus.push_back(static_cast<double>(bits >> 10) * ((bits & 1) ? -1 : 1));
  }
  std::size_t mismatches = 0;
  for (const double d : corpus) {
    const std::string got = Json(d).dump(), want = printf_form(d);
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "dump " << got << " != printf " << want;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << corpus.size() << " values";
}

TEST(Json, ParseErrorsCarryByteOffsets) {
  try {
    Json::parse("{\"a\":}");
    FAIL() << "must throw";
  } catch (const JsonError& e) {
    EXPECT_GE(e.offset(), 5u);
  }
  EXPECT_THROW(Json::parse("1 2"), JsonError);        // trailing bytes
  EXPECT_THROW(Json::parse("{\"a\":1"), JsonError);   // truncated
  EXPECT_THROW(Json::parse("\"\\ud83d\""), JsonError);  // lone surrogate
}

TEST(Json, DepthLimitStopsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(Json::parse(deep), JsonError);
  // Within the limit parses fine.
  std::string ok(10, '[');
  ok += std::string(10, ']');
  EXPECT_NO_THROW(Json::parse(ok));
}

// ------------------------------------------------------------ protocol

Json base_request(const std::string& deck) {
  Json r = Json::object();
  r.set("id", "t");
  r.set("deck", deck);
  return r;
}

TEST(Protocol, RejectsMissingDeckAndUnknownKeys) {
  Json no_deck = Json::object();
  no_deck.set("id", "x");
  try {
    parse_request(no_deck);
    FAIL() << "deck is required";
  } catch (const JobError& e) {
    EXPECT_EQ(e.kind(), "bad_request");
  }

  Json typo = base_request("Vdd a 0 DC 1\n");
  typo.set("tymeout_ms", 5.0);  // typo must not silently become a default
  try {
    parse_request(typo);
    FAIL() << "unknown key must be rejected";
  } catch (const JobError& e) {
    EXPECT_EQ(e.kind(), "bad_request");
    EXPECT_NE(std::string(e.what()).find("tymeout_ms"), std::string::npos);
  }

  Json bad_analysis = base_request("Vdd a 0 DC 1\n");
  bad_analysis.set("analysis", "transient");
  EXPECT_THROW(parse_request(bad_analysis), JobError);

  Json mc = base_request("Vdd a 0 DC 1\n");
  mc.set("analysis", "mc");  // mc_measure is required for mc
  EXPECT_THROW(parse_request(mc), JobError);
}

TEST(Protocol, CacheKeyCoversPhysicsNotPlumbing) {
  const std::string tran_deck = "Vdd a 0 DC 1\nR1 a 0 1k\n.tran 1n 10n\n";
  Json a = base_request(tran_deck);
  Json b = base_request(tran_deck);
  b.set("id", "other");
  b.set("timeout_ms", 250.0);
  b.set("want_telemetry", true);
  b.set("no_cache", true);
  // id / deadline / telemetry / cache-bypass do not change the physics.
  EXPECT_EQ(request_cache_key(parse_request(a)),
            request_cache_key(parse_request(b)));

  // "auto" on a .tran deck resolves to the same key as explicit "tran".
  Json c = base_request(tran_deck);
  c.set("analysis", "tran");
  EXPECT_EQ(request_cache_key(parse_request(a)),
            request_cache_key(parse_request(c)));

  // Deck text and Newton limits are physics.
  Json d = base_request(tran_deck + "* tweak\n");
  EXPECT_NE(request_cache_key(parse_request(a)),
            request_cache_key(parse_request(d)));
  Json e = base_request(tran_deck);
  e.set("max_newton_iterations", 7);
  EXPECT_NE(request_cache_key(parse_request(a)),
            request_cache_key(parse_request(e)));

  // A card that only starts like ".tran" is not one: "auto" resolves
  // to op.
  const std::string tranx_deck = "Vdd a 0 DC 1\nR1 a 0 1k\n.tranx 1n 10n\n";
  Json f = base_request(tranx_deck);
  Json g = base_request(tranx_deck);
  g.set("analysis", "op");
  EXPECT_EQ(request_cache_key(parse_request(f)),
            request_cache_key(parse_request(g)));
}

TEST(Protocol, DirectiveNamesMatchAsWholeTokens) {
  // A card that only starts like a directive is an unsupported
  // directive, reported by the ERC gate's parse at the card's line.
  for (const char* card : {".options reltol=1e-3", ".opt", ".tranx 1n 10n"}) {
    Json req = base_request(std::string("Vdd a 0 DC 1\nR1 a 0 1k\n") + card +
                            "\n");
    try {
      run_job(parse_request(req), nullptr);
      FAIL() << card << " must not run";
    } catch (const JobError& e) {
      EXPECT_EQ(e.kind(), "parse_error") << card;
      const std::string diags = e.diagnostics().dump();
      EXPECT_NE(diags.find("unsupported directive"), std::string::npos)
          << diags;
      EXPECT_NE(diags.find("\"line\":3"), std::string::npos) << diags;
    }
  }
}

TEST(Protocol, BadDirectiveValuesAreLocatedParseErrors) {
  // A malformed or non-positive .tran argument is a parse_error at the
  // card's line, never an "internal" reply without one.
  for (const char* card : {".tran 1x 2u", ".tran 0 1u", ".tran 1n -2u"}) {
    Json req = base_request(std::string("Vdd a 0 DC 1\nR1 a 0 1k\n") + card +
                            "\n");
    try {
      run_job(parse_request(req), nullptr);
      FAIL() << card << " must not run";
    } catch (const JobError& e) {
      EXPECT_EQ(e.kind(), "parse_error") << card;
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << card << ": " << e.what();
    }
  }
}

TEST(Protocol, TranJobRefusesSmallSignalCards) {
  // A tran reply carries the transient only: an .ac or .noise card is
  // refused at its line instead of being solved and dropped.
  for (const char* card : {".ac dec 2 1k 10k", ".noise v(a) dec 2 1k 10k"}) {
    Json req = base_request(std::string("Vdd a 0 DC 1\nR1 a 0 1k\n") +
                            ".tran 1u 4u\n" + card + "\n");
    req.set("analysis", "tran");
    try {
      run_job(parse_request(req), nullptr);
      FAIL() << card << " must be refused";
    } catch (const JobError& e) {
      EXPECT_EQ(e.kind(), "bad_request") << card;
      EXPECT_NE(std::string(e.what()).find("deck line 4"), std::string::npos)
          << card << ": " << e.what();
    }
  }
}

// ------------------------------------------------------------- serving

// The paper's clean class-AB memory cell, ERC-clean and cheap to solve.
const char* kCellCards = R"(.model nmem NMOS (KP=100u VTO=0.8 LAMBDA=0.02 CGS=0.15p)
.model pmem PMOS (KP=40u  VTO=0.8 LAMBDA=0.02 CGS=0.15p)
Vdd vdd 0 DC 3.3
MN  d gn 0   nmem W=10u L=2u
MP  d gp vdd pmem W=25u L=2u
SN  gn d PULSE(0 3.3 0 10n 10n 480n 1u) 1k 1g
SP  gp d PULSE(0 3.3 0 10n 10n 480n 1u) 1k 1g
Iin 0 d DC 8u
)";

std::string op_deck(int variant) {
  std::ostringstream ss;
  ss << kCellCards << "Ix 0 d DC " << (1 + variant % 7) << "u\n.op\n";
  return ss.str();
}

TEST(Protocol, McJobBuildsOnePatternPerJob) {
  // The memory cell plus a detached, grounded 30-node ladder: 35
  // unknowns, so every trial solves on the sparse representation.  The
  // job shares one engine across its trials, so it discovers the
  // pattern once rather than once per trial.
  std::ostringstream deck;
  deck << kCellCards;
  for (int k = 0; k < 30; ++k) deck << "Rpad" << k << " pad" << k << " 0 1k\n";
  deck << ".op\n";
  Json req = base_request(deck.str());
  req.set("analysis", "mc");
  req.set("mc_trials", 16);
  req.set("mc_seed", 7);
  req.set("mc_measure", "v(d)");

  si::obs::set_enabled(true);
  si::obs::Counter& builds = si::obs::counter("mna.pattern_builds");
  si::obs::Counter& dense = si::obs::counter("mna.dense_factors");
  const std::uint64_t builds_before = builds.value();
  const std::uint64_t dense_before = dense.value();
  const Json out = run_job(parse_request(req), nullptr);
  EXPECT_EQ(out.find("trials")->as_number(), 16.0);
  EXPECT_EQ(builds.value(), builds_before + 1);
  EXPECT_EQ(dense.value(), dense_before);
  si::obs::set_enabled(false);
}

TEST(Protocol, McTrialsReuseOneBaselineAndMatchFreshEngines) {
  // A draw moves MOSFET parameters only, so every trial of a served mc
  // job solves under the same baseline key: the job stamps the linear
  // part once, and each trial's sample matches a solve on a fresh
  // engine within 1e-9 V.
  const std::string deck = std::string(kCellCards) + ".op\n";
  Json req = base_request(deck);
  req.set("analysis", "mc");
  req.set("mc_trials", 8);
  req.set("mc_seed", 5);
  req.set("mc_measure", "v(d)");
  si::obs::set_enabled(true);
  si::obs::Counter& stamps = si::obs::counter("mna.baseline_stamps");
  si::obs::Counter& reuses = si::obs::counter("mna.baseline_reuses");
  const std::uint64_t stamps0 = stamps.value();
  const std::uint64_t reuses0 = reuses.value();
  const Json out = run_job(parse_request(req), nullptr);
  EXPECT_EQ(stamps.value() - stamps0, 1u);
  EXPECT_EQ(reuses.value() - reuses0, 7u);
  si::obs::set_enabled(false);

  // The same draws, one fresh engine per trial.
  namespace sp = si::spice;
  sp::Circuit c = sp::parse_netlist(sp::split_deck(deck).elements);
  std::vector<std::pair<sp::Mosfet*, sp::MosfetParams>> devices;
  for (const auto& e : c.elements())
    if (auto* m = dynamic_cast<sp::Mosfet*>(e.get()))
      devices.emplace_back(m, m->params());
  sp::DcOptions dopt;
  dopt.erc_gate = false;
  std::vector<double> samples;
  for (std::uint64_t k = 0; k < 8; ++k) {
    si::runtime::RngStream rng(si::runtime::trial_seed(5, k));
    for (const auto& [mos, nominal] : devices) {
      sp::MosfetParams p = nominal;
      p.kp = nominal.kp * std::max(0.1, 1.0 + 0.02 * rng.normal());
      p.vt0 = nominal.vt0 * (1.0 + 0.02 * rng.normal());
      mos->set_params(p);
    }
    const sp::DcResult r = sp::dc_operating_point(c, dopt);
    samples.push_back(sp::SolutionView(c, r.x).voltage(*c.find_node("d")));
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(out.find("min")->as_number(), samples.front(), 1e-9);
  EXPECT_NEAR(out.find("max")->as_number(), samples.back(), 1e-9);
  double mean = 0.0;
  for (double v : samples) mean += v / 8.0;
  EXPECT_NEAR(out.find("mean")->as_number(), mean, 1e-9);
}

TEST(Protocol, McMeasureNodeIsCaseInsensitive) {
  // The parser stores node names lower-cased; the measure node is
  // looked up the same way.
  std::string deck = kCellCards;
  for (std::size_t p = deck.find(" d "); p != std::string::npos;
       p = deck.find(" d ", p + 1))
    deck[p + 1] = 'D';
  Json req = base_request(deck);
  req.set("analysis", "mc");
  req.set("mc_trials", 4);
  req.set("mc_measure", "v(D)");
  const Json out = run_job(parse_request(req), nullptr);
  EXPECT_EQ(out.find("measure")->as_string(), "v(d)");
  EXPECT_EQ(out.find("trials")->as_number(), 4.0);
}

// A transient long enough to be mid-flight when a deadline or a cancel
// lands (tens of thousands of accepted steps on this cell).
std::string slow_tran_deck() {
  return std::string(kCellCards) + ".tran 5n 500u\n.probe v(d)\n";
}

std::string request_line(const std::string& id, const std::string& deck) {
  Json r = Json::object();
  r.set("id", id);
  r.set("deck", deck);
  return r.dump();
}

Json reply_of(std::future<std::string>& f) { return Json::parse(f.get()); }

std::string status_of(const Json& reply) {
  return reply.find("status") ? reply.find("status")->as_string() : "";
}

std::string error_kind(const Json& reply) {
  const Json* err = reply.find("error");
  return err && err->find("kind") ? err->find("kind")->as_string() : "";
}

// Polls until at least `n` jobs are running (deadline-bounded so a
// regression fails the test instead of hanging it).
bool wait_for_running(JobServer& s, std::size_t n) {
  for (int k = 0; k < 2000; ++k) {
    if (s.stats().running >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(JobServer, HealthyOpJobRoundTrips) {
  JobServer server;
  auto f = server.submit(request_line("op-1", op_deck(0)));
  const Json reply = reply_of(f);
  EXPECT_EQ(reply.find("id")->as_string(), "op-1");
  EXPECT_EQ(status_of(reply), "ok");
  EXPECT_FALSE(reply.find("cached")->as_bool());
  ASSERT_NE(reply.find("result"), nullptr);
  const Json* volts = reply.find("result")->find("node_voltages");
  ASSERT_NE(volts, nullptr);
  EXPECT_NE(volts->find("d"), nullptr);
  EXPECT_GE(reply.find("elapsed_ms")->as_number(), 0.0);
}

TEST(JobServer, EveryFailureModeGetsAStructuredReplyAndWorkersSurvive) {
  JobServer::Options opt;
  opt.workers = 2;
  JobServer server(opt);

  auto bad_json = server.submit("{not json");
  auto bad_req = server.submit("{\"deck\":\"Vdd a 0 DC 1\\n\",\"bogus\":1}");
  auto bad_deck = server.submit(request_line("p", "Mbroken 1 2\n.op\n"));
  // No ground node anywhere: the ERC gate must refuse to simulate.
  auto erc_fail = server.submit(request_line("e", "R1 a b 1k\n.op\n"));
  // Two grounded sources forcing different voltages on one node: parses
  // and passes ERC, but the MNA system is singular at solve time.
  auto singular = server.submit(
      request_line("s", "V1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n.op\n"));
  // Healthy jobs interleaved with the poison must still complete.
  auto good1 = server.submit(request_line("g1", op_deck(1)));
  auto good2 = server.submit(request_line("g2", op_deck(2)));

  const Json r_json = reply_of(bad_json);
  EXPECT_EQ(status_of(r_json), "error");
  EXPECT_EQ(error_kind(r_json), "bad_json");

  const Json r_req = reply_of(bad_req);
  EXPECT_EQ(status_of(r_req), "error");
  EXPECT_EQ(error_kind(r_req), "bad_request");

  const Json r_deck = reply_of(bad_deck);
  EXPECT_EQ(r_deck.find("id")->as_string(), "p");
  EXPECT_EQ(status_of(r_deck), "error");
  EXPECT_EQ(error_kind(r_deck), "parse_error");

  const Json r_erc = reply_of(erc_fail);
  EXPECT_EQ(status_of(r_erc), "error");
  EXPECT_EQ(error_kind(r_erc), "erc_failed");
  // The ERC diagnostics ride along as structured JSON, not prose.
  const Json* err = r_erc.find("error");
  ASSERT_NE(err, nullptr);
  ASSERT_NE(err->find("diagnostics"), nullptr);
  EXPECT_NE(err->dump().find("no-ground"), std::string::npos);

  const Json r_sing = reply_of(singular);
  EXPECT_EQ(r_sing.find("id")->as_string(), "s");
  EXPECT_EQ(status_of(r_sing), "error");

  EXPECT_EQ(status_of(reply_of(good1)), "ok");
  EXPECT_EQ(status_of(reply_of(good2)), "ok");

  const auto st = server.stats();
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.failed, 5u);  // bad_json/bad_req/bad_deck/erc/singular
}

TEST(JobServer, AdmissionControlRejectsBeyondQueueCapacity) {
  JobServer::Options opt;
  opt.workers = 1;
  opt.queue_capacity = 1;
  JobServer server(opt);

  auto running = server.submit(request_line("busy", slow_tran_deck()));
  ASSERT_TRUE(wait_for_running(server, 1));
  auto queued = server.submit(request_line("queued", op_deck(0)));
  auto bounced = server.submit(request_line("bounced", op_deck(1)));

  const Json r = reply_of(bounced);
  EXPECT_EQ(r.find("id")->as_string(), "bounced");
  EXPECT_EQ(status_of(r), "rejected");
  EXPECT_GE(server.stats().rejected, 1u);

  // Free the worker; the queued job must still complete normally.
  EXPECT_TRUE(server.cancel("busy"));
  EXPECT_EQ(status_of(reply_of(running)), "cancelled");
  EXPECT_EQ(status_of(reply_of(queued)), "ok");
}

TEST(JobServer, DeadlineExpiresMidTransient) {
  JobServer server;
  Json req = Json::object();
  req.set("id", "late");
  req.set("deck", slow_tran_deck());
  req.set("timeout_ms", 50.0);
  const auto t0 = std::chrono::steady_clock::now();
  auto f = server.submit(req.dump());
  const Json reply = reply_of(f);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  EXPECT_EQ(status_of(reply), "timeout");
  EXPECT_EQ(error_kind(reply), "timeout");
  // The Newton checkpoint fires every iteration, so the unwind is far
  // faster than finishing the 100k-step transient would be.
  EXPECT_LT(waited_ms, 10000.0);
  EXPECT_EQ(server.stats().timed_out, 1u);
}

TEST(JobServer, CancelUnwindsARunningJob) {
  JobServer server;
  auto f = server.submit(request_line("victim", slow_tran_deck()));
  ASSERT_TRUE(wait_for_running(server, 1));
  EXPECT_TRUE(server.cancel("victim"));
  const Json reply = reply_of(f);
  EXPECT_EQ(status_of(reply), "cancelled");
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_FALSE(server.cancel("victim"));  // nothing left under that id
}

TEST(JobServer, GracefulShutdownDrainsTheQueue) {
  JobServer::Options opt;
  opt.workers = 2;
  JobServer server(opt);
  std::vector<std::future<std::string>> futures;
  for (int k = 0; k < 8; ++k)
    futures.push_back(
        server.submit(request_line("d-" + std::to_string(k), op_deck(k))));
  server.shutdown(/*drain=*/true);
  for (auto& f : futures) EXPECT_EQ(status_of(reply_of(f)), "ok");
  EXPECT_EQ(server.stats().completed, 8u);

  // Post-shutdown submits must still resolve, as rejections.
  auto late = server.submit(request_line("late", op_deck(0)));
  EXPECT_EQ(status_of(reply_of(late)), "rejected");
}

TEST(JobServer, AbortShutdownCancelsQueuedAndRunningJobs) {
  JobServer::Options opt;
  opt.workers = 1;
  opt.queue_capacity = 16;
  JobServer server(opt);
  auto running = server.submit(request_line("run", slow_tran_deck()));
  ASSERT_TRUE(wait_for_running(server, 1));
  auto queued = server.submit(request_line("wait", op_deck(0)));
  server.shutdown(/*drain=*/false);
  EXPECT_EQ(status_of(reply_of(running)), "cancelled");
  EXPECT_EQ(status_of(reply_of(queued)), "cancelled");
}

TEST(JobServer, CacheHitsSkipResimulationAndHonourNoCache) {
  JobServer server;
  auto first = server.submit(request_line("a", op_deck(3)));
  const Json r1 = reply_of(first);
  ASSERT_EQ(status_of(r1), "ok");
  EXPECT_FALSE(r1.find("cached")->as_bool());

  // Same physics under a different id: a hit, identical payload.
  auto second = server.submit(request_line("b", op_deck(3)));
  const Json r2 = reply_of(second);
  EXPECT_EQ(status_of(r2), "ok");
  EXPECT_TRUE(r2.find("cached")->as_bool());
  EXPECT_EQ(r1.find("result")->dump(), r2.find("result")->dump());
  EXPECT_EQ(server.stats().cache_hits, 1u);

  // Explicit "op" resolves to the same key as the implicit default.
  Json explicit_op = Json::object();
  explicit_op.set("id", "c");
  explicit_op.set("deck", op_deck(3));
  explicit_op.set("analysis", "op");
  auto third = server.submit(explicit_op.dump());
  EXPECT_TRUE(reply_of(third).find("cached")->as_bool());

  // no_cache forces a fresh solve even when the memo is warm.
  Json bypass = Json::object();
  bypass.set("id", "d");
  bypass.set("deck", op_deck(3));
  bypass.set("no_cache", true);
  auto fourth = server.submit(bypass.dump());
  const Json r4 = reply_of(fourth);
  EXPECT_EQ(status_of(r4), "ok");
  EXPECT_FALSE(r4.find("cached")->as_bool());
  EXPECT_EQ(server.stats().cache_hits, 2u);
}

// One op, tran and mc request on each of the repo's example decks,
// as the daemon serves them.
std::vector<Json> example_deck_requests() {
  struct Spec {
    const char* file;
    const char* measure;
  };
  const Spec specs[] = {{"memory_cell_ok.sp", "v(d)"},
                        {"table1_delay_line.sp", "v(d2)"},
                        {"table2_modulator.sp", "v(d2)"}};
  std::vector<Json> out;
  for (const Spec& spec : specs) {
    std::ifstream in(std::string(SI_DECKS_DIR) + "/" + spec.file);
    std::stringstream text;
    text << in.rdbuf();
    std::string deck = text.str();
    EXPECT_FALSE(deck.empty()) << spec.file;
    for (const char* analysis : {"op", "tran", "mc"}) {
      Json req = Json::object();
      req.set("id", std::string(spec.file) + "/" + analysis);
      req.set("analysis", analysis);
      if (std::string(analysis) == "tran") {
        std::string tran = deck;
        tran.insert(tran.find(".end"), ".tran 10n 2u\n");
        req.set("deck", tran);
      } else {
        req.set("deck", deck);
      }
      if (std::string(analysis) == "mc") {
        req.set("mc_trials", 8);
        req.set("mc_measure", spec.measure);
      }
      out.push_back(std::move(req));
    }
  }
  return out;
}

/// The raw text of a reply's "result" member (the envelope writes
/// "status" next).
std::string raw_result(const std::string& reply) {
  const std::string key = "\"result\":";
  const auto b = reply.find(key);
  const auto e = reply.rfind(",\"status\":");
  if (b == std::string::npos || e == std::string::npos || e < b) return "";
  return reply.substr(b + key.size(), e - b - key.size());
}

TEST(JobServer, CacheHitRepliesWithTheMissPayloadBytes) {
  JobServer server;
  for (const Json& req : example_deck_requests()) {
    const std::string miss = server.submit(req.dump()).get();
    const std::string hit = server.submit(req.dump()).get();
    const Json m = Json::parse(miss), h = Json::parse(hit);
    ASSERT_EQ(status_of(m), "ok") << miss;
    EXPECT_FALSE(m.find("cached")->as_bool());
    EXPECT_TRUE(h.find("cached")->as_bool());
    EXPECT_FALSE(raw_result(miss).empty());
    EXPECT_EQ(raw_result(miss), raw_result(hit));
    // The envelope is canonical JSON: its bytes are what dumping the
    // parsed reply gives, sorted keys and number forms included.
    EXPECT_EQ(m.dump(), miss);
    EXPECT_EQ(h.dump(), hit);
  }
}

TEST(JobServer, TelemetryReplyKeepsSortedKeysAroundTheResult) {
  JobServer server;
  Json req = Json::object();
  req.set("id", "tel");
  req.set("deck", op_deck(4));
  req.set("want_telemetry", true);
  for (int pass = 0; pass < 2; ++pass) {  // a miss, then a hit
    const std::string reply = server.submit(req.dump()).get();
    const Json r = Json::parse(reply);
    EXPECT_EQ(status_of(r), "ok");
    EXPECT_EQ(r.find("cached")->as_bool(), pass == 1);
    ASSERT_NE(r.find("telemetry"), nullptr);
    EXPECT_TRUE(r.find("telemetry")->is_object());
    EXPECT_EQ(r.dump(), reply);
  }
}

TEST(JobServer, EachServedJobParsesAndLintsItsDeckOnce) {
  si::obs::set_enabled(true);
  si::obs::Counter& parses = si::obs::counter("spice.parses");
  si::obs::Counter& lints = si::obs::counter("erc.runs");
  JobServer::Options opt;
  opt.workers = 1;
  opt.enable_cache = false;
  JobServer server(opt);
  for (const Json& req : example_deck_requests()) {
    const std::uint64_t parses_before = parses.value();
    const std::uint64_t lints_before = lints.value();
    auto f = server.submit(req.dump());
    const Json reply = reply_of(f);
    EXPECT_EQ(status_of(reply), "ok") << reply.dump();
    const std::string id = req.find("id")->as_string();
    EXPECT_EQ(parses.value() - parses_before, 1u) << id;
    EXPECT_EQ(lints.value() - lints_before, 1u) << id;
  }
  si::obs::set_enabled(false);
}

TEST(JobServer, SixtyFourConcurrentMixedJobsNoLostNoDuplicated) {
  JobServer::Options opt;
  opt.workers = 8;
  opt.queue_capacity = 80;
  JobServer server(opt);

  const int kJobs = 64;
  std::vector<std::future<std::string>> futures;
  for (int k = 0; k < kJobs; ++k) {
    const std::string id = "mix-" + std::to_string(k);
    Json req = Json::object();
    req.set("id", id);
    switch (k % 3) {
      case 0:
        req.set("deck", op_deck(k));
        break;
      case 1:
        req.set("deck", std::string(kCellCards) + "Ix 0 d DC " +
                            std::to_string(1 + k % 7) +
                            "u\n.tran 5n 300n\n.probe v(d)\n");
        break;
      default:
        req.set("deck", op_deck(k));
        req.set("analysis", "mc");
        req.set("mc_trials", 8);
        req.set("mc_seed", 1 + k);
        req.set("mc_measure", "v(d)");
    }
    futures.push_back(server.submit(req.dump()));
  }

  std::vector<int> seen(kJobs, 0);
  for (int k = 0; k < kJobs; ++k) {
    const Json reply = reply_of(futures[static_cast<std::size_t>(k)]);
    EXPECT_EQ(status_of(reply), "ok") << reply.dump();
    const std::string id = reply.find("id")->as_string();
    ASSERT_EQ(id.rfind("mix-", 0), 0u);
    ++seen[std::stoi(id.substr(4))];
  }
  for (int k = 0; k < kJobs; ++k)
    EXPECT_EQ(seen[static_cast<std::size_t>(k)], 1) << "id mix-" << k;
  EXPECT_EQ(server.stats().completed, static_cast<std::uint64_t>(kJobs));
}

TEST(JobServer, StatsJsonExposesCountersAndCache) {
  JobServer server;
  auto f = server.submit(request_line("x", op_deck(5)));
  reply_of(f);
  const Json stats = Json::parse(server.stats_json());
  for (const char* key : {"accepted", "rejected", "completed", "failed",
                          "cancelled", "timed_out", "cache_hits",
                          "queue_depth", "running", "workers", "cache"})
    EXPECT_NE(stats.find(key), nullptr) << key;
  EXPECT_EQ(stats.find("accepted")->as_number(), 1.0);
  EXPECT_EQ(stats.find("completed")->as_number(), 1.0);
  const Json* cache = stats.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->find("hits"), nullptr);
  EXPECT_NE(cache->find("capacity"), nullptr);
}

}  // namespace
