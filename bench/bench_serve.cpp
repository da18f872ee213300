// Load harness for the simulation service: floods an in-process
// JobServer (8 workers by default) with a mixed stream of op / tran /
// mc jobs, all in flight concurrently, and gates on the service
// invariants before reporting throughput:
//   - zero lost replies      (every submitted id answered exactly once)
//   - zero duplicated replies
//   - zero failed / rejected jobs on the healthy deck set
//   - a warmed cache actually serves hits without re-simulation
//
//   bench_serve [--jobs=N] [--workers=N] [--merge=BENCH_solvers.json]
//
// --merge rewrites the given benchmark JSON with a "serve_bench"
// section (parse -> mutate -> dump through serve::Json, leaving every
// other section bit-identical) for the CI schema gate.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "host_stamp.hpp"
#include "serve/job_server.hpp"

namespace {

using si::serve::Json;

// The paper's clean class-AB memory cell (examples/decks/memory_cell_ok
// inlined so the harness runs from any directory).
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
  // Distinct bias per variant defeats the result cache: every job is a
  // real solve unless the harness asks for repeats.
  std::ostringstream ss;
  ss << kCellCards << "Ix 0 d DC " << (1 + variant % 7) << "u\n.op\n";
  return ss.str();
}

std::string tran_deck(int variant) {
  std::ostringstream ss;
  ss << kCellCards << "Ix 0 d DC " << (1 + variant % 7) << "u\n"
     << ".tran 5n 300n\n.probe v(d)\n";
  return ss.str();
}

Json mc_request(const std::string& id, int variant) {
  Json req = Json::object();
  req.set("id", id);
  req.set("deck", op_deck(variant));
  req.set("analysis", "mc");
  req.set("mc_trials", 16);
  req.set("mc_sigma", 0.02);
  req.set("mc_seed", 1 + variant);
  req.set("mc_measure", "v(d)");
  return req;
}

struct Reply {
  std::string id;
  std::string status;
  bool cached = false;
};

Reply parse_reply(const std::string& line) {
  Reply r;
  const Json j = Json::parse(line);
  r.id = j.find("id") ? j.find("id")->as_string() : "";
  r.status = j.find("status") ? j.find("status")->as_string() : "";
  r.cached = j.find("cached") && j.find("cached")->as_bool();
  return r;
}

int fail(const char* why) {
  std::fprintf(stderr, "bench_serve: FAIL: %s\n", why);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  long jobs = 96, workers = 8;
  std::string merge_path;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--jobs=", 7) == 0) {
      jobs = std::strtol(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--workers=", 10) == 0) {
      workers = std::strtol(a + 10, nullptr, 10);
    } else if (std::strncmp(a, "--merge=", 8) == 0) {
      merge_path = a + 8;
    } else {
      std::fprintf(stderr, "bench_serve: unknown flag '%s'\n", a);
      return 2;
    }
  }
  if (jobs < 64) jobs = 64;  // the acceptance floor: 64 concurrent jobs

  si::serve::JobServer::Options opt;
  opt.workers = static_cast<std::size_t>(workers);
  opt.queue_capacity = static_cast<std::size_t>(jobs) + 8;
  opt.cache_capacity = 512;
  si::serve::JobServer server(opt);

  // Phase 1: the full mixed load, all requests in flight at once.
  std::vector<std::future<std::string>> futures;
  futures.reserve(static_cast<std::size_t>(jobs));
  const auto t0 = std::chrono::steady_clock::now();
  for (long k = 0; k < jobs; ++k) {
    const std::string id = "load-" + std::to_string(k);
    const int variant = static_cast<int>(k);
    Json req;
    switch (k % 3) {
      case 0: {
        req = Json::object();
        req.set("id", id);
        req.set("deck", op_deck(variant));
        break;
      }
      case 1: {
        req = Json::object();
        req.set("id", id);
        req.set("deck", tran_deck(variant));
        break;
      }
      default:
        req = mc_request(id, variant);
    }
    futures.push_back(server.submit(req.dump()));
  }

  std::map<std::string, int> reply_count;
  long ok = 0;
  for (auto& f : futures) {
    const Reply r = parse_reply(f.get());
    ++reply_count[r.id];
    if (r.status == "ok") ++ok;
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // The invariants gate the throughput number: a fast server that drops
  // replies is not a result.
  long lost = 0, duplicated = 0;
  for (long k = 0; k < jobs; ++k) {
    const auto it = reply_count.find("load-" + std::to_string(k));
    if (it == reply_count.end())
      ++lost;
    else if (it->second != 1)
      ++duplicated;
  }
  if (lost != 0) return fail("lost replies");
  if (duplicated != 0) return fail("duplicated replies");
  if (ok != jobs) return fail("non-ok replies on the healthy deck set");

  // Phase 2: resubmit the op third of the load; every one must be a
  // cache hit served without re-simulation.
  const auto before = server.stats();
  std::vector<std::future<std::string>> repeats;
  long expected_hits = 0;
  for (long k = 0; k < jobs; k += 3) {
    const std::string id = "hit-" + std::to_string(k);
    Json req = Json::object();
    req.set("id", id);
    req.set("deck", op_deck(static_cast<int>(k)));
    repeats.push_back(server.submit(req.dump()));
    ++expected_hits;
  }
  for (auto& f : repeats) {
    const Reply r = parse_reply(f.get());
    if (r.status != "ok" || !r.cached) return fail("expected a cache hit");
  }
  const auto after = server.stats();
  if (after.cache_hits - before.cache_hits !=
      static_cast<std::uint64_t>(expected_hits))
    return fail("cache hit counter drifted");

  const double jobs_per_s = static_cast<double>(jobs) / elapsed_s;
  std::printf(
      "serve_bench: %ld mixed jobs (op/tran/mc), %ld workers: %.2f jobs/s "
      "(%.1f ms total), lost=0 dup=0, %ld repeat hits\n",
      jobs, workers, jobs_per_s, elapsed_s * 1e3, expected_hits);

  server.shutdown(/*drain=*/true);

  if (!merge_path.empty()) {
    // Parse -> add section -> dump: serve::Json round-trips numbers at
    // full precision, so the solver rows pass through untouched.
    std::ifstream in(merge_path, std::ios::binary);
    Json doc;
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      doc = Json::parse(ss.str());
    } else {
      doc = Json::object();
    }
    Json row = Json::object();
    row.set("workload", "serve_mixed_load");
    row.set("jobs", jobs);
    row.set("workers", workers);
    row.set("jobs_per_s", jobs_per_s);
    row.set("lost", 0);
    row.set("duplicated", 0);
    row.set("cache_hits", expected_hits);
    const si::bench::HostStamp host = si::bench::host_stamp();
    row.set("nproc", static_cast<unsigned long>(host.nproc));
    row.set("compiler", host.compiler);
    row.set("build_type", host.build_type);
    row.set("commit", host.commit);
    Json rows = Json::array();
    rows.push(std::move(row));
    doc.set("serve_bench", std::move(rows));
    std::ofstream out(merge_path, std::ios::binary | std::ios::trunc);
    out << doc.dump() << "\n";
    if (!out) return fail("could not rewrite merge target");
    std::printf("serve_bench: merged into %s\n", merge_path.c_str());
  }
  return 0;
}
