// serve_mixed: the simulation service as its callers use it.
//
// A closed loop: one loopback connection, driven from the benchmark's
// main thread, against an in-process NetServer + JobServer with one
// worker, all on one CPU.  The client sends its next request only after
// the reply to the previous one has arrived, so at any moment one of the
// client, reader and worker threads runs.  With two connections on any
// CPU the job rate depended on how the shared host scheduled the run's
// vCPUs, and spread by 20-28 % between runs.
//
// The seeded stream is made of blocks with the same composition: 30 jobs
// (op / tran / mc 12 / 9 / 9, spread evenly over the repo's example decks:
// memory cell, Table 1, Table 2), each with a random input bias so that it
// misses the result cache, plus 3 exact repeats of the previous request,
// which must hit.  A block is the unit of the rate and latency samples, so
// each sample measures the same mix of work, and the fast tail of many
// short samples is taken as for every other timing.
//
// A round starts a fresh daemon (empty cache), connects, pushes the
// stream and tears the daemon down; set-up is bind + connect.  Every ok
// payload is compared with an in-process run_job of the same request.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "erc/check.hpp"
#include "serve/job_server.hpp"
#include "serve/net_server.hpp"
#include "serve/protocol.hpp"
#include "spice/parser.hpp"
#include "workload.hpp"

namespace pb {

namespace {

using si::serve::Json;

constexpr int kBlockJobs = 30;    ///< fresh jobs per block
constexpr int kBlockRepeats = 3;  ///< exact repeats per block
constexpr int kBlockSize = kBlockJobs + kBlockRepeats;
constexpr int kBlocks = 10;       ///< blocks per round
constexpr int kMcTrials = 16;
constexpr const char* kTypes[] = {"op", "tran", "mc"};

struct DeckSpec {
  const char* file;
  const char* measure;  ///< mc_measure node
};
constexpr DeckSpec kDecks[] = {
    {"memory_cell_ok.sp", "v(d)"},
    {"table1_delay_line.sp", "v(d2)"},
    {"table2_modulator.sp", "v(d2)"},
};

/// The deck with its input current source set to `bias_ua` and, for
/// transient jobs, a .tran card ahead of .end.
std::string deck_variant(const std::string& deck, double bias_ua, bool tran) {
  std::istringstream in(deck);
  std::ostringstream out;
  std::string line;
  char bias[32];
  std::snprintf(bias, sizeof bias, "%.4fu", bias_ua);
  while (std::getline(in, line)) {
    if (line.rfind("Iin ", 0) == 0) {
      const auto dc = line.find(" DC ");
      if (dc == std::string::npos) throw std::runtime_error("deck Iin card without DC value");
      line = line.substr(0, dc + 4) + bias;
    }
    if (tran && line.rfind(".end", 0) == 0) out << ".tran 10n 2u\n";
    out << line << "\n";
  }
  return out.str();
}

/// The deck without its analysis directives: what parse_netlist accepts
/// (run_job strips them the same way before parsing).
std::string element_cards(const std::string& deck) {
  std::istringstream in(deck);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(".op", 0) != 0 && line.rfind(".tran", 0) != 0 && line.rfind(".probe", 0) != 0)
      out << line << "\n";
  return out.str();
}

/// Pins the calling thread, and so every thread it starts later (NetServer,
/// JobServer), to the CPU it runs on.  The threads then hand each job over
/// on one CPU that stays busy, instead of waking a halted vCPU at every
/// hop, whose wake-up time follows the host's load.
void pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu < 0 ? 0 : cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_setaffinity() failed");
}

struct Request {
  std::string id;
  std::string line;     ///< the request as sent
  std::string physics;  ///< the request without its id (the cache identity)
  int type = 0;         ///< index into kTypes
  bool repeat = false;
};

struct Reply {
  double rtt_ms = 0.0;
  double server_ms = 0.0;  ///< elapsed_ms: admission to reply
  std::string status;
  bool cached = false;
  bool payload_matches = false;  ///< result member == in-process run_job
};

class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a) < 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the daemon failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  void send_line(const std::string& s) {
    std::string msg = s + "\n";
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() to the daemon failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("daemon closed the connection");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

class ServeWorkload final : public Workload {
 public:
  void prepare(const Options& opt) override {
    std::vector<std::string> decks;
    for (const DeckSpec& d : kDecks) decks.push_back(read_file(opt.repo + "/examples/decks/" + d.file));

    // The seed shuffles each block and draws the biases and MC seeds, so
    // it changes the inputs but not the amount of work.
    Rng rng(opt.seed);
    Json prev;
    for (int b = 0; b < kBlocks; ++b) {
      std::vector<int> slots;  // type * 3 + deck, or -1 for a repeat
      for (int k = 0; k < kBlockJobs; ++k)
        slots.push_back((k % 10 < 4 ? 0 : k % 10 < 7 ? 1 : 2) * 3 + (k / 10) % 3);
      slots.insert(slots.end(), kBlockRepeats, -1);
      for (std::size_t i = slots.size() - 1; i > 0; --i)
        std::swap(slots[i], slots[rng.next() % (i + 1)]);
      if (b == 0 && slots[0] < 0)  // the first request has nothing to repeat
        std::swap(slots[0], *std::find_if(slots.begin(), slots.end(), [](int s) { return s >= 0; }));
      for (const int slot : slots) {
        Request r;
        r.id = "r" + std::to_string(stream_.size());
        Json body;
        if (slot < 0) {
          body = prev;
          r.repeat = true;
        } else {
          const int type = slot / 3, deck = slot % 3;
          const double bias_ua = 1.0 + 5.0 * rng.uniform();
          body = Json::object();
          body.set("analysis", kTypes[type]);
          body.set("deck", deck_variant(decks[static_cast<std::size_t>(deck)], bias_ua, type == 1));
          if (type == 2) {
            body.set("mc_trials", kMcTrials);
            body.set("mc_seed", static_cast<double>(1 + rng.below(1000)));
            body.set("mc_measure", kDecks[deck].measure);
          }
        }
        prev = body;
        r.type = type_of(body);
        r.physics = body.dump();
        Json with_id = body;
        with_id.set("id", r.id);
        r.line = with_id.dump();
        stream_.push_back(std::move(r));
      }
    }
    if (opt.dump_inputs || opt.write_references) return;
    pin_to_current_cpu();
    replay(nullptr, nullptr);
  }

  std::string dump_inputs() const override {
    std::string out;
    for (const Request& r : stream_) out += r.line + "\n";
    return out;
  }

  void trace_extras(RunReport& r, Tracer& t) override { replay(&r, &t); }

  void round(RunReport& r, Tracer* t) override {
    const bool traced = t && t->enabled();
    const auto t0 = Clock::now();
    si::serve::JobServer::Options jo;
    jo.workers = 1;
    si::serve::JobServer jobs(jo);
    si::serve::NetServer net(jobs);
    std::optional<Socket> sock;
    sock.emplace(net.port());
    r.setup_s.push_back(seconds_since(t0));

    std::atomic<bool> done{false};
    std::size_t depth_max = 0;
    std::thread monitor;
    if (traced)
      monitor = std::thread([&] {
        while (!done.load()) {
          depth_max = std::max(depth_max, jobs.stats().queue_depth);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });

    std::vector<Reply> replies;
    std::string error;
    try {
      for (const Request& q : stream_) replies.push_back(exchange(*sock, q, t));
    } catch (const std::exception& e) {
      error = e.what();
    }
    done = true;
    if (monitor.joinable()) monitor.join();
    const auto stats = jobs.stats();
    sock.reset();
    net.stop();
    jobs.shutdown(true);

    // A request left unanswered by a broken connection is a failure.
    for (std::size_t k = replies.size(); k < stream_.size(); ++k)
      r.check.expect(false, stream_[k].id + ": no reply (" + error + ")");
    std::vector<double> block;
    for (std::size_t k = 0; k < replies.size(); ++k) {
      const Request& q = stream_[k];
      const Reply& a = replies[k];
      check_reply(r, q, a);
      const std::string type = kTypes[q.type];
      r.samples[type + ".rtt_ms"].push_back(a.rtt_ms);
      r.samples[type + ".server_ms"].push_back(a.server_ms);
      r.samples[type + ".net_ms"].push_back(a.rtt_ms - a.server_ms);
      block.push_back(a.rtt_ms);
      if (block.size() == kBlockSize) {
        // Round trips only: the client's own checks between requests are
        // not the service's time.
        double sum_ms = 0.0;
        for (double v : block) sum_ms += v;
        r.unit_s.push_back(sum_ms * 1e-3 / kBlockSize);
        r.latency_ms.push_back(median(block));
        block.clear();
      }
    }
    r.samples["cache_hits"].push_back(static_cast<double>(stats.cache_hits));
    r.samples["completed"].push_back(static_cast<double>(stats.completed));
    r.samples["rejected"].push_back(static_cast<double>(stats.rejected));
    r.samples["queue_depth_max"].push_back(static_cast<double>(depth_max));
  }

  void summarize(RunReport& r) const override {
    r.detail.push_back({"jobs_per_s", 1.0 / fast(r.unit_s), "jobs/s", "higher"});
    for (const char* type : kTypes) {
      const std::vector<double>& v = r.samples.at(std::string(type) + ".rtt_ms");
      r.detail.push_back({std::string(type) + "_p50_ms", median(v), "ms", "lower"});
      if (v.size() >= 1000)  // at least ten samples beyond the p99
        r.detail.push_back({std::string(type) + "_p99_ms", quantile(v, 0.99), "ms", "lower"});
      r.detail.push_back({std::string(type) + "_samples", static_cast<double>(v.size()), "count", ""});
    }
  }

  void layers(RunReport& r, const Tracer& t, int rounds) const override {
    auto& L = r.layers;
    for (int i = 0; i < 3; ++i) {
      const std::string type = kTypes[i];
      const double server = median(r.samples.at(type + ".server_ms"));
      const double exec = median(r.samples.at(type + ".exec_ms"));
      L["serve." + type + ".server_ms"] = server;
      L["serve." + type + ".net_ms"] = median(r.samples.at(type + ".net_ms"));
      L["serve." + type + ".exec_ms"] = exec;
      L["serve." + type + ".queue_ms"] = server - exec;
    }
    L["serve.json_parse_us"] = median(t.durations_ms("serve.json_parse")) * 1e3;
    L["serve.json_dump_us"] = median(t.durations_ms("serve.json_dump")) * 1e3;
    L["serve.parse_request_us"] = median(t.durations_ms("serve.parse_request")) * 1e3;
    L["erc.check_ms"] = median(t.durations_ms("erc.check_deck"));
    L["spice.parse_ms"] = median(t.durations_ms("spice.parse_netlist"));
    double hits = 0.0, completed = 0.0, rejected = 0.0, depth = 0.0;
    for (double v : r.samples.at("cache_hits")) hits += v;
    for (double v : r.samples.at("completed")) completed += v;
    for (double v : r.samples.at("rejected")) rejected += v;
    for (double v : r.samples.at("queue_depth_max")) depth = std::max(depth, v);
    L["serve.cache_hit_ratio"] = completed > 0.0 ? hits / completed : 0.0;
    L["serve.rejected"] = rejected / rounds;
    L["serve.queue_depth_max"] = depth;
  }

  serve::Json make_reference() override { return Json(); }

 private:
  static int type_of(const Json& body) {
    const std::string& a = body.find("analysis")->as_string();
    for (int i = 0; i < 3; ++i)
      if (a == kTypes[i]) return i;
    throw std::logic_error("unknown analysis " + a);
  }

  Reply exchange(Socket& s, const Request& q, Tracer* t) const {
    Tracer::Span span(t, "serve.request", q.id);
    Reply a;
    const auto t0 = Clock::now();
    s.send_line(q.line);
    const std::string line = s.read_line();
    a.rtt_ms = seconds_since(t0) * 1e3;
    Json reply;
    {
      Tracer::Span ps(t, "serve.json_parse");
      reply = Json::parse(line);
    }
    if (const Json* v = reply.find("status")) a.status = v->as_string();
    if (const Json* v = reply.find("cached")) a.cached = v->as_bool();
    if (const Json* v = reply.find("elapsed_ms")) a.server_ms = v->as_number();
    // Compared here rather than kept: holding every payload of a round
    // would make the peak RSS depend on reply timing.
    if (const Json* v = reply.find("result")) {
      const auto it = expected_.find(q.physics);
      a.payload_matches = it != expected_.end() && it->second == v->dump();
    }
    return a;
  }

  void check_reply(RunReport& r, const Request& q, const Reply& a) const {
    if (a.status != "ok") {
      r.check.expect(false, q.id + ": status " + a.status);
      return;
    }
    if (!a.payload_matches) {
      r.check.expect(false, q.id + ": payload differs from in-process run_job");
      return;
    }
    r.check.expect(!q.repeat || a.cached, q.id + ": exact repeat was not served from the cache");
  }

  /// Single-thread in-process run_job of every distinct request: the
  /// oracle for the payload check and, traced, the exec-time baseline.
  void replay(RunReport* r, Tracer* t) {
    for (const Request& q : stream_) {
      if (r == nullptr && expected_.count(q.physics)) continue;
      const std::string type = kTypes[q.type];
      Json body = Json::parse(q.physics);
      body.set("id", q.id);
      std::string line;
      {
        Tracer::Span s(t, "serve.json_dump", q.id);
        line = body.dump();
      }
      si::serve::JobRequest req;
      {
        Tracer::Span s(t, "serve.parse_request", q.id);
        req = si::serve::parse_request(Json::parse(line));
      }
      if (t) {
        Tracer::Span s(t, "erc.check_deck", q.id);
        (void)si::erc::check_deck(req.deck);
      }
      if (t) {
        Tracer::Span s(t, "spice.parse_netlist", q.id);
        (void)si::spice::parse_netlist(element_cards(req.deck));
      }
      const auto t0 = Clock::now();
      std::string payload;
      try {
        Tracer::Span s(t, "serve.run_job", q.id);
        payload = si::serve::run_job(req, nullptr).dump();
      } catch (const std::exception& e) {
        payload = std::string("error: ") + e.what();
      }
      if (r) r->samples[type + ".exec_ms"].push_back(seconds_since(t0) * 1e3);
      expected_.emplace(q.physics, std::move(payload));
    }
  }

  std::vector<Request> stream_;
  std::unordered_map<std::string, std::string> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload() { return std::make_unique<ServeWorkload>(); }

}  // namespace pb
