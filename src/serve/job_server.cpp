#include "serve/job_server.hpp"

#include <chrono>
#include <utility>

#include "obs/telemetry.hpp"

namespace si::serve {

namespace {

// Obs mirrors of the exact Stats counters (obs probes are gated on
// SI_OBS and may undercount; Stats never does).
struct ServeTelemetry {
  obs::Counter& accepted = obs::counter("serve.jobs_accepted");
  obs::Counter& rejected = obs::counter("serve.jobs_rejected");
  obs::Counter& completed = obs::counter("serve.jobs_completed");
  obs::Counter& failed = obs::counter("serve.jobs_failed");
  obs::Counter& cancelled = obs::counter("serve.jobs_cancelled");
  obs::Counter& timed_out = obs::counter("serve.jobs_timeout");
  obs::Counter& cache_hits = obs::counter("serve.cache_hits");
  obs::Timer& job_time = obs::timer("serve.job_time");

  static ServeTelemetry& get() {
    static ServeTelemetry t;
    return t;
  }
};

double elapsed_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Json error_body(const std::string& kind, const std::string& message) {
  Json e = Json::object();
  e.set("kind", kind);
  e.set("message", message);
  return e;
}

/// The one reply envelope every path goes through: exactly the schema
/// documented in protocol.hpp, written member by member in the sorted
/// key order Json::dump() uses (cached, elapsed_ms, error, id, result,
/// status, telemetry).  `result` is the payload's serialized text,
/// spliced in verbatim: a fresh result is dumped once, and a cache hit
/// replies with the stored text without re-parsing it.
std::string envelope(const std::string& id, const char* status, bool cached,
                     double elapsed_ms, const std::string* result,
                     const Json* error, bool want_telemetry) {
  std::string out;
  out.reserve(96 + (result ? result->size() : 0));
  out += cached ? "{\"cached\":true" : "{\"cached\":false";
  out += ",\"elapsed_ms\":";
  Json(elapsed_ms).dump_to(out);
  if (error) {
    out += ",\"error\":";
    error->dump_to(out);
  }
  out += ",\"id\":\"";
  Json::escape_to(id, out);
  out += '"';
  if (result) {
    out += ",\"result\":";
    out += *result;
  }
  out += ",\"status\":\"";
  out += status;
  out += '"';
  if (want_telemetry) {
    // snapshot_json() is the obs contract and always valid JSON (the
    // SI_OBS=OFF stub included); re-dump it so the reply stays compact.
    out += ",\"telemetry\":";
    Json::parse(obs::snapshot_json()).dump_to(out);
  }
  out += '}';
  return out;
}

/// Best-effort id extraction so even a request that fails validation is
/// answered under the id the client sent.
std::string peek_id(const Json& j) {
  if (!j.is_object()) return "";
  const Json* v = j.find("id");
  return (v && v->is_string()) ? v->as_string() : "";
}

}  // namespace

JobServer::JobServer(Options opt)
    : opt_(opt), cache_(opt.cache_capacity ? opt.cache_capacity : 1) {
  if (opt_.workers == 0) opt_.workers = 1;
  workers_.reserve(opt_.workers);
  for (std::size_t i = 0; i < opt_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

JobServer::~JobServer() { shutdown(/*drain=*/true); }

std::future<std::string> JobServer::submit(const std::string& request_line) {
  auto done = std::make_shared<std::promise<std::string>>();
  std::future<std::string> f = done->get_future();
  submit(request_line,
         [done](std::string reply) { done->set_value(std::move(reply)); });
  return f;
}

void JobServer::submit(const std::string& request_line,
                       std::function<void(std::string)> on_reply) {
  const auto t0 = std::chrono::steady_clock::now();

  // Parse + validate on the submitting thread: malformed requests are
  // answered immediately and never occupy a queue slot.
  JobRequest req;
  std::string id;
  try {
    const Json j = Json::parse(request_line);
    id = peek_id(j);
    req = parse_request(j);
  } catch (const JsonError& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    ServeTelemetry::get().failed.add();
    Json err = error_body("bad_json", e.what());
    on_reply(envelope(id, "error", false, elapsed_ms_since(t0), nullptr,
                      &err, false));
    return;
  } catch (const JobError& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    ServeTelemetry::get().failed.add();
    Json err = error_body(e.kind(), e.what());
    on_reply(envelope(id, "error", false, elapsed_ms_since(t0), nullptr,
                      &err, false));
    return;
  }

  Job job;
  job.req = std::move(req);
  job.on_reply = std::move(on_reply);
  job.admitted = t0;
  job.token = std::make_shared<runtime::CancelToken>();
  const double timeout_ms = job.req.timeout_ms != 0.0
                                ? job.req.timeout_ms
                                : opt_.default_timeout_ms;
  if (timeout_ms > 0.0)
    job.token->set_timeout(std::chrono::nanoseconds(
        static_cast<std::int64_t>(timeout_ms * 1e6)));

  bool shutting_down = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_ && queue_.size() < opt_.queue_capacity) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      ServeTelemetry::get().accepted.add();
      active_.emplace(job.req.id, job.token);
      queue_.push_back(std::move(job));
      cv_.notify_one();
      return;
    }
    shutting_down = stopping_;
  }

  // Admission control: full queue (or a server already shutting down)
  // answers 429 right now instead of queueing unboundedly.
  rejected_.fetch_add(1, std::memory_order_relaxed);
  ServeTelemetry::get().rejected.add();
  Json err = error_body(
      "rejected", shutting_down ? "server is shutting down" : "queue full");
  err.set("code", 429);
  job.on_reply(envelope(job.req.id, "rejected", false, elapsed_ms_since(t0),
                        nullptr, &err, false));
}

bool JobServer::cancel(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [first, last] = active_.equal_range(id);
  bool found = false;
  for (auto it = first; it != last; ++it) {
    it->second->cancel();
    found = true;
  }
  return found;
}

void JobServer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, nothing left
      if (stopping_ && !draining_) return;  // abandon queue to shutdown()
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    execute(std::move(job));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
  }
}

void JobServer::reply_now(Job& job, std::string reply) {
  // Drop the cancel handle first so stats and cancel() never see a
  // finished job, then deliver.  A throwing callback must not kill the
  // worker — the reply contract is the callback's problem at that point.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [first, last] = active_.equal_range(job.req.id);
    for (auto it = first; it != last; ++it) {
      if (it->second == job.token) {
        active_.erase(it);
        break;
      }
    }
  }
  try {
    job.on_reply(std::move(reply));
  } catch (...) {
  }
}

void JobServer::execute(Job job) {
  ServeTelemetry& tel = ServeTelemetry::get();
  obs::ScopedTimer timer(tel.job_time);
  obs::TraceSpan span("serve.job");
  const JobRequest& req = job.req;

  // A job whose deadline passed while queued (or that was cancelled
  // before a worker picked it up) is answered without simulating.
  if (job.token->stop_requested()) {
    const bool expired = job.token->deadline_expired();
    (expired ? timed_out_ : cancelled_).fetch_add(1, std::memory_order_relaxed);
    (expired ? tel.timed_out : tel.cancelled).add();
    Json err = error_body(expired ? "timeout" : "cancelled",
                          expired ? "deadline expired before execution"
                                  : "cancelled before execution");
    reply_now(job, envelope(req.id, expired ? "timeout" : "cancelled", false,
                            elapsed_ms_since(job.admitted), nullptr, &err,
                            req.want_telemetry));
    return;
  }

  const bool use_cache = opt_.enable_cache && !req.no_cache;
  const std::uint64_t key = use_cache ? request_cache_key(req) : 0;

  if (use_cache) {
    if (const auto hit = cache_.lookup(key)) {
      // Cache hit: the stored string is the serialized result payload;
      // only the envelope (id, elapsed, telemetry) is written around it.
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      tel.cache_hits.add();
      tel.completed.add();
      reply_now(job, envelope(req.id, "ok", true,
                              elapsed_ms_since(job.admitted), hit.get(),
                              nullptr, req.want_telemetry));
      return;
    }
  }

  // The worker-side catch-all: nothing a deck can make the solver throw
  // may escape past here (satellite 3's contract).  Every branch ends
  // in exactly one reply_now().
  try {
    // Serialized once: the cache and the reply share this text.
    const auto payload =
        std::make_shared<const std::string>(run_job(req, job.token.get()).dump());
    if (use_cache) cache_.store_shared(key, payload);
    completed_.fetch_add(1, std::memory_order_relaxed);
    tel.completed.add();
    reply_now(job, envelope(req.id, "ok", false,
                            elapsed_ms_since(job.admitted), payload.get(),
                            nullptr, req.want_telemetry));
  } catch (const runtime::CancelledError& e) {
    const bool expired = e.deadline_expired();
    (expired ? timed_out_ : cancelled_).fetch_add(1, std::memory_order_relaxed);
    (expired ? tel.timed_out : tel.cancelled).add();
    Json err = error_body(expired ? "timeout" : "cancelled", e.what());
    reply_now(job, envelope(req.id, expired ? "timeout" : "cancelled", false,
                            elapsed_ms_since(job.admitted), nullptr, &err,
                            req.want_telemetry));
  } catch (const JobError& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    tel.failed.add();
    Json err = error_body(e.kind(), e.what());
    if (!e.diagnostics().is_null()) {
      Json d = e.diagnostics();
      err.set("diagnostics", std::move(d));
    }
    reply_now(job, envelope(req.id, "error", false,
                            elapsed_ms_since(job.admitted), nullptr, &err,
                            req.want_telemetry));
  } catch (const std::exception& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    tel.failed.add();
    Json err = error_body("internal", e.what());
    reply_now(job, envelope(req.id, "error", false,
                            elapsed_ms_since(job.admitted), nullptr, &err,
                            req.want_telemetry));
  } catch (...) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    tel.failed.add();
    Json err = error_body("internal", "unknown exception");
    reply_now(job, envelope(req.id, "error", false,
                            elapsed_ms_since(job.admitted), nullptr, &err,
                            req.want_telemetry));
  }
}

void JobServer::shutdown(bool drain) {
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  std::deque<Job> abandoned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    draining_ = drain;
    if (!drain) {
      abandoned.swap(queue_);
      // Running jobs unwind at their next Newton checkpoint.
      for (auto& [id, token] : active_) token->cancel();
    }
  }
  cv_.notify_all();
  for (auto& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();

  for (Job& job : abandoned) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    ServeTelemetry::get().cancelled.add();
    Json err = error_body("cancelled", "server shut down before execution");
    reply_now(job, envelope(job.req.id, "cancelled", false,
                            elapsed_ms_since(job.admitted), nullptr, &err,
                            job.req.want_telemetry));
  }
}

JobServer::Stats JobServer::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.queue_depth = queue_.size();
  s.running = running_;
  return s;
}

std::string JobServer::stats_json() const {
  const Stats s = stats();
  const runtime::CacheStats cs = cache_.stats();
  Json out = Json::object();
  out.set("accepted", s.accepted);
  out.set("rejected", s.rejected);
  out.set("completed", s.completed);
  out.set("failed", s.failed);
  out.set("cancelled", s.cancelled);
  out.set("timed_out", s.timed_out);
  out.set("cache_hits", s.cache_hits);
  out.set("queue_depth", s.queue_depth);
  out.set("running", s.running);
  out.set("workers", opt_.workers);
  out.set("queue_capacity", opt_.queue_capacity);
  Json cache = Json::object();
  cache.set("hits", cs.hits);
  cache.set("misses", cs.misses);
  cache.set("evictions", cs.evictions);
  cache.set("size", cache_.size());
  cache.set("capacity", cache_.capacity());
  out.set("cache", std::move(cache));
  return out.dump();
}

}  // namespace si::serve
