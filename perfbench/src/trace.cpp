#include "trace.hpp"

#include <cstring>
#include <unordered_map>

namespace pb {

namespace {

/// Innermost open span of this thread (the parent of the next one).
thread_local Tracer::Span* t_open = nullptr;

std::uint64_t thread_number() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t n = next.fetch_add(1);
  return n;
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, dot) : std::string(name);
}

}  // namespace

Tracer::Span::Span(Tracer* t, const char* name, std::string job)
    : t_(t && t->enabled() ? t : nullptr) {
  if (!t_) return;
  rec_.name = name;
  rec_.id = t_->next_id_.fetch_add(1, std::memory_order_relaxed);
  rec_.tid = thread_number();
  rec_.job = std::move(job);
  outer_ = t_open;
  if (outer_) {
    rec_.parent = outer_->rec_.id;
    if (rec_.job.empty()) rec_.job = outer_->rec_.job;
  }
  t_open = this;
  start_ = Clock::now();
}

Tracer::Span::~Span() {
  if (!t_) return;
  const auto end = Clock::now();
  rec_.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start_ - t_->epoch_).count();
  rec_.dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count();
  t_open = outer_;
  t_->push(std::move(rec_));
}

Tracer::Tracer() : epoch_(Clock::now()) {}

void Tracer::push(Record r) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(r));
}

std::vector<Tracer::Record> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

double Tracer::total_ms(const char* name) const {
  double s = 0.0;
  for (double d : durations_ms(name)) s += d;
  return s;
}

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_)
    if (std::strcmp(r.name, name) == 0) out.push_back(static_cast<double>(r.dur_ns) * 1e-6);
  return out;
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  const std::vector<Record> recs = records();
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Record& r : recs)
    if (r.parent) child_ns[r.parent] += r.dur_ns;
  std::map<std::string, LayerTime> out;
  for (const Record& r : recs) {
    LayerTime& lt = out[layer_of(r.name)];
    const auto it = child_ns.find(r.id);
    const std::int64_t self = r.dur_ns - (it == child_ns.end() ? 0 : it->second);
    lt.total_ms += static_cast<double>(r.dur_ns) * 1e-6;
    lt.self_ms += static_cast<double>(self > 0 ? self : 0) * 1e-6;
    ++lt.spans;
  }
  return out;
}

std::string Tracer::chrome_json() const {
  serve::Json events = serve::Json::array();
  for (const Record& r : records()) {
    serve::Json e = serve::Json::object();
    e.set("name", r.name);
    e.set("cat", layer_of(r.name));
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", static_cast<double>(r.tid));
    e.set("ts", static_cast<double>(r.start_ns) * 1e-3);
    e.set("dur", static_cast<double>(r.dur_ns) * 1e-3);
    serve::Json args = serve::Json::object();
    args.set("span", static_cast<double>(r.id));
    if (r.parent) args.set("parent", static_cast<double>(r.parent));
    if (!r.job.empty()) args.set("job", r.job);
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  serve::Json doc = serve::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc.dump();
}

}  // namespace pb
