// Job protocol of the simulation service: one newline-delimited JSON
// request per line, one JSON reply per request.
//
// Request schema (unknown keys are rejected — a typoed option must not
// silently fall back to a default):
//   {
//     "id":        string   (optional; echoed verbatim in the reply),
//     "deck":      string   (required; SPICE deck text, may contain
//                            .tran/.probe/.ac/.noise directives),
//     "analysis":  "auto" | "op" | "tran" | "mc"   (default "auto":
//                   tran when the deck has a .tran card, else op),
//     "timeout_ms": number  (optional; 0 = server default, < 0 = none),
//     "max_newton_iterations": integer (optional),
//     "want_telemetry": bool (optional; attach an obs snapshot),
//     "no_cache":  bool     (optional; bypass the result cache),
//     // Monte-Carlo only:
//     "mc_trials":  integer (default 64),
//     "mc_sigma":   number  (default 0.02; relative kp / Vt0 mismatch),
//     "mc_seed":    integer (default 1),
//     "mc_measure": "v(<node>)" (required for analysis "mc")
//   }
//
// Reply envelope (built by the JobServer around run_job's payload):
//   { "id", "status": "ok"|"error"|"rejected"|"timeout"|"cancelled",
//     "cached": bool, "elapsed_ms": number,
//     "result": {...}            on ok,
//     "error": { "kind", "message", "code"?, "diagnostics"? } otherwise }
//
// The cache key covers every request field that affects the result
// (deck text, analysis, Newton limits, MC knobs) and deliberately
// excludes id / timeout / telemetry / no_cache, so the same physics
// asked under a different job id or deadline is a cache hit.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/cancel.hpp"
#include "serve/json.hpp"

namespace si::serve {

enum class Analysis { kAuto, kOp, kTran, kMc };

/// One validated job request.
struct JobRequest {
  std::string id;
  std::string deck;
  Analysis analysis = Analysis::kAuto;
  double timeout_ms = 0.0;  ///< 0 = server default, < 0 = no deadline
  int max_newton_iterations = 0;  ///< 0 = engine default
  bool want_telemetry = false;
  bool no_cache = false;

  int mc_trials = 64;
  double mc_sigma = 0.02;
  std::uint64_t mc_seed = 1;
  std::string mc_measure;  ///< "v(<node>)"; required for Analysis::kMc
};

/// Thrown by parse_request / run_job for every anticipated failure.
/// `kind` is a stable machine-readable tag ("bad_request",
/// "parse_error", "erc_failed", "convergence", ...); `diagnostics`, when
/// not null, is a structured payload (e.g. the ERC diagnostic list).
class JobError : public std::runtime_error {
 public:
  JobError(std::string kind, const std::string& message,
           Json diagnostics = Json())
      : std::runtime_error(message),
        kind_(std::move(kind)),
        diagnostics_(std::move(diagnostics)) {}

  const std::string& kind() const { return kind_; }
  const Json& diagnostics() const { return diagnostics_; }

 private:
  std::string kind_;
  Json diagnostics_;
};

/// Validates a parsed request object.  Throws JobError("bad_request")
/// on a missing deck, an unknown analysis / key, or an out-of-range
/// value.  Never throws anything else.
JobRequest parse_request(const Json& request);

/// Content hash of every result-affecting request field (FNV-1a over
/// deck text + options).  Identical physics => identical key.
std::uint64_t request_cache_key(const JobRequest& r);

/// Executes one validated job: ERC gate first (error-severity findings
/// become JobError("erc_failed") carrying the diagnostic JSON), then the
/// requested analysis with `cancel` plumbed into every Newton loop.
/// Returns the "result" payload.  Throws JobError for anticipated
/// failures and runtime::CancelledError when the token fires; anything
/// else escaping is a bug the JobServer's catch-all still converts to a
/// structured "internal" error.
Json run_job(const JobRequest& r, const runtime::CancelToken* cancel);

}  // namespace si::serve
