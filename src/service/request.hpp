// Campaign request model: one config-file-format scenario request per
// spool file, validated and budget-clamped before it ever reaches a pool
// worker.
//
// A request is the existing src/core/config_file.hpp format plus
// service-level keys (all prefixed "x_" so a request file stays usable
// with the plain deft_sim driver once those lines are removed):
//
//   x_chaos = throw        # testing hook: the worker throws before the
//                          # run (exercises the fault-isolation path)
//
// Validation never throws out of the service: malformed requests produce
// a structured list of (line, message) errors, and per-run budgets are
// clamped onto the parsed knobs so no request can exceed the daemon's
// cycle ceiling.
#pragma once

#include <string>
#include <vector>

#include "core/config_file.hpp"

namespace deft {

/// One structured validation error: the 1-based source line it is
/// attributable to (0 = whole-request error, e.g. an oversized file) and
/// a human-readable message.
struct RequestError {
  int line = 0;
  std::string message;
};

/// Service-level chaos hooks a request can carry (testing only; see
/// docs/operations.md). `throw_in_worker` makes the worker throw a
/// std::runtime_error before the run starts - the campaign engine must
/// convert that into a `failed` row without disturbing the batch.
enum class ChaosMode : std::uint8_t {
  none,
  throw_in_worker,
};

/// Per-run robustness budgets the daemon enforces on every request.
struct RunBudget {
  /// Ceiling on warmup + measure + drain cycles. Requests whose
  /// warmup + measure alone exceed it are rejected; otherwise drain_max
  /// (and the watchdog) are clamped so the run is cycle-bounded.
  Cycle max_cycles = 2'000'000;
  /// Wall-clock budget; runs finishing past it are reported `timeout`
  /// (with their partial results) instead of `ok`.
  double max_seconds = 60.0;
  /// Requests larger than this are rejected unread-by-the-parser.
  std::size_t max_request_bytes = 64 * 1024;
};

/// One spooled request: the id (spool filename stem), the originating
/// path (empty for in-process submissions) and the raw config text.
struct CampaignRequest {
  std::string id;
  std::string path;
  std::string text;
};

/// The outcome of validating one request. `ok()` means `config` holds the
/// parsed, budget-clamped configuration; otherwise `errors` lists every
/// detected problem (up to a small cap), each with its source line.
struct ValidatedRequest {
  SimulationConfig config;
  ChaosMode chaos = ChaosMode::none;
  bool budget_clamped = false;  ///< drain/watchdog were cut to fit budget
  std::vector<RequestError> errors;

  bool ok() const { return errors.empty(); }
};

/// Parses and validates request text against the budget. Reads the
/// request once, in line order, and records each bad line's error under
/// its line number, up to a small cap. Topology-dependent checks (fault
/// channel ranges, trace files) are deferred to the worker's prepare
/// stage, which maps their failures to `rejected` as well.
ValidatedRequest validate_request(const std::string& text,
                                  const RunBudget& budget);

/// Escapes a string for embedding inside a JSON string literal.
std::string json_escape(const std::string& s);

}  // namespace deft
