// Campaign engine: batches validated scenario requests across a
// WorkerPool with per-request fault isolation, per-run budgets and the
// design-artifact cache.
//
// Robustness contract (what the daemon builds on):
//  * run_batch never throws for request-shaped problems. Every request
//    comes back as exactly one ResultRow in input order, in a terminal
//    outcome: ok | failed | deadlocked | timeout | rejected.
//  * A std::exception escaping one request's worker job marks only that
//    request `failed` (with the what() string); the rest of the batch
//    proceeds (WorkerPool::run_jobs' per-job outcome channel).
//  * Watchdog-tripped runs come back `deadlocked`, runs that exhaust
//    their cycle budget without draining or bust their wall-clock budget
//    come back `timeout` - both with their partial SimResults attached,
//    never as errors.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "core/worker_pool.hpp"
#include "service/artifact_cache.hpp"
#include "service/request.hpp"

namespace deft {

/// Terminal (and one flow-control) states of a campaign request.
enum class RequestOutcome : std::uint8_t {
  ok,          ///< run completed and drained inside every budget
  failed,      ///< an exception escaped the worker (isolated to this row)
  deadlocked,  ///< the simulation watchdog tripped (partial results)
  timeout,     ///< cycle budget exhausted before drain, or wall-clock
               ///< budget exceeded (partial results)
  rejected,    ///< validation or prepare failed (structured errors)
  overloaded,  ///< deferred by backpressure; not terminal - the request
               ///< is retried once the queue drains
};

const char* request_outcome_name(RequestOutcome outcome);
bool request_outcome_terminal(RequestOutcome outcome);

/// One JSONL result row. Simulation fields are a flat snapshot of the
/// run's SimResults (partial for deadlocked/timeout rows).
struct ResultRow {
  std::string id;
  RequestOutcome outcome = RequestOutcome::rejected;
  std::string error;                 ///< failed/timeout/deadlocked detail
  std::vector<RequestError> errors;  ///< rejected detail (per line)
  bool cache_context_hit = false;
  bool cache_algorithm_hit = false;
  bool budget_clamped = false;
  double seconds = 0.0;
  /// Cycle this run resumed from (a restored crash checkpoint); -1 when
  /// the run started at cycle 0.
  Cycle resumed_at = -1;

  bool has_results = false;
  RunOutcome sim_outcome = RunOutcome::completed;
  bool drained = false;
  Cycle cycles = 0;
  std::uint64_t packets_created = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_lost = 0;
  double latency_mean = 0.0;
  double latency_p95 = 0.0;

  /// Serializes the row as a single JSON object (no trailing newline).
  std::string to_json() const;
};

struct CampaignOptions {
  /// Pool width; 0 picks hardware concurrency.
  int workers = 0;
  /// ArtifactCache tier capacity (contexts / idle algorithm instances).
  std::size_t cache_capacity = 32;
  RunBudget budget;
  /// Crash-recovery checkpoints (docs/operations.md). When non-empty,
  /// each run writes a deterministic snapshot of its paused stepper to
  /// "<checkpoint_dir>/<id>.ckpt" every checkpoint_every_cycles once it
  /// has passed checkpoint_min_cycles
  /// (short runs never pay the fsync), and a request whose id has a
  /// restorable checkpoint resumes from it instead of cycle 0. A corrupt
  /// or configuration-mismatched checkpoint is discarded and the run
  /// restarts clean - never a wrong result. A checkpointed run honours
  /// its `shards`, and an image restores at any shard count. The results
  /// are bit-identical with checkpoints on, off, or restored
  /// (tests/test_service.cpp).
  std::filesystem::path checkpoint_dir;
  Cycle checkpoint_min_cycles = 100000;
  Cycle checkpoint_every_cycles = 100000;
};

/// Extension of per-request checkpoint images in checkpoint_dir.
inline constexpr const char* kCheckpointExtension = ".ckpt";

class CampaignEngine {
 public:
  explicit CampaignEngine(CampaignOptions options);

  /// Runs every request to a terminal outcome; rows come back in request
  /// order. Blocks until the whole batch is done.
  std::vector<ResultRow> run_batch(
      const std::vector<CampaignRequest>& requests);

  int workers() const { return workers_; }
  const ArtifactCache& cache() const { return cache_; }
  const CampaignOptions& options() const { return options_; }

 private:
  ResultRow run_one(int worker, const CampaignRequest& request);

  CampaignOptions options_;
  int workers_;
  ArtifactCache cache_;
  WorkerPool pool_;
  /// One reusable workspace per pool worker (worker 0 is the caller).
  std::vector<SimWorkspace> workspaces_;
};

}  // namespace deft
