#include "service/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <system_error>
#include <thread>

#include "sim/snapshot.hpp"

namespace deft {

const char* request_outcome_name(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::ok:
      return "ok";
    case RequestOutcome::failed:
      return "failed";
    case RequestOutcome::deadlocked:
      return "deadlocked";
    case RequestOutcome::timeout:
      return "timeout";
    case RequestOutcome::rejected:
      return "rejected";
    case RequestOutcome::overloaded:
      return "overloaded";
  }
  return "unknown";
}

bool request_outcome_terminal(RequestOutcome outcome) {
  return outcome != RequestOutcome::overloaded;
}

std::string ResultRow::to_json() const {
  std::string out = "{\"id\": \"" + json_escape(id) + "\", \"outcome\": \"" +
                    request_outcome_name(outcome) + "\"";
  if (!error.empty()) {
    out += ", \"error\": \"" + json_escape(error) + "\"";
  }
  if (!errors.empty()) {
    out += ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += "{\"line\": " + std::to_string(errors[i].line) +
             ", \"message\": \"" + json_escape(errors[i].message) + "\"}";
    }
    out += "]";
  }
  out += std::string(", \"cache\": {\"context\": \"") +
         (cache_context_hit ? "hit" : "miss") + "\", \"algorithm\": \"" +
         (cache_algorithm_hit ? "hit" : "miss") + "\"}";
  if (budget_clamped) {
    out += ", \"budget_clamped\": true";
  }
  if (resumed_at >= 0) {
    out += ", \"resumed_at\": " + std::to_string(resumed_at);
  }
  char seconds_buf[32];
  std::snprintf(seconds_buf, sizeof(seconds_buf), "%.6f", seconds);
  out += std::string(", \"seconds\": ") + seconds_buf;
  if (has_results) {
    char mean_buf[32];
    char p95_buf[32];
    std::snprintf(mean_buf, sizeof(mean_buf), "%.3f", latency_mean);
    std::snprintf(p95_buf, sizeof(p95_buf), "%.3f", latency_p95);
    out += std::string(", \"sim\": {\"outcome\": \"") +
           run_outcome_name(sim_outcome) + "\", \"drained\": " +
           (drained ? "true" : "false") +
           ", \"cycles\": " + std::to_string(cycles) +
           ", \"packets_created\": " + std::to_string(packets_created) +
           ", \"packets_delivered\": " + std::to_string(packets_delivered) +
           ", \"packets_lost\": " + std::to_string(packets_lost) +
           ", \"latency_mean\": " + mean_buf +
           ", \"latency_p95\": " + p95_buf + "}";
  }
  out += "}";
  return out;
}

CampaignEngine::CampaignEngine(CampaignOptions options)
    : options_(options),
      workers_(options.workers > 0
                   ? options.workers
                   : static_cast<int>(std::max(
                         1u, std::thread::hardware_concurrency()))),
      cache_(options.cache_capacity),
      pool_(workers_ - 1),
      workspaces_(static_cast<std::size_t>(workers_)) {}

std::vector<ResultRow> CampaignEngine::run_batch(
    const std::vector<CampaignRequest>& requests) {
  std::vector<ResultRow> rows(requests.size());
  const std::vector<std::exception_ptr> outcomes = pool_.run_jobs(
      workers_, requests.size(), [&](int worker, std::size_t i) {
        rows[i] = run_one(worker, requests[i]);
      });
  // The per-job outcome channel: anything that escaped run_one - chaos
  // injections, bugs in a routing algorithm, bad_alloc in a workspace -
  // failed exactly one request; the others completed above.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i]) {
      continue;
    }
    ResultRow& row = rows[i];
    row = ResultRow{};
    row.id = requests[i].id;
    row.outcome = RequestOutcome::failed;
    try {
      std::rethrow_exception(outcomes[i]);
    } catch (const std::exception& e) {
      row.error = e.what();
    } catch (...) {
      row.error = "non-standard exception";
    }
  }
  return rows;
}

ResultRow CampaignEngine::run_one(int worker, const CampaignRequest& request) {
  ResultRow row;
  row.id = request.id;

  const ValidatedRequest validated =
      validate_request(request.text, options_.budget);
  if (!validated.ok()) {
    row.outcome = RequestOutcome::rejected;
    row.errors = validated.errors;
    return row;
  }
  row.budget_clamped = validated.budget_clamped;
  if (validated.chaos == ChaosMode::throw_in_worker) {
    // Escapes into the per-job outcome channel on purpose: this is the
    // fault-isolation path's end-to-end test hook.
    throw std::runtime_error("chaos: injected worker exception for '" +
                             request.id + "'");
  }
  const SimulationConfig& config = validated.config;

  // Prepare stage: topology-dependent resolution. Failures here are
  // request defects (bad fault channel, unknown traffic, missing trace
  // file), so they reject the request rather than failing it.
  std::shared_ptr<const ExperimentContext> ctx;
  VlFaultSet faults;
  FaultTimeline timeline;
  std::unique_ptr<TrafficGenerator> traffic;
  DesignKey key;
  try {
    ctx = cache_.context(config.chiplets, config.knobs.seed,
                         &row.cache_context_hit);
    faults = config.faults(ctx->topo());
    timeline = config.fault_events(ctx->topo());
    traffic = config.make_traffic(ctx->topo());
    key = DesignKey{config.chiplets,    config.knobs.seed,
                    config.algorithm,   config.vl_strategy,
                    config.knobs.num_vcs, faults.to_string()};
  } catch (const std::exception& e) {
    row.outcome = RequestOutcome::rejected;
    row.errors.push_back({0, e.what()});
    return row;
  }

  std::unique_ptr<RoutingAlgorithm> algorithm = cache_.checkout_algorithm(
      key, *ctx, faults, &row.cache_algorithm_hit);
  const FaultTimeline* timeline_ptr = timeline.empty() ? nullptr : &timeline;

  const auto t0 = std::chrono::steady_clock::now();
  SimWorkspace& ws = workspaces_[static_cast<std::size_t>(worker)];
  auto make_sim = [&] {
    return std::make_unique<Simulator>(ctx->topo(), *algorithm, *traffic,
                                       config.knobs, faults, timeline_ptr,
                                       config.fault_policy);
  };
  std::unique_ptr<Simulator> sim = make_sim();

  // One run loop: a checkpointing run pauses every checkpoint_every_cycles
  // to write its image; any other runs to the end in one advance().
  SimStepper stepper;
  std::filesystem::path ckpt;
  if (!options_.checkpoint_dir.empty()) {
    ckpt = options_.checkpoint_dir / (request.id + kCheckpointExtension);
    std::error_code ec;
    if (std::filesystem::exists(ckpt, ec)) {
      try {
        restore_snapshot(read_snapshot_file(ckpt), *sim, stepper, ws);
        row.resumed_at = stepper.now();
      } catch (const SnapshotError&) {
        // Corrupt, truncated or configuration-mismatched checkpoint: a
        // failed restore may have part-loaded stream state, so rebuild
        // pristine per-run instances and start over from cycle 0 -
        // slower, never wrong.
        algorithm = cache_.checkout_algorithm(key, *ctx, faults,
                                              &row.cache_algorithm_hit);
        traffic = config.make_traffic(ctx->topo());
        sim = make_sim();
      }
    }
  }
  if (row.resumed_at < 0) {  // not restored
    stepper.start(*sim, ws);
  }
  Cycle next_checkpoint =
      ckpt.empty() ? SimStepper::kNoCycleCap
                   : std::max(options_.checkpoint_min_cycles,
                              stepper.now() + options_.checkpoint_every_cycles);
  while (!stepper.advance(next_checkpoint)) {
    write_snapshot_file(ckpt, save_snapshot(stepper));
    next_checkpoint = stepper.now() + options_.checkpoint_every_cycles;
  }
  const SimResults& r = stepper.finish();
  row.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  // A dynamic-timeline run leaves the algorithm holding the timeline's
  // final fault set, which no longer matches the key - only fault-stable
  // instances go back on the free list.
  if (timeline_ptr == nullptr) {
    cache_.check_in(key, std::move(algorithm));
  }

  row.has_results = true;
  row.sim_outcome = r.outcome;
  row.drained = r.drained;
  row.cycles = r.cycles_run;
  row.packets_created = r.packets_created_measured;
  row.packets_delivered = r.packets_delivered_measured;
  row.packets_lost = r.packets_lost;
  row.latency_mean = r.network_latency.mean;
  row.latency_p95 = r.network_latency.p95;

  if (r.outcome == RunOutcome::deadlocked) {
    row.outcome = RequestOutcome::deadlocked;
    row.error = "watchdog tripped after " + std::to_string(r.cycles_run) +
                " cycles";
  } else if (row.seconds > options_.budget.max_seconds) {
    row.outcome = RequestOutcome::timeout;
    row.error = "wall-clock budget exceeded";
  } else if (!r.drained) {
    row.outcome = RequestOutcome::timeout;
    row.error = "cycle budget exhausted before drain";
  } else {
    row.outcome = RequestOutcome::ok;
  }
  return row;
}

}  // namespace deft
