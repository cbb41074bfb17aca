// deft_campaignd: the crash-isolated, backpressured scenario-campaign
// daemon (docs/operations.md).
//
//   $ deft_campaignd --spool SPOOL_DIR [options]
//
// Watches SPOOL_DIR for "<id>.cfg" request files (the deft_sim config
// format plus service keys), runs them across a worker pool with
// per-request fault isolation and per-run budgets, and appends one JSONL
// result row per request to the results stream. SIGTERM/SIGINT drain the
// in-flight batch, flush results, and write a resumable manifest.
//
// Options (defaults in brackets):
//   --spool DIR        spool directory (required; created if missing)
//   --results FILE     JSONL results stream [<spool>/results.jsonl]
//   --manifest FILE    shutdown manifest    [<spool>/manifest.txt]
//   --workers N        pool width           [hardware concurrency]
//   --high-water N     queue high-water mark before overload [256]
//   --batch N          max requests per pool dispatch [64]
//   --poll-ms N        spool poll interval [50]
//   --cache-cap N      artifact-cache capacity per tier [32]
//   --max-cycles N     per-run cycle budget [2000000]
//   --max-seconds S    per-run wall-clock budget [60]
//   --journal FILE     write-ahead journal of started/committed records
//                      (crash recovery, docs/operations.md) [disabled]
//   --checkpoint-dir DIR      per-run snapshot images; interrupted runs
//                             resume from them after a crash [disabled]
//   --checkpoint-min-cycles N first checkpoint threshold [100000]
//   --checkpoint-every N      cycles between checkpoints [100000]
//   --once             process the current spool content, then exit
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/daemon.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

long parse_long(const char* flag, const char* value, long lo, long hi) {
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < lo || parsed > hi) {
    std::fprintf(stderr, "error: %s expects an integer in [%ld, %ld]\n",
                 flag, lo, hi);
    std::exit(1);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deft;
  DaemonOptions options;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--spool") == 0) {
      options.spool_dir = value();
    } else if (std::strcmp(arg, "--results") == 0) {
      options.results_path = value();
    } else if (std::strcmp(arg, "--manifest") == 0) {
      options.manifest_path = value();
    } else if (std::strcmp(arg, "--workers") == 0) {
      options.engine.workers =
          static_cast<int>(parse_long(arg, value(), 1, 1024));
    } else if (std::strcmp(arg, "--high-water") == 0) {
      options.queue_high_water =
          static_cast<std::size_t>(parse_long(arg, value(), 1, 1'000'000));
    } else if (std::strcmp(arg, "--batch") == 0) {
      options.batch_max =
          static_cast<std::size_t>(parse_long(arg, value(), 1, 1'000'000));
    } else if (std::strcmp(arg, "--poll-ms") == 0) {
      options.poll_ms = static_cast<int>(parse_long(arg, value(), 1, 60'000));
    } else if (std::strcmp(arg, "--cache-cap") == 0) {
      options.engine.cache_capacity =
          static_cast<std::size_t>(parse_long(arg, value(), 1, 1'000'000));
    } else if (std::strcmp(arg, "--max-cycles") == 0) {
      options.engine.budget.max_cycles =
          parse_long(arg, value(), 1, 1'000'000'000);
    } else if (std::strcmp(arg, "--max-seconds") == 0) {
      options.engine.budget.max_seconds =
          static_cast<double>(parse_long(arg, value(), 1, 86'400));
    } else if (std::strcmp(arg, "--journal") == 0) {
      options.journal_path = value();
    } else if (std::strcmp(arg, "--checkpoint-dir") == 0) {
      options.engine.checkpoint_dir = value();
    } else if (std::strcmp(arg, "--checkpoint-min-cycles") == 0) {
      options.engine.checkpoint_min_cycles =
          parse_long(arg, value(), 1, 1'000'000'000);
    } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
      options.engine.checkpoint_every_cycles =
          parse_long(arg, value(), 1, 1'000'000'000);
    } else if (std::strcmp(arg, "--once") == 0) {
      once = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg);
      return 1;
    }
  }
  if (options.spool_dir.empty()) {
    std::fprintf(stderr, "usage: deft_campaignd --spool DIR [options]\n");
    return 1;
  }
  if (options.results_path.empty()) {
    options.results_path = options.spool_dir / "results.jsonl";
  }
  if (options.manifest_path.empty()) {
    options.manifest_path = options.spool_dir / "manifest.txt";
  }

  std::signal(SIGTERM, handle_stop);
  std::signal(SIGINT, handle_stop);

  try {
    CampaignDaemon daemon(options);
    std::printf("deft_campaignd: spool %s, results %s, %d workers, "
                "high-water %zu\n",
                options.spool_dir.string().c_str(),
                options.results_path.string().c_str(),
                daemon.engine().workers(), options.queue_high_water);
    std::fflush(stdout);
    std::size_t rows = 0;
    if (once) {
      // Drain the spool that exists right now, then exit cleanly (used
      // by smoke tests and one-shot campaign runs).
      while (g_stop == 0) {
        if (daemon.run_pass() == 0 && daemon.queue_size() == 0) {
          break;
        }
      }
      daemon.shutdown();
      rows = daemon.rows_written();
    } else {
      rows = daemon.run(&g_stop);
    }
    const ArtifactCache::Counters c = daemon.engine().cache().counters();
    std::printf("deft_campaignd: wrote %zu rows; cache ctx %llu/%llu "
                "alg %llu/%llu hit/miss, %llu evictions; %s\n",
                rows, static_cast<unsigned long long>(c.context_hits),
                static_cast<unsigned long long>(c.context_misses),
                static_cast<unsigned long long>(c.algorithm_hits),
                static_cast<unsigned long long>(c.algorithm_misses),
                static_cast<unsigned long long>(c.evictions),
                g_stop != 0 ? "stopped by signal (manifest written)"
                            : "spool drained");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deft_campaignd: fatal: %s\n", e.what());
    return 1;
  }
}
