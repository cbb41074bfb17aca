// deft_campaign_chaos: end-to-end chaos smoke for the campaign service.
//
//   $ deft_campaign_chaos --daemon ./deft_campaignd \
//                         --client ./deft_campaign_client [options]
//
// Boots a real deft_campaignd, submits a mixed campaign through the real
// client - valid short runs (repeated scenarios, so the artifact cache
// must warm up), malformed configs, an oversized request, a
// guaranteed-wedging MTR scenario and chaos-injected worker exceptions -
// and asserts that:
//
//   * every request reaches a terminal outcome in
//     ok|failed|deadlocked|timeout|rejected,
//   * each request class lands on its expected outcome,
//   * the daemon never restarts (one PID start to finish),
//   * warm repeated scenarios show algorithm-cache hits in their rows,
//   * with more requests than the queue high-water mark, deferred
//     requests get explicit `overloaded` rows and still finish,
//   * SIGTERM drains in-flight work and writes a resumable manifest
//     covering everything unstarted.
//
// --kill9 switches to the crash-recovery campaign instead: the daemon is
// booted with a write-ahead journal and a checkpoint directory, fed a mix
// of quick and long-running requests (every other long run at two
// shards), SIGKILLed the moment a two-shard run's checkpoint image
// appears, and restarted with the same flags. The recovery assertions:
//
//   * every request still reaches exactly ONE terminal row - nothing is
//     lost, nothing is duplicated, across the kill,
//   * each request class still lands on its expected outcome,
//   * every long run that was mid-flight at kill time (checkpoint on
//     disk, no terminal row yet) resumes from its snapshot, proven by a
//     `resumed_at` cycle in its final row rather than a cycle-0 restart,
//     and at least one of them is a two-shard run.
//
// Options: --requests N (default 1000; default 80 with --kill9),
// --workers N (default 2), --high-water N (default 64), --kill9,
// --keep (do not delete the work dir). The work dir is created under
// $TMPDIR, or /tmp when it is unset or empty.
// Exits 0 when every assertion holds, 1 otherwise.
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/runner.hpp"
#include "service/spool.hpp"

namespace {

using namespace deft;

int g_failures = 0;

void chaos_check(bool ok, const std::string& what) {
  if (ok) {
    return;
  }
  std::fprintf(stderr, "CHAOS FAIL: %s\n", what.c_str());
  ++g_failures;
}

// --- tiny JSONL row access (rows come from ResultRow::to_json) ---------

std::string json_string_field(const std::string& row, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = row.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  std::string out;
  for (std::size_t i = at + needle.size(); i < row.size(); ++i) {
    if (row[i] == '\\' && i + 1 < row.size()) {
      out += row[i + 1];
      ++i;
      continue;
    }
    if (row[i] == '"') {
      break;
    }
    out += row[i];
  }
  return out;
}

bool outcome_terminal(const std::string& outcome) {
  return outcome == "ok" || outcome == "failed" || outcome == "deadlocked" ||
         outcome == "timeout" || outcome == "rejected";
}

// --- subprocess plumbing -----------------------------------------------

pid_t spawn(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execv(cargv[0], cargv.data());
    std::fprintf(stderr, "execv %s: %s\n", cargv[0], std::strerror(errno));
    _exit(127);
  }
  return pid;
}

int run_and_wait(const std::vector<std::string>& argv) {
  const pid_t pid = spawn(argv);
  if (pid < 0) {
    return -1;
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// --- request generation ------------------------------------------------

/// The dynamic fault-event list of the guaranteed-wedging MTR scenario:
/// the two failure waves (cycles 800 and 1100) over the 4-channel pattern
/// that tests/test_fault_dynamic.cpp's goldens pin as leaving MTR unable
/// to drain. Channel-ascending order, first half in the first wave -
/// exactly dyn_timeline(false) there.
std::string wedge_fault_events(std::uint64_t pattern_seed) {
  const ExperimentContext ctx = ExperimentContext::reference(6, pattern_seed);
  const VlFaultSet pattern = grid_fault_pattern(ctx, 4);
  std::vector<std::string> tokens;
  for (int c = 0; c < ctx.topo().num_vl_channels(); ++c) {
    if (!pattern.is_faulty(c)) {
      continue;
    }
    for (int v = 0; v < ctx.topo().num_vls(); ++v) {
      const auto& vl = ctx.topo().vl(static_cast<VlId>(v));
      if (vl.down_vl_channel() == c) {
        tokens.push_back(std::to_string(v) + "v");
      } else if (vl.up_vl_channel() == c) {
        tokens.push_back(std::to_string(v) + "^");
      }
    }
  }
  std::string events;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    events += (i == 0 ? "" : " ");
    events += (i < tokens.size() / 2 ? "800:" : "1100:") + tokens[i];
  }
  return events;
}

std::string valid_config(int variant) {
  // A small rotation of distinct scenarios: repeats of each variant must
  // hit the warm artifact cache.
  static const char* kAlgorithms[] = {"deft", "mtr", "rc"};
  std::ostringstream cfg;
  cfg << "chiplets = 4\n"
      << "algorithm = " << kAlgorithms[variant % 3] << "\n"
      << "traffic = uniform\n"
      << "rate = 0.005\n"
      << "warmup = 50\n"
      << "measure = 300\n"
      << "seed = 42\n";
  if (variant % 2 == 1) {
    cfg << "faults = 0v\n";
  }
  return cfg.str();
}

std::string malformed_config(int variant) {
  switch (variant % 4) {
    case 0:
      return "chiplets = 4\nalgorithn = deft\nrate = nine\n";
    case 1:
      return "chiplets = 4\nrate = 99.0\n";
    case 2:
      return "chiplets = 4\nfault_events = 10:zz\n";
    default:
      return "chiplets = 4\nfault_policy = panic\n";
  }
}

// --- crash-recovery campaign (--kill9) ---------------------------------

/// A run long enough (~60k measured cycles) that the daemon is still
/// mid-simulation when its first checkpoints (every 1000 cycles past
/// 1000) hit the disk - the SIGKILL window. A `sharded` run executes at
/// two shards, so the restart resumes a two-shard checkpoint.
std::string long_config(bool sharded) {
  return std::string("chiplets = 4\nalgorithm = deft\ntraffic = uniform\n"
                     "rate = 0.004\nwarmup = 500\nmeasure = 60000\n"
                     "drain_max = 100000\nseed = 9\n") +
         (sharded ? "shards = 2\n" : "");
}

/// Creates a fresh `deft_chaos_XXXXXX` work directory under $TMPDIR when it
/// is set and non-empty, under /tmp otherwise. Returns "" on failure.
std::string make_work_dir() {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string work = tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp";
  work += "/deft_chaos_XXXXXX";
  if (mkdtemp(work.data()) == nullptr) {
    std::perror("mkdtemp");
    return "";
  }
  return work;
}

int run_kill9(const std::string& daemon_bin, const std::string& client_bin,
              int requests, int workers, bool keep) {
  const std::string work = make_work_dir();
  if (work.empty()) {
    return 1;
  }
  const std::filesystem::path workdir(work);
  const std::filesystem::path spool = workdir / "spool";
  const std::filesystem::path stage = workdir / "stage";
  const std::filesystem::path ckpts = workdir / "checkpoints";
  const std::filesystem::path results = workdir / "results.jsonl";
  const std::filesystem::path manifest = workdir / "manifest.txt";
  const std::filesystem::path journal = workdir / "journal.log";
  std::filesystem::create_directories(stage);
  std::printf("chaos(kill9): work dir %s\n", work.c_str());

  // ---- the campaign: quick ok runs + malformed + long checkpointed ----
  std::map<std::string, std::string> expected;  // id -> expected outcome
  std::set<std::string> long_ids;
  std::set<std::string> sharded_ids;  ///< the long runs at two shards
  std::vector<std::filesystem::path> staged;
  for (int i = 0; i < requests; ++i) {
    char id[64];
    std::string body;
    std::string outcome;
    if (i % 20 == 2) {
      std::snprintf(id, sizeof(id), "long-%04d", i);
      const bool sharded = i % 40 == 22;  // every other long run
      body = long_config(sharded);
      outcome = "ok";
      long_ids.insert(id);
      if (sharded) {
        sharded_ids.insert(id);
      }
    } else if (i % 10 == 7) {
      std::snprintf(id, sizeof(id), "bad-%04d", i);
      body = malformed_config(i);
      outcome = "rejected";
    } else {
      std::snprintf(id, sizeof(id), "ok-%04d", i);
      body = valid_config(i);
      outcome = "ok";
    }
    const std::filesystem::path file = stage / (std::string(id) + ".cfg");
    if (!atomic_write_file(file, body)) {
      std::fprintf(stderr, "error: cannot stage %s\n", file.string().c_str());
      return 1;
    }
    staged.push_back(file);
    expected[id] = outcome;
  }
  std::printf("chaos(kill9): %d requests, %zu long checkpointed runs\n",
              requests, long_ids.size());

  const std::vector<std::string> daemon_argv = {
      daemon_bin,
      "--spool", spool.string(),
      "--results", results.string(),
      "--manifest", manifest.string(),
      "--journal", journal.string(),
      "--checkpoint-dir", ckpts.string(),
      "--checkpoint-min-cycles", "1000",
      "--checkpoint-every", "1000",
      "--workers", std::to_string(workers),
      "--poll-ms", "20"};
  pid_t daemon_pid = spawn(daemon_argv);
  if (daemon_pid < 0) {
    std::perror("fork");
    return 1;
  }

  for (std::size_t at = 0; at < staged.size(); at += 100) {
    std::vector<std::string> cmd = {client_bin, "submit", "--spool",
                                    spool.string()};
    for (std::size_t i = at; i < std::min(at + 100, staged.size()); ++i) {
      cmd.push_back(staged[i].string());
    }
    if (run_and_wait(cmd) != 0) {
      std::fprintf(stderr, "error: client submit failed\n");
      kill(daemon_pid, SIGKILL);
      return 1;
    }
  }

  // ---- wait for a two-shard run's checkpoint, then SIGKILL mid-batch ---
  bool saw_checkpoint = false;
  for (int waited_ms = 0; waited_ms < 120'000; waited_ms += 25) {
    std::error_code ec;
    for (const std::filesystem::directory_entry& entry :
         std::filesystem::directory_iterator(ckpts, ec)) {
      if (entry.path().extension() == ".ckpt" &&
          sharded_ids.count(entry.path().stem().string()) != 0) {
        saw_checkpoint = true;
        break;
      }
    }
    if (saw_checkpoint) {
      break;
    }
    usleep(25 * 1000);
  }
  chaos_check(saw_checkpoint,
        "no two-shard checkpoint image appeared within 120s (long runs "
        "too short, or checkpointing is broken)");
  if (!saw_checkpoint) {
    kill(daemon_pid, SIGKILL);
    return 1;
  }
  kill(daemon_pid, SIGKILL);
  {
    int status = 0;
    waitpid(daemon_pid, &status, 0);
    chaos_check(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
          "daemon did not die by SIGKILL as intended");
  }

  // Snapshot the crash state: which ids already had a terminal row, and
  // which checkpoints were on disk. A checkpointed id WITHOUT a terminal
  // row was mid-flight - after recovery its row must prove it resumed
  // from the snapshot (resumed_at), not from cycle 0.
  std::set<std::string> terminal_at_kill;
  {
    std::ifstream in(results);
    std::string row;
    while (std::getline(in, row)) {
      // The torn final line (if the kill landed mid-append) has no
      // complete outcome field and parses as non-terminal - exactly how
      // the recovering daemon will treat it after truncation.
      if (outcome_terminal(json_string_field(row, "outcome"))) {
        terminal_at_kill.insert(json_string_field(row, "id"));
      }
    }
  }
  std::set<std::string> must_resume;
  {
    std::error_code ec;
    for (const std::filesystem::directory_entry& entry :
         std::filesystem::directory_iterator(ckpts, ec)) {
      const std::string id = entry.path().stem().string();
      if (entry.path().extension() == ".ckpt" &&
          terminal_at_kill.count(id) == 0) {
        must_resume.insert(id);
      }
    }
  }
  std::printf("chaos(kill9): killed daemon with %zu terminal rows durable, "
              "%zu runs mid-flight with checkpoints\n",
              terminal_at_kill.size(), must_resume.size());
  chaos_check(!must_resume.empty(),
        "SIGKILL landed after every checkpointed run finished - no "
        "resume path exercised");
  chaos_check(std::any_of(must_resume.begin(), must_resume.end(),
                          [&](const std::string& id) {
                            return sharded_ids.count(id) != 0;
                          }),
        "no two-shard run was mid-flight at the kill - the sharded "
        "resume path went unexercised");

  // ---- restart with identical flags; recovery must finish the job ----
  daemon_pid = spawn(daemon_argv);
  if (daemon_pid < 0) {
    std::perror("fork");
    return 1;
  }
  {
    std::vector<std::string> cmd = {client_bin,  "wait",
                                    "--results", results.string(),
                                    "--timeout", "900",
                                    "--quiet"};
    for (const auto& [id, outcome] : expected) {
      cmd.push_back(id);
    }
    const int rc = run_and_wait(cmd);
    chaos_check(rc == 0, "client wait exited " + std::to_string(rc) +
                       " (expected 0: all requests terminal post-recovery)");
  }
  kill(daemon_pid, SIGTERM);
  {
    int status = 0;
    waitpid(daemon_pid, &status, 0);
    chaos_check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
          "restarted daemon did not exit cleanly after SIGTERM");
  }

  // ---- exactly-once + resume assertions over the full stream ----------
  std::map<std::string, int> terminal_rows;
  std::map<std::string, std::string> final_outcome;
  std::set<std::string> resumed_ids;
  {
    std::ifstream in(results);
    std::string row;
    while (std::getline(in, row)) {
      const std::string id = json_string_field(row, "id");
      const std::string outcome = json_string_field(row, "outcome");
      if (!outcome_terminal(outcome)) {
        continue;  // overloaded deferral notices are not terminal
      }
      ++terminal_rows[id];
      final_outcome[id] = outcome;
      if (row.find("\"resumed_at\": ") != std::string::npos) {
        resumed_ids.insert(id);
      }
    }
  }
  for (const auto& [id, outcome] : expected) {
    const auto it = terminal_rows.find(id);
    if (it == terminal_rows.end()) {
      chaos_check(false, "request " + id + " lost across SIGKILL: no "
                       "terminal row");
      continue;
    }
    chaos_check(it->second == 1,
          "request " + id + " has " + std::to_string(it->second) +
              " terminal rows (exactly-once violated)");
    chaos_check(final_outcome[id] == outcome,
          "request " + id + ": expected " + outcome + ", got " +
              final_outcome[id]);
  }
  chaos_check(terminal_rows.size() == expected.size(),
        "terminal rows for " + std::to_string(terminal_rows.size()) +
            " ids, expected " + std::to_string(expected.size()));
  for (const std::string& id : must_resume) {
    chaos_check(resumed_ids.count(id) != 0,
          "mid-flight run " + id + " restarted from cycle 0 instead of "
          "resuming from its checkpoint (no resumed_at in its row)");
  }
  // Commit removes a run's checkpoint; after full drain none remain.
  {
    std::size_t leftover = 0;
    std::error_code ec;
    for (const std::filesystem::directory_entry& entry :
         std::filesystem::directory_iterator(ckpts, ec)) {
      leftover += entry.path().extension() == ".ckpt" ? 1 : 0;
    }
    chaos_check(leftover == 0, std::to_string(leftover) +
                             " checkpoint image(s) left after commit");
  }
  std::printf("chaos(kill9): recovery ok - %zu terminal rows, %zu runs "
              "resumed from checkpoints\n",
              terminal_rows.size(), resumed_ids.size());

  if (g_failures == 0 && !keep) {
    std::error_code ec;
    std::filesystem::remove_all(workdir, ec);
  } else if (g_failures != 0) {
    std::printf("chaos(kill9): work dir kept for inspection: %s\n",
                work.c_str());
  }
  if (g_failures != 0) {
    std::fprintf(stderr, "chaos(kill9): %d assertion(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("chaos(kill9): all assertions passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string daemon_bin;
  std::string client_bin;
  int requests = -1;
  int workers = 2;
  int high_water = 64;
  bool kill9 = false;
  bool keep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--daemon") == 0 && i + 1 < argc) {
      daemon_bin = argv[++i];
    } else if (std::strcmp(argv[i], "--client") == 0 && i + 1 < argc) {
      client_bin = argv[++i];
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--high-water") == 0 && i + 1 < argc) {
      high_water = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--kill9") == 0) {
      kill9 = true;
    } else if (std::strcmp(argv[i], "--keep") == 0) {
      keep = true;
    } else {
      std::fprintf(stderr, "usage: deft_campaign_chaos --daemon BIN "
                           "--client BIN [--requests N] [--workers N] "
                           "[--high-water N] [--kill9] [--keep]\n");
      return 1;
    }
  }
  if (requests < 0) {
    requests = kill9 ? 80 : 1000;
  }
  if (daemon_bin.empty() || client_bin.empty() || requests < 10) {
    std::fprintf(stderr, "error: --daemon and --client are required and "
                         "--requests must be >= 10\n");
    return 1;
  }
  if (kill9) {
    return run_kill9(daemon_bin, client_bin, requests, workers, keep);
  }

  const std::string work = make_work_dir();
  if (work.empty()) {
    return 1;
  }
  const std::filesystem::path workdir(work);
  const std::filesystem::path spool = workdir / "spool";
  const std::filesystem::path stage = workdir / "stage";
  const std::filesystem::path results = workdir / "results.jsonl";
  const std::filesystem::path manifest = workdir / "manifest.txt";
  std::filesystem::create_directories(stage);
  std::printf("chaos: work dir %s\n", work.c_str());

  // ---- generate the mixed campaign ------------------------------------
  // ~2% wedge + ~1% chaos + ~10% malformed + 1 oversized; rest valid.
  const std::string wedge_spec = wedge_fault_events(42);
  std::printf("chaos: wedging MTR fault events: %s\n", wedge_spec.c_str());
  const std::string wedge_config =
      "chiplets = 6\nalgorithm = mtr\ntraffic = uniform\nrate = 0.01\n"
      "warmup = 500\nmeasure = 1500\ndrain_max = 6000\nseed = 7\n"
      "fault_policy = drop\nfault_events = " +
      wedge_spec + "\n";

  std::map<std::string, std::string> expected;  // id -> expected outcome
  std::vector<std::filesystem::path> staged;
  int n_wedge = 0;
  int n_chaos = 0;
  int n_bad = 0;
  int n_ok = 0;
  for (int i = 0; i < requests; ++i) {
    char id[64];
    std::string body;
    std::string outcome;
    if (i % 50 == 7) {
      std::snprintf(id, sizeof(id), "wedge-%04d", i);
      body = wedge_config;
      outcome = "timeout";  // wedges by drain-budget exhaustion
      ++n_wedge;
    } else if (i % 97 == 11) {
      std::snprintf(id, sizeof(id), "chaos-%04d", i);
      body = valid_config(i) + "x_chaos = throw\n";
      outcome = "failed";
      ++n_chaos;
    } else if (i % 10 == 3) {
      std::snprintf(id, sizeof(id), "bad-%04d", i);
      body = malformed_config(i);
      outcome = "rejected";
      ++n_bad;
    } else if (i == 5) {
      std::snprintf(id, sizeof(id), "big-%04d", i);
      body = "chiplets = 4\n# pad\n" + std::string(80 * 1024, '#');
      outcome = "rejected";
    } else {
      std::snprintf(id, sizeof(id), "ok-%04d", i);
      body = valid_config(i);
      outcome = "ok";
      ++n_ok;
    }
    const std::filesystem::path file = stage / (std::string(id) + ".cfg");
    if (!atomic_write_file(file, body)) {
      std::fprintf(stderr, "error: cannot stage %s\n", file.string().c_str());
      return 1;
    }
    staged.push_back(file);
    expected[id] = outcome;
  }
  std::printf("chaos: %d requests (%d ok, %d malformed, %d wedge, %d chaos, "
              "1 oversized), high-water %d\n",
              requests, n_ok, n_bad, n_wedge, n_chaos, high_water);

  // ---- boot the daemon -------------------------------------------------
  const pid_t daemon_pid = spawn({daemon_bin, "--spool", spool.string(),
                                  "--results", results.string(),
                                  "--manifest", manifest.string(),
                                  "--workers", std::to_string(workers),
                                  "--high-water", std::to_string(high_water),
                                  "--poll-ms", "20"});
  if (daemon_pid < 0) {
    std::perror("fork");
    return 1;
  }

  // ---- submit through the real client, in chunks ----------------------
  for (std::size_t at = 0; at < staged.size(); at += 100) {
    std::vector<std::string> cmd = {client_bin, "submit", "--spool",
                                    spool.string()};
    for (std::size_t i = at; i < std::min(at + 100, staged.size()); ++i) {
      cmd.push_back(staged[i].string());
    }
    if (run_and_wait(cmd) != 0) {
      std::fprintf(stderr, "error: client submit failed\n");
      kill(daemon_pid, SIGKILL);
      return 1;
    }
  }

  // ---- wait for every request to reach a terminal outcome -------------
  {
    std::vector<std::string> cmd = {client_bin,  "wait",
                                    "--results", results.string(),
                                    "--timeout", "900",
                                    "--quiet"};
    for (const auto& [id, outcome] : expected) {
      cmd.push_back(id);
    }
    const int rc = run_and_wait(cmd);
    chaos_check(rc == 0, "client wait exited " + std::to_string(rc) +
                       " (expected 0: all requests terminal)");
  }

  // The daemon must still be the same process - crash isolation means a
  // chaos-thrown worker exception never took the service down.
  {
    int status = 0;
    const pid_t reaped = waitpid(daemon_pid, &status, WNOHANG);
    chaos_check(reaped == 0, "daemon exited mid-campaign (no-restart violated)");
  }

  // ---- per-request assertions over the JSONL stream -------------------
  std::map<std::string, std::string> final_outcome;
  std::set<std::string> overloaded_ids;
  bool any_algorithm_hit = false;
  {
    std::ifstream in(results);
    std::string row;
    while (std::getline(in, row)) {
      const std::string id = json_string_field(row, "id");
      const std::string outcome = json_string_field(row, "outcome");
      if (outcome == "overloaded") {
        overloaded_ids.insert(id);
        chaos_check(final_outcome.count(id) == 0,
              "overloaded row for " + id + " after its terminal row");
        continue;
      }
      if (outcome_terminal(outcome)) {
        chaos_check(final_outcome.count(id) == 0,
              "duplicate terminal row for " + id);
        final_outcome[id] = outcome;
        if (row.find("\"algorithm\": \"hit\"") != std::string::npos) {
          any_algorithm_hit = true;
        }
      } else {
        chaos_check(false, "row with unknown outcome '" + outcome + "'");
      }
    }
  }
  for (const auto& [id, outcome] : expected) {
    const auto it = final_outcome.find(id);
    if (it == final_outcome.end()) {
      chaos_check(false, "no terminal row for " + id);
      continue;
    }
    if (it->second != outcome) {
      chaos_check(false, "request " + id + ": expected " + outcome + ", got " +
                       it->second);
    }
  }
  chaos_check(any_algorithm_hit,
        "no algorithm-cache hit in any row (repeated scenarios must warm "
        "the artifact cache)");
  if (requests > high_water) {
    chaos_check(!overloaded_ids.empty(),
          "requests exceeded the high-water mark but no overloaded row "
          "was emitted");
  }
  for (const std::string& id : overloaded_ids) {
    chaos_check(final_outcome.count(id) != 0,
          "deferred request " + id + " never reached a terminal outcome");
  }
  std::printf("chaos: campaign done - %zu terminal rows, %zu deferrals, "
              "algorithm cache %s\n",
              final_outcome.size(), overloaded_ids.size(),
              any_algorithm_hit ? "warm" : "cold");

  // ---- SIGTERM drain: submit more work, stop the daemon mid-flight ----
  std::vector<std::string> drain_ids;
  {
    std::vector<std::string> cmd = {client_bin, "submit", "--spool",
                                    spool.string()};
    for (int i = 0; i < 50; ++i) {
      char id[64];
      std::snprintf(id, sizeof(id), "drain-%04d", i);
      const std::filesystem::path file = stage / (std::string(id) + ".cfg");
      // Wedge configs keep the workers busy long enough for SIGTERM to
      // land with requests still unstarted.
      atomic_write_file(file, i % 4 == 0 ? wedge_config : valid_config(i));
      cmd.push_back(file.string());
      drain_ids.push_back(id);
    }
    if (run_and_wait(cmd) != 0) {
      std::fprintf(stderr, "error: client submit (drain phase) failed\n");
      kill(daemon_pid, SIGKILL);
      return 1;
    }
  }
  usleep(200 * 1000);  // let the daemon ingest and start a batch
  kill(daemon_pid, SIGTERM);
  {
    int status = 0;
    waitpid(daemon_pid, &status, 0);
    chaos_check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
          "daemon did not exit cleanly after SIGTERM");
  }

  // Every drain-phase request must be accounted for: either a terminal
  // row was flushed before shutdown, or its file is in the manifest (and
  // still in the spool) for a future daemon to resume.
  chaos_check(std::filesystem::exists(manifest), "no shutdown manifest written");
  std::set<std::string> manifest_ids;
  {
    std::ifstream in(manifest);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) {
        manifest_ids.insert(std::filesystem::path(line).stem().string());
        chaos_check(std::filesystem::exists(line),
              "manifest entry " + line + " is not in the spool");
      }
    }
  }
  std::map<std::string, std::string> post_outcome;
  {
    std::ifstream in(results);
    std::string row;
    while (std::getline(in, row)) {
      const std::string outcome = json_string_field(row, "outcome");
      if (outcome_terminal(outcome)) {
        post_outcome[json_string_field(row, "id")] = outcome;
      }
    }
  }
  std::size_t resumable = 0;
  for (const std::string& id : drain_ids) {
    const bool finished = post_outcome.count(id) != 0;
    const bool manifested = manifest_ids.count(id) != 0;
    chaos_check(finished || manifested,
          "drain request " + id + " lost: no terminal row, not in manifest");
    chaos_check(!(finished && manifested),
          "drain request " + id + " both finished and in manifest");
    resumable += manifested ? 1 : 0;
  }
  std::printf("chaos: SIGTERM drain ok - %zu finished, %zu resumable in "
              "manifest\n",
              drain_ids.size() - resumable, resumable);

  if (g_failures == 0 && !keep) {
    std::error_code ec;
    std::filesystem::remove_all(workdir, ec);
  } else if (g_failures != 0) {
    std::printf("chaos: work dir kept for inspection: %s\n", work.c_str());
  }
  if (g_failures != 0) {
    std::fprintf(stderr, "chaos: %d assertion(s) failed\n", g_failures);
    return 1;
  }
  std::printf("chaos: all assertions passed\n");
  return 0;
}
