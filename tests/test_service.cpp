// Campaign service: request validation, the two-tier artifact cache, the
// engine's outcome taxonomy and the daemon's spool/backpressure/shutdown
// protocol - everything short of the process-level chaos smoke
// (tools/deft_campaign_chaos.cpp covers that end to end).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "service/artifact_cache.hpp"
#include "service/campaign.hpp"
#include "service/daemon.hpp"
#include "service/request.hpp"
#include "service/spool.hpp"
#include "sim/snapshot.hpp"
#include "snapshot_image.hpp"

namespace deft {
namespace {

namespace fs = std::filesystem;

/// Self-deleting unique temp directory for spool/daemon tests.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "deft_service_XXXXXX")
                           .string();
    path_ = mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::string valid_text() {
  return "chiplets = 4\n"
         "algorithm = deft\n"
         "traffic = uniform\n"
         "rate = 0.006\n"
         "warmup = 20\n"
         "measure = 100\n"
         "seed = 11\n";
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------- request

TEST(ValidateRequest, AcceptsAWellFormedConfig) {
  const ValidatedRequest v = validate_request(valid_text(), RunBudget{});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.config.chiplets, 4);
  EXPECT_EQ(v.config.knobs.warmup, 20);
  EXPECT_EQ(v.chaos, ChaosMode::none);
  EXPECT_FALSE(v.budget_clamped);
}

TEST(ValidateRequest, ReportsEveryBadLineWithItsNumber) {
  // Line 2 and line 4 are independently malformed; the validator reads
  // on past each bad line, so both must be reported.
  const std::string text =
      "chiplets = 4\n"
      "algorithn = deft\n"
      "rate = 0.006\n"
      "warmup = soon\n";
  const ValidatedRequest v = validate_request(text, RunBudget{});
  ASSERT_EQ(v.errors.size(), 2u);
  EXPECT_EQ(v.errors[0].line, 2);
  EXPECT_NE(v.errors[0].message.find("unknown key"), std::string::npos);
  EXPECT_EQ(v.errors[1].line, 4);
  EXPECT_NE(v.errors[1].message.find("integer"), std::string::npos);

  // An empty key and a line without `=` are bad lines like any other.
  const ValidatedRequest w = validate_request(
      "= 3\nbogus = 1\nchiplets 4\nrate = fast\n", RunBudget{});
  ASSERT_EQ(w.errors.size(), 4u);
  EXPECT_EQ(w.errors[0].line, 1);
  EXPECT_EQ(w.errors[0].message, "config: empty key on line 1");
  EXPECT_EQ(w.errors[1].line, 2);
  EXPECT_EQ(w.errors[1].message, "config: line 2: unknown key 'bogus'");
  EXPECT_EQ(w.errors[2].line, 3);
  EXPECT_EQ(w.errors[2].message, "config: line 3 is not 'key = value'");
  EXPECT_EQ(w.errors[3].line, 4);
  EXPECT_EQ(w.errors[3].message,
            "config: line 4: key 'rate' expects a number, got 'fast'");
}

TEST(ValidateRequest, ReportsUnknownSystemsAndTrafficWithTheirLines) {
  // Both used to pass validation; the engine then rejected them at its
  // prepare stage, with line 0.
  const std::string text =
      "chiplets = 5\n"
      "algorithm = deft\n"
      "traffic = unifrom\n"
      "rate = 0.006\n";
  const ValidatedRequest v = validate_request(text, RunBudget{});
  ASSERT_EQ(v.errors.size(), 2u);
  EXPECT_EQ(v.errors[0].line, 1);
  EXPECT_NE(v.errors[0].message.find("must be 4 or 6"), std::string::npos);
  EXPECT_EQ(v.errors[1].line, 3);
  EXPECT_NE(v.errors[1].message.find("unknown traffic pattern 'unifrom'"),
            std::string::npos);
}

TEST(ValidateRequest, ErrorCollectionIsCapped) {
  std::string text;
  for (int i = 0; i < 40; ++i) {
    text += "bogus_key_" + std::to_string(i) + " = 1\n";
  }
  const ValidatedRequest v = validate_request(text, RunBudget{});
  EXPECT_FALSE(v.ok());
  EXPECT_LE(v.errors.size(), 6u);

  // Service keys count against the same cap: 3,000 unknown `x_` keys
  // (35 KB, under the request size limit) give the first five errors.
  std::string service;
  for (int i = 0; i < 3000; ++i) {
    service += "x_k" + std::to_string(i) + " = 1\n";
  }
  ASSERT_LT(service.size(), RunBudget{}.max_request_bytes);
  const ValidatedRequest s = validate_request(service, RunBudget{});
  ASSERT_EQ(s.errors.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(s.errors[static_cast<std::size_t>(i)].line, i + 1);
  }
}

TEST(ValidateRequest, RejectsOversizedRequestsUnparsed) {
  RunBudget budget;
  budget.max_request_bytes = 128;
  const std::string text = valid_text() + std::string(1024, '#');
  const ValidatedRequest v = validate_request(text, budget);
  ASSERT_EQ(v.errors.size(), 1u);
  EXPECT_EQ(v.errors[0].line, 0);
  EXPECT_NE(v.errors[0].message.find("exceeds"), std::string::npos);
}

TEST(ValidateRequest, ParsesAndStripsServiceKeys) {
  const ValidatedRequest v =
      validate_request("x_chaos = throw\n" + valid_text(), RunBudget{});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.chaos, ChaosMode::throw_in_worker);
}

TEST(ValidateRequest, ServiceKeyLinesKeepCoreLineNumbersStable) {
  // The x_ line is stripped before the core parse, but line numbers in
  // errors must still refer to the original file.
  const std::string text =
      "x_chaos = throw\n"
      "chiplets = 4\n"
      "rate = fast\n";
  const ValidatedRequest v = validate_request(text, RunBudget{});
  ASSERT_EQ(v.errors.size(), 1u);
  EXPECT_EQ(v.errors[0].line, 3);
}

TEST(ValidateRequest, RejectsUnknownServiceKeys) {
  const ValidatedRequest v =
      validate_request(valid_text() + "x_priority = 9\n", RunBudget{});
  ASSERT_EQ(v.errors.size(), 1u);
  EXPECT_EQ(v.errors[0].line, 8);
  EXPECT_NE(v.errors[0].message.find("x_priority"), std::string::npos);
}

TEST(ValidateRequest, ServiceAndCoreErrorsComeInLineOrder) {
  const ValidatedRequest v =
      validate_request("bogus = 1\nx_bad = 2\n", RunBudget{});
  ASSERT_EQ(v.errors.size(), 2u);
  EXPECT_EQ(v.errors[0].line, 1);
  EXPECT_EQ(v.errors[0].message, "config: line 1: unknown key 'bogus'");
  EXPECT_EQ(v.errors[1].line, 2);
  EXPECT_EQ(v.errors[1].message, "unknown service key 'x_bad'");
}

TEST(ValidateRequest, RejectsRequestsWhoseCoreCyclesExceedTheBudget) {
  RunBudget budget;
  budget.max_cycles = 100;
  const ValidatedRequest v = validate_request(valid_text(), budget);
  ASSERT_EQ(v.errors.size(), 1u);
  EXPECT_NE(v.errors[0].message.find("per-run budget"), std::string::npos);
}

TEST(ValidateRequest, ClampsDrainAndWatchdogIntoTheBudget) {
  RunBudget budget;
  budget.max_cycles = 1000;
  const std::string text =
      "chiplets = 4\nwarmup = 100\nmeasure = 400\ndrain_max = 100000\n";
  const ValidatedRequest v = validate_request(text, budget);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.budget_clamped);
  EXPECT_LE(v.config.knobs.warmup + v.config.knobs.measure +
                v.config.knobs.drain_max,
            budget.max_cycles);
  EXPECT_LE(v.config.knobs.watchdog_cycles, budget.max_cycles);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

// ---------------------------------------------------------- artifact cache

TEST(ArtifactCache, ContextsAreSharedAndCounted) {
  ArtifactCache cache(4);
  bool hit = true;
  const auto a = cache.context(4, 42, &hit);
  EXPECT_FALSE(hit);
  const auto b = cache.context(4, 42, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());
  const auto c = cache.context(4, 7, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(a.get(), c.get());
  const ArtifactCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.context_hits, 1u);
  EXPECT_EQ(counters.context_misses, 2u);
  EXPECT_EQ(cache.cached_contexts(), 2u);
}

TEST(ArtifactCache, AlgorithmLeaseHitsAfterCheckIn) {
  ArtifactCache cache(4);
  const auto ctx = cache.context(4, 42);
  DesignKey key;
  key.fault_spec = VlFaultSet{}.to_string();
  bool hit = true;
  auto lease = cache.checkout_algorithm(key, *ctx, {}, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(lease, nullptr);
  RoutingAlgorithm* raw = lease.get();
  // While leased the instance is exclusively owned - a second checkout
  // must build a distinct one.
  auto second = cache.checkout_algorithm(key, *ctx, {}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(second.get(), raw);
  cache.check_in(key, std::move(lease));
  EXPECT_EQ(cache.cached_algorithms(), 1u);
  auto third = cache.checkout_algorithm(key, *ctx, {}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(third.get(), raw);
  EXPECT_EQ(cache.counters().algorithm_hits, 1u);
  EXPECT_EQ(cache.counters().algorithm_misses, 2u);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedIdleAlgorithms) {
  ArtifactCache cache(2);
  const auto ctx = cache.context(4, 42);
  auto key_for = [](Algorithm algorithm) {
    DesignKey key;
    key.algorithm = algorithm;
    key.fault_spec = VlFaultSet{}.to_string();
    return key;
  };
  // Check in three idle instances under distinct keys with capacity 2:
  // the oldest must be evicted.
  for (Algorithm algorithm :
       {Algorithm::deft, Algorithm::mtr, Algorithm::rc}) {
    cache.check_in(key_for(algorithm), ctx->make_algorithm(algorithm));
  }
  EXPECT_EQ(cache.cached_algorithms(), 2u);
  EXPECT_GE(cache.counters().evictions, 1u);
  bool hit = true;
  auto oldest = cache.checkout_algorithm(key_for(Algorithm::deft), *ctx,
                                         {}, &hit);
  EXPECT_FALSE(hit);  // deft went in first: the LRU victim
  auto newest = cache.checkout_algorithm(key_for(Algorithm::rc), *ctx, {},
                                         &hit);
  EXPECT_TRUE(hit);
}

// ----------------------------------------------------------------- engine

CampaignRequest make_request(const std::string& id, const std::string& text) {
  return CampaignRequest{id, "", text};
}

TEST(CampaignEngine, MixedBatchLandsEveryOutcome) {
  CampaignOptions options;
  options.workers = 2;
  CampaignEngine engine(options);
  std::vector<CampaignRequest> batch;
  batch.push_back(make_request("good", valid_text()));
  batch.push_back(make_request("bad", "chiplets = 4\nrate = fast\n"));
  batch.push_back(
      make_request("chaos", valid_text() + "x_chaos = throw\n"));
  // drain_max = 0 at a hot rate cannot drain: the cycle budget expires
  // with packets still in flight -> `timeout` with partial results.
  batch.push_back(make_request(
      "stuck",
      "chiplets = 4\nrate = 0.05\nwarmup = 50\nmeasure = 200\n"
      "drain_max = 0\nseed = 3\n"));
  batch.push_back(make_request("good-again", valid_text()));

  const std::vector<ResultRow> rows = engine.run_batch(batch);
  ASSERT_EQ(rows.size(), 5u);

  EXPECT_EQ(rows[0].outcome, RequestOutcome::ok);
  EXPECT_TRUE(rows[0].has_results);
  EXPECT_EQ(rows[0].sim_outcome, RunOutcome::completed);
  EXPECT_TRUE(rows[0].drained);

  EXPECT_EQ(rows[1].outcome, RequestOutcome::rejected);
  ASSERT_EQ(rows[1].errors.size(), 1u);
  EXPECT_EQ(rows[1].errors[0].line, 2);

  // The chaos request failed alone; its exception never disturbed the
  // rest of the batch.
  EXPECT_EQ(rows[2].outcome, RequestOutcome::failed);
  EXPECT_NE(rows[2].error.find("chaos"), std::string::npos);

  EXPECT_EQ(rows[3].outcome, RequestOutcome::timeout);
  EXPECT_TRUE(rows[3].has_results);  // partial results still reported
  EXPECT_FALSE(rows[3].drained);

  EXPECT_EQ(rows[4].outcome, RequestOutcome::ok);

  for (const ResultRow& row : rows) {
    EXPECT_TRUE(request_outcome_terminal(row.outcome)) << row.id;
  }

  // Identical scenario re-run once the batch is back: the design artifacts
  // must come from the cache. (Inside the batch the two workers may run
  // "good" and "good-again" at once, and then both miss.)
  const ResultRow again =
      engine.run_batch({make_request("good-again", valid_text())})[0];
  EXPECT_EQ(again.outcome, RequestOutcome::ok);
  EXPECT_TRUE(again.cache_context_hit);
  EXPECT_TRUE(again.cache_algorithm_hit);
}

TEST(CampaignEngine, RepeatedBatchesAreBitIdentical) {
  // The artifact cache leases mutable algorithm instances; reuse must not
  // leak state between runs of the same scenario.
  CampaignOptions options;
  options.workers = 1;
  CampaignEngine engine(options);
  const std::vector<CampaignRequest> batch = {
      make_request("r", valid_text())};
  const ResultRow cold = engine.run_batch(batch)[0];
  const ResultRow warm = engine.run_batch(batch)[0];
  ASSERT_TRUE(cold.has_results);
  ASSERT_TRUE(warm.has_results);
  EXPECT_FALSE(cold.cache_algorithm_hit);
  EXPECT_TRUE(warm.cache_algorithm_hit);
  EXPECT_EQ(cold.packets_created, warm.packets_created);
  EXPECT_EQ(cold.packets_delivered, warm.packets_delivered);
  EXPECT_EQ(cold.cycles, warm.cycles);
  EXPECT_EQ(cold.latency_mean, warm.latency_mean);
}

TEST(CampaignEngine, BadFaultChannelIsRejectedAtPrepare) {
  CampaignOptions options;
  options.workers = 1;
  CampaignEngine engine(options);
  const std::vector<ResultRow> rows = engine.run_batch(
      {make_request("r", valid_text() + "faults = 999v\n")});
  EXPECT_EQ(rows[0].outcome, RequestOutcome::rejected);
  ASSERT_FALSE(rows[0].errors.empty());
  // The deferred topology-time resolution still carries the source line.
  EXPECT_NE(rows[0].errors[0].message.find("line 8"), std::string::npos);
}

TEST(CampaignEngine, ClampedBudgetTimesOutWithPartialResults) {
  // The clamp path end to end: drain_max is squeezed into max_cycles at
  // validation (budget_clamped), and a rate the clamped window cannot
  // drain must come back `timeout` - with the clamp flag and the partial
  // results visible in the row, never as a rejection or an error.
  CampaignOptions options;
  options.workers = 1;
  options.budget.max_cycles = 1000;
  CampaignEngine engine(options);
  const std::vector<ResultRow> rows = engine.run_batch({make_request(
      "clamped",
      "chiplets = 4\nrate = 0.05\nwarmup = 100\nmeasure = 400\n"
      "drain_max = 100000\nseed = 3\n")});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].outcome, RequestOutcome::timeout);
  EXPECT_TRUE(rows[0].budget_clamped);
  EXPECT_TRUE(rows[0].has_results);
  EXPECT_FALSE(rows[0].drained);
  EXPECT_LE(rows[0].cycles, options.budget.max_cycles);
  EXPECT_NE(rows[0].error.find("cycle budget"), std::string::npos);
  const std::string json = rows[0].to_json();
  EXPECT_NE(json.find("\"outcome\": \"timeout\""), std::string::npos);
  EXPECT_NE(json.find("\"budget_clamped\": true"), std::string::npos);
}

TEST(ResultRow, ToJsonEscapesAndStructures) {
  ResultRow row;
  row.id = "we\"ird";
  row.outcome = RequestOutcome::rejected;
  row.errors.push_back({3, "bad \"value\""});
  const std::string json = row.to_json();
  EXPECT_NE(json.find("\"id\": \"we\\\"ird\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"rejected\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("bad \\\"value\\\""), std::string::npos);
}

// ------------------------------------------------------------------ spool

TEST(Spool, AtomicWriteScanAndManifest) {
  TempDir dir;
  EXPECT_TRUE(atomic_write_file(dir.path() / "b.cfg", "two"));
  EXPECT_TRUE(atomic_write_file(dir.path() / "a.cfg", "one"));
  EXPECT_TRUE(atomic_write_file(dir.path() / "ignored.txt", "not a req"));
  const auto files = scan_spool(dir.path());
  ASSERT_EQ(files.size(), 2u);  // sorted, .cfg only, no leftover .tmp
  EXPECT_EQ(files[0].filename(), "a.cfg");
  EXPECT_EQ(files[1].filename(), "b.cfg");

  EXPECT_TRUE(write_manifest(dir.path() / "manifest.txt", files));
  std::ifstream in(dir.path() / "manifest.txt");
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(fs::path(line), files[0]);

  EXPECT_TRUE(scan_spool(dir.path() / "does_not_exist").empty());
  const auto text = read_file_with_retry(dir.path() / "a.cfg", 2, 1);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "one");
  EXPECT_FALSE(
      read_file_with_retry(dir.path() / "missing.cfg", 2, 1).has_value());
}

TEST(Spool, DurableAppenderAppendsCompleteLines) {
  TempDir dir;
  const fs::path path = dir.path() / "stream.jsonl";
  DurableAppender out;
  EXPECT_FALSE(out.is_open());
  EXPECT_FALSE(out.append_line("before open"));
  ASSERT_TRUE(out.open(path));
  EXPECT_TRUE(out.is_open());
  EXPECT_TRUE(out.append_line("first"));
  EXPECT_TRUE(out.append_line("second"));
  out.close();
  EXPECT_FALSE(out.is_open());
  // Reopen appends after the existing content, never truncates.
  ASSERT_TRUE(out.open(path));
  EXPECT_TRUE(out.append_line("third"));
  out.close();
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first");
  EXPECT_EQ(lines[2], "third");
  EXPECT_FALSE(
      DurableAppender{}.open(dir.path() / "no_such_dir" / "x.jsonl"));
}

TEST(Spool, TruncatePartialTrailingLineRepairsTornAppends) {
  TempDir dir;
  const fs::path path = dir.path() / "torn.jsonl";
  // Missing and empty files are no-ops.
  EXPECT_EQ(truncate_partial_trailing_line(path), 0u);
  ASSERT_TRUE(atomic_write_file(path, ""));
  EXPECT_EQ(truncate_partial_trailing_line(path), 0u);
  // Complete lines are untouched.
  ASSERT_TRUE(atomic_write_file(path, "one\ntwo\n"));
  EXPECT_EQ(truncate_partial_trailing_line(path), 0u);
  EXPECT_EQ(read_lines(path).size(), 2u);
  // A torn trailing line is dropped back to the last newline.
  ASSERT_TRUE(atomic_write_file(path, "one\ntwo\n{\"id\": \"t"));
  EXPECT_EQ(truncate_partial_trailing_line(path), 9u);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "two");
  // A file that is ALL torn line truncates to empty.
  ASSERT_TRUE(atomic_write_file(path, "no newline at all"));
  EXPECT_EQ(truncate_partial_trailing_line(path), 17u);
  EXPECT_TRUE(read_lines(path).empty());
}

// ----------------------------------------------------------------- daemon

DaemonOptions daemon_options(const TempDir& dir) {
  DaemonOptions options;
  options.spool_dir = dir.path() / "spool";
  options.results_path = dir.path() / "results.jsonl";
  options.manifest_path = dir.path() / "manifest.txt";
  options.engine.workers = 1;
  options.read_backoff_ms = 1;
  return options;
}

void submit(const DaemonOptions& options, const std::string& id,
            const std::string& text) {
  ASSERT_TRUE(atomic_write_file(
      options.spool_dir / (id + kSpoolExtension), text));
}

TEST(CampaignDaemon, ProcessesSpooledRequestsAndUnlinksThem) {
  TempDir dir;
  DaemonOptions options = daemon_options(dir);
  CampaignDaemon daemon(options);
  submit(options, "one", valid_text());
  submit(options, "two", "chiplets = 4\nrate = fast\n");
  ASSERT_EQ(daemon.run_pass(), 2u);
  EXPECT_TRUE(scan_spool(options.spool_dir).empty());  // done -> unlinked
  const auto lines = read_lines(options.results_path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\": \"one\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"outcome\": \"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\": \"two\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"outcome\": \"rejected\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"line\": 2"), std::string::npos);
}

TEST(CampaignDaemon, BackpressureDefersBeyondHighWaterWithOneNotice) {
  TempDir dir;
  DaemonOptions options = daemon_options(dir);
  options.queue_high_water = 2;
  options.batch_max = 1;  // drain slowly so the queue stays full
  CampaignDaemon daemon(options);
  for (int i = 0; i < 5; ++i) {
    submit(options, "req-" + std::to_string(i), valid_text());
  }
  daemon.run_pass();
  // Two queued (one ran), three deferred with exactly one overloaded row
  // each; deferral notices are not repeated on the next pass.
  auto count_overloaded = [&] {
    std::size_t n = 0;
    for (const std::string& line : read_lines(options.results_path)) {
      n += line.find("\"outcome\": \"overloaded\"") != std::string::npos;
    }
    return n;
  };
  EXPECT_EQ(count_overloaded(), 3u);
  daemon.run_pass();
  EXPECT_EQ(count_overloaded(), 3u);
  // Keep running passes: every request must eventually land a terminal
  // ok row (deferred ones get picked up as the queue drains).
  for (int i = 0; i < 10 && !scan_spool(options.spool_dir).empty(); ++i) {
    daemon.run_pass();
  }
  std::size_t ok_rows = 0;
  for (const std::string& line : read_lines(options.results_path)) {
    ok_rows += line.find("\"outcome\": \"ok\"") != std::string::npos;
  }
  EXPECT_EQ(ok_rows, 5u);
}

TEST(CampaignDaemon, ShutdownWritesResumableManifest) {
  TempDir dir;
  DaemonOptions options = daemon_options(dir);
  options.queue_high_water = 8;
  options.batch_max = 1;
  {
    CampaignDaemon daemon(options);
    for (int i = 0; i < 4; ++i) {
      submit(options, "req-" + std::to_string(i), valid_text());
    }
    daemon.run_pass();  // finishes req-0, leaves 1..3 spooled
    daemon.shutdown();
    const auto manifest = read_lines(options.manifest_path);
    ASSERT_EQ(manifest.size(), 3u);
    for (const std::string& line : manifest) {
      EXPECT_TRUE(fs::exists(line)) << line;
    }
  }
  // A fresh daemon over the same spool resumes exactly the manifest set.
  CampaignDaemon resumed(options);
  while (!scan_spool(options.spool_dir).empty()) {
    resumed.run_pass();
  }
  std::size_t ok_rows = 0;
  for (const std::string& line : read_lines(options.results_path)) {
    ok_rows += line.find("\"outcome\": \"ok\"") != std::string::npos;
  }
  EXPECT_EQ(ok_rows, 4u);
}

// ------------------------------------------------ checkpoints + recovery

/// Engine with per-run checkpointing into `dir`/checkpoints, thresholds
/// small enough that even the short test scenario checkpoints.
CampaignOptions checkpointed_options(const TempDir& dir) {
  CampaignOptions options;
  options.workers = 1;
  options.checkpoint_dir = dir.path() / "checkpoints";
  options.checkpoint_min_cycles = 10;
  options.checkpoint_every_cycles = 50;
  fs::create_directories(options.checkpoint_dir);
  return options;
}

TEST(CampaignEngine, CheckpointingDoesNotChangeResults) {
  TempDir dir;
  CampaignOptions plain_options;
  plain_options.workers = 1;
  CampaignEngine plain(plain_options);
  const ResultRow expected =
      plain.run_batch({make_request("r", valid_text())})[0];

  CampaignEngine engine(checkpointed_options(dir));
  const ResultRow row = engine.run_batch({make_request("r", valid_text())})[0];
  EXPECT_EQ(row.outcome, RequestOutcome::ok);
  EXPECT_EQ(row.resumed_at, -1);  // no prior image: started at cycle 0
  EXPECT_EQ(row.packets_created, expected.packets_created);
  EXPECT_EQ(row.packets_delivered, expected.packets_delivered);
  EXPECT_EQ(row.cycles, expected.cycles);
  EXPECT_EQ(row.latency_mean, expected.latency_mean);
  EXPECT_EQ(row.latency_p95, expected.latency_p95);
  // The engine leaves the last image behind; deleting after the row is
  // durable is the daemon's commit step, not the engine's.
  EXPECT_TRUE(fs::exists(dir.path() / "checkpoints" /
                         ("r" + std::string(kCheckpointExtension))));
}

TEST(CampaignEngine, ResumesFromACheckpointImage) {
  // Same id again: the image the first run left behind must be restored -
  // the run reports the cycle it resumed from and still lands on results
  // bit-identical to the uninterrupted run. A checkpointed run honours
  // `shards`, and an image holds no execution shape, so the image a
  // two-shard run leaves behind resumes at one shard just as well.
  struct Leg {
    const char* id;
    std::string writer;
    std::string resumer;
  };
  const Leg legs[] = {
      {"r", valid_text(), valid_text()},
      {"sharded", valid_text() + "shards = 2\n",
       valid_text() + "shards = 1\n"},
  };
  TempDir dir;
  const CampaignOptions options = checkpointed_options(dir);
  CampaignEngine engine(options);
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.id);
    const ResultRow first =
        engine.run_batch({make_request(leg.id, leg.writer)})[0];
    ASSERT_EQ(first.outcome, RequestOutcome::ok);
    const ResultRow resumed =
        engine.run_batch({make_request(leg.id, leg.resumer)})[0];
    EXPECT_EQ(resumed.outcome, RequestOutcome::ok);
    EXPECT_GE(resumed.resumed_at, options.checkpoint_min_cycles);
    EXPECT_EQ(resumed.drained, first.drained);
    EXPECT_EQ(resumed.packets_created, first.packets_created);
    EXPECT_EQ(resumed.packets_delivered, first.packets_delivered);
    EXPECT_EQ(resumed.packets_lost, first.packets_lost);
    EXPECT_EQ(resumed.cycles, first.cycles);
    EXPECT_EQ(resumed.latency_mean, first.latency_mean);
    EXPECT_EQ(resumed.latency_p95, first.latency_p95);
    EXPECT_NE(resumed.to_json().find("\"resumed_at\": "),
              std::string::npos);
    EXPECT_EQ(first.to_json().find("\"resumed_at\": "), std::string::npos);
  }
}

TEST(CampaignEngine, CorruptCheckpointRestartsCleanFromCycleZero) {
  CampaignOptions plain_options;
  plain_options.workers = 1;
  CampaignEngine plain(plain_options);
  const ResultRow expected =
      plain.run_batch({make_request("r", valid_text())})[0];

  TempDir dir;
  const CampaignOptions options = checkpointed_options(dir);
  const fs::path image = options.checkpoint_dir /
                         ("r" + std::string(kCheckpointExtension));
  CampaignEngine engine(options);
  // A real checkpoint of the same request, edited so that its DeFT stream
  // holds three words instead of four and re-sealed: it passes every
  // header check and fails inside the restore.
  ASSERT_EQ(engine.run_batch({make_request("r", valid_text())})[0].outcome,
            RequestOutcome::ok);
  std::vector<std::uint8_t> short_stream = read_snapshot_file(image);
  const std::size_t at = algorithm_stream_count_offset(short_stream);
  ASSERT_EQ(image_u64(short_stream, at), 4u);
  set_image_u64(short_stream, at, 3);
  reseal(short_stream);
  // The same checkpoint stamped with the previous format version, as a
  // build before the last bump wrote it: rejected on the version.
  std::vector<std::uint8_t> older_format = read_snapshot_file(image);
  older_format.at(8) = static_cast<std::uint8_t>(kSnapshotVersion - 1);

  const std::string inputs[] = {
      "this is not a snapshot",
      std::string(short_stream.begin(), short_stream.end()),
      std::string(older_format.begin(), older_format.end())};
  for (const std::string& bytes : inputs) {
    SCOPED_TRACE(bytes.size());
    ASSERT_TRUE(atomic_write_file(image, bytes));
    const ResultRow row =
        engine.run_batch({make_request("r", valid_text())})[0];
    EXPECT_EQ(row.outcome, RequestOutcome::ok) << row.error;
    EXPECT_EQ(row.resumed_at, -1);  // the bad image was discarded
    EXPECT_EQ(row.packets_created, expected.packets_created);
    EXPECT_EQ(row.cycles, expected.cycles);
    EXPECT_EQ(row.latency_mean, expected.latency_mean);
  }
}

TEST(CampaignDaemon, RemovesCheckpointImageAtCommit) {
  TempDir dir;
  DaemonOptions options = daemon_options(dir);
  options.engine.checkpoint_dir = dir.path() / "checkpoints";
  options.engine.checkpoint_min_cycles = 10;
  options.engine.checkpoint_every_cycles = 50;
  CampaignDaemon daemon(options);
  submit(options, "one", valid_text());
  ASSERT_EQ(daemon.run_pass(), 1u);
  // The run checkpointed (thresholds are tiny), then commit removed the
  // image along with the spool file.
  EXPECT_TRUE(scan_spool(options.spool_dir).empty());
  EXPECT_FALSE(fs::exists(options.engine.checkpoint_dir /
                          ("one" + std::string(kCheckpointExtension))));
}

TEST(CampaignDaemon, RecoveryReconcilesDurableRowsAgainstTheSpool) {
  TempDir dir;
  DaemonOptions options = daemon_options(dir);
  options.journal_path = dir.path() / "journal.log";
  options.engine.checkpoint_dir = dir.path() / "checkpoints";
  fs::create_directories(options.spool_dir);
  fs::create_directories(options.engine.checkpoint_dir);
  // The crash window: the row for "dup" was fsync'd but the process died
  // before the journal commit, the spool unlink and the checkpoint
  // removal. Reconstruct that state by hand.
  ASSERT_TRUE(atomic_write_file(options.results_path,
                                "{\"id\": \"dup\", \"outcome\": \"ok\"}\n"));
  ASSERT_TRUE(atomic_write_file(options.journal_path, "started dup\n"));
  ASSERT_TRUE(atomic_write_file(options.spool_dir / "dup.cfg", valid_text()));
  ASSERT_TRUE(atomic_write_file(options.engine.checkpoint_dir /
                                    ("dup" + std::string(kCheckpointExtension)),
                                "stale image"));

  CampaignDaemon daemon(options);
  EXPECT_EQ(daemon.recovered(), 1u);
  // Recovery finished the interrupted commit: spool file and checkpoint
  // gone, commit journalled - and the request is NOT re-run.
  EXPECT_TRUE(scan_spool(options.spool_dir).empty());
  EXPECT_TRUE(fs::is_empty(options.engine.checkpoint_dir));
  EXPECT_EQ(daemon.run_pass(), 0u);
  std::size_t dup_rows = 0;
  for (const std::string& line : read_lines(options.results_path)) {
    dup_rows += line.find("\"id\": \"dup\"") != std::string::npos;
  }
  EXPECT_EQ(dup_rows, 1u);  // exactly once, across the simulated crash
  bool committed = false;
  for (const std::string& line : read_lines(options.journal_path)) {
    committed = committed || line == "committed dup";
  }
  EXPECT_TRUE(committed);
}

TEST(CampaignDaemon, RecoveryTruncatesTornRowsAndRerunsTheirRequests) {
  TempDir dir;
  DaemonOptions options = daemon_options(dir);
  options.journal_path = dir.path() / "journal.log";
  fs::create_directories(options.spool_dir);
  // A SIGKILL mid-append left a torn final row for "torn"; its spool file
  // is still present (files are unlinked only after a *complete* durable
  // row), so after truncation it must simply run again - once.
  ASSERT_TRUE(atomic_write_file(
      options.results_path,
      "{\"id\": \"done\", \"outcome\": \"rejected\"}\n"
      "{\"id\": \"torn\", \"outc"));
  ASSERT_TRUE(atomic_write_file(options.journal_path,
                                "started torn\npartial jour"));
  ASSERT_TRUE(atomic_write_file(options.spool_dir / "torn.cfg",
                                valid_text()));

  CampaignDaemon daemon(options);
  EXPECT_EQ(daemon.recovered(), 0u);  // "done" has no spool file left
  ASSERT_EQ(daemon.run_pass(), 1u);
  const auto lines = read_lines(options.results_path);
  ASSERT_EQ(lines.size(), 2u);  // the torn fragment is gone
  EXPECT_NE(lines[0].find("\"id\": \"done\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\": \"torn\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"outcome\": \"ok\""), std::string::npos);
  for (const std::string& line : read_lines(options.journal_path)) {
    EXPECT_NE(line, "partial jour");
  }
}

TEST(CampaignDaemon, ChaosRequestFailsAloneAndDaemonKeepsServing) {
  TempDir dir;
  DaemonOptions options = daemon_options(dir);
  CampaignDaemon daemon(options);
  submit(options, "boomer", valid_text() + "x_chaos = throw\n");
  submit(options, "steady", valid_text());
  ASSERT_EQ(daemon.run_pass(), 2u);
  const auto lines = read_lines(options.results_path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"outcome\": \"failed\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"outcome\": \"ok\""), std::string::npos);
  // And the daemon is still fully operational afterwards.
  submit(options, "after", valid_text());
  EXPECT_EQ(daemon.run_pass(), 1u);
}

}  // namespace
}  // namespace deft
