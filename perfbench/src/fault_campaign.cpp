// fault_campaign: the campaign service in steady state. A CampaignDaemon
// with one engine worker, a journal and checkpoints is driven in-process
// through run_pass() by one closed-loop client that keeps kOutstanding
// requests in flight, publishing each with atomic_write_file. Requests
// are short 4-chiplet runs at campaign rates for DeFT, MTR or RC under
// static, non-disconnecting faults; design keys are Zipf-skewed over more
// designs than the algorithm tier holds. About 15% carry fault events,
// 5% are long enough to be checkpointed, 2% are malformed. Per-run fixed
// costs, low-load cycles, fault surgery, snapshots and service I/O
// dominate; the router pipeline does little.
//
// The traced run re-executes the same requests through the public calls
// the engine makes (validate_request, ArtifactCache, make_traffic,
// SimStepper, save_snapshot / write_snapshot_file, restore_snapshot) and
// checks them against the daemon's rows.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>

#include "service/daemon.hpp"
#include "sim/snapshot.hpp"
#include "simrun.hpp"
#include "topology/builder.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kChiplets = 4;
constexpr int kContextSeeds = 3;
constexpr int kDesigns = 96;  ///< Zipf-ranked; the algorithm tier holds 32
constexpr int kWarmDesigns = 32;
constexpr std::size_t kCacheCapacity = 32;
constexpr std::size_t kPoolSize = 1024;  ///< distinct requests per round
constexpr std::size_t kOutstanding = 64;  ///< client's requests in flight
constexpr std::size_t kBatchMax = 16;     ///< daemon requests per pass
/// Passes without a row, while requests are in flight, before the client
/// gives up on them.
constexpr int kMaxIdlePasses = 8;
constexpr deft::Cycle kCheckpointCycles = 4'000;

const deft::Algorithm kAlgorithms[] = {
    deft::Algorithm::deft, deft::Algorithm::mtr, deft::Algorithm::rc};

struct Design {
  std::uint64_t ctx_seed = 0;
  deft::Algorithm algorithm = deft::Algorithm::deft;
  deft::VlFaultSet faults;
};

struct Request {
  std::string key;  ///< pin key prefix: warm<i> or pool<i>
  std::string text;
  bool malformed = false;
  bool timeline = false;
};

/// "<vl>v" / "<vl>^": a channel as request files name it (down = 2 * vl).
std::string channel_token(deft::VlChannelId c) {
  return std::to_string(c / 2) + (c % 2 == 0 ? 'v' : '^');
}

/// The tokens of a fault set.
std::string fault_tokens(const deft::VlFaultSet& faults) {
  std::string out;
  for (const deft::VlChannelId c : faults.channels()) {
    if (!out.empty()) {
      out += ' ';
    }
    out += channel_token(c);
  }
  return out;
}

std::string request_text(const Design& d, const std::string& traffic,
                         double rate, deft::Cycle warmup,
                         deft::Cycle measure) {
  char rate_buf[32];
  std::snprintf(rate_buf, sizeof(rate_buf), "%.5f", rate);
  return "chiplets = " + std::to_string(kChiplets) +
         "\nalgorithm = " + deft::algorithm_name(d.algorithm) +
         "\ntraffic = " + traffic + "\nrate = " + rate_buf +
         "\nseed = " + std::to_string(d.ctx_seed) +
         "\nwarmup = " + std::to_string(warmup) +
         "\nmeasure = " + std::to_string(measure) +
         "\nfaults = " + fault_tokens(d.faults) + "\n";
}

/// The seed's whole input: context seeds, the design catalogue, the
/// warm-up requests (one per top design) and one round of requests.
struct Catalogue {
  std::vector<Design> designs;
  std::vector<Request> warmup;
  std::vector<Request> pool;
};

template <typename T>
void shuffle(std::vector<T>& v, deft::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform(i)]);
  }
}

/// n draws from (0, 1), one in each interval [k/n, (k+1)/n), in seeded
/// order: the sample's distribution, and so the round's cost, barely
/// varies with the seed.
std::vector<double> stratified(deft::Rng& rng, std::size_t n) {
  std::vector<double> q(n);
  for (std::size_t k = 0; k < n; ++k) {
    q[k] = (static_cast<double>(k) + rng.uniform_real()) /
           static_cast<double>(n);
  }
  shuffle(q, rng);
  return q;
}

/// n flags, exactly round(share * n) of them set, in seeded order.
std::vector<char> exact_share(deft::Rng& rng, std::size_t n, double share) {
  std::vector<char> flags(n, 0);
  const auto set =
      static_cast<std::size_t>(share * static_cast<double>(n) + 0.5);
  std::fill(flags.begin(), flags.begin() + static_cast<std::ptrdiff_t>(set),
            1);
  shuffle(flags, rng);
  return flags;
}

Catalogue make_catalogue(std::uint64_t seed) {
  const deft::Topology topo(deft::make_reference_spec(kChiplets));
  const int channels = topo.num_vl_channels();
  deft::Rng rng(seed);
  Catalogue cat;

  std::uint64_t ctx_seeds[kContextSeeds];
  for (std::uint64_t& s : ctx_seeds) {
    s = 1 + rng.uniform(1'000'000);
  }
  // Adds one random channel to `set` that keeps every chiplet connected.
  auto add_channel = [&](deft::VlFaultSet& set) {
    for (;;) {
      const auto c = static_cast<deft::VlChannelId>(
          rng.uniform(static_cast<std::uint64_t>(channels)));
      deft::VlFaultSet trial = set;
      trial.set_faulty(c);
      if (!set.is_faulty(c) && !trial.disconnects_any_chiplet(topo)) {
        set = trial;
        return c;
      }
    }
  };
  // The nine most popular designs are fault-free (one per context seed
  // and algorithm); the rest carry 1-6 faulty channels.
  for (int d = 0; d < kDesigns; ++d) {
    Design design;
    design.ctx_seed = ctx_seeds[d % kContextSeeds];
    design.algorithm = kAlgorithms[(d / kContextSeeds) % 3];
    const int faults = d < 9 ? 0 : 1 + d % 6;
    while (design.faults.count() < faults) {
      add_channel(design.faults);
    }
    cat.designs.push_back(design);
  }
  std::vector<double> zipf_cdf;
  double total = 0.0;
  for (int d = 0; d < kDesigns; ++d) {
    total += 1.0 / (d + 1);
    zipf_cdf.push_back(total);
  }

  for (int d = 0; d < kWarmDesigns; ++d) {
    cat.warmup.push_back(Request{"warm" + std::to_string(d),
                                 request_text(cat.designs[d], "uniform",
                                              0.002, 100, 1'000)});
  }

  const std::size_t n = kPoolSize;
  const std::vector<double> design_q = stratified(rng, n);
  const std::vector<double> rate_q = stratified(rng, n);
  const std::vector<double> traffic_q = stratified(rng, n);
  const std::vector<double> length_q = stratified(rng, n);
  const std::vector<char> long_tail = exact_share(rng, n, 0.05);
  const std::vector<char> timeline = exact_share(rng, n, 0.15);
  const std::vector<char> repaired = exact_share(rng, n, 0.5);
  const std::vector<char> reroute = exact_share(rng, n, 0.5);
  const std::vector<char> malformed = exact_share(rng, n, 0.02);
  const char* traffics[] = {"uniform", "hotspot", "localized"};
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.key = "pool" + std::to_string(i);
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(),
                         design_q[i] * total) -
        zipf_cdf.begin());
    const Design& d = cat.designs[std::min<std::size_t>(rank, kDesigns - 1)];
    const std::string traffic = traffics[static_cast<int>(traffic_q[i] * 3)];
    const double rate = 0.0005 * std::pow(20.0, rate_q[i]);  // 0.0005-0.01
    const deft::Cycle warmup = long_tail[i] ? 1'000 : 100;
    const deft::Cycle measure =
        long_tail[i] ? 8'000 + static_cast<deft::Cycle>(4'000 * length_q[i])
                     : 1'000;
    r.text = request_text(d, traffic, rate, warmup, measure);

    if (timeline[i]) {
      // One more channel fails mid-measure (never disconnecting), and is
      // repaired later in half the requests.
      r.timeline = true;
      deft::VlFaultSet after = d.faults;
      const deft::VlChannelId c = add_channel(after);
      const std::string channel = channel_token(c);
      const deft::Cycle fail_at =
          warmup + static_cast<deft::Cycle>(
                       rng.uniform(static_cast<std::uint64_t>(measure / 2)));
      std::string events = std::to_string(fail_at) + ":" + channel;
      if (repaired[i]) {
        const deft::Cycle repair_at =
            fail_at + 200 + static_cast<deft::Cycle>(rng.uniform(600));
        events += ' ' + std::to_string(repair_at) + ":" + channel + ":repair";
      }
      r.text += "fault_events = " + events +
                "\nfault_policy = " + (reroute[i] ? "reroute" : "drop") + "\n";
    }

    if (malformed[i]) {
      // Each defect must come back `rejected`.
      r.malformed = true;
      const char* defects[] = {
          "rate = 1.5\n",                          // out of range
          "algorithm = xy\n",                      // unknown algorithm
          "bogus_key = 1\n",                       // unknown key
          "faults = 99v\n",                        // channel off the topology
          "warmup = 1500000\nmeasure = 1000000\n"  // over the cycle budget
      };
      r.text += defects[rng.uniform(std::size(defects))];
    }
    cat.pool.push_back(std::move(r));
  }
  return cat;
}

/// Raw text of the first `"key": value` in a JSON row: a string's
/// contents, an object or array with its brackets, or a bare literal.
std::string json_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  std::size_t i = line.find(needle);
  if (i == std::string::npos) {
    return "";
  }
  i += needle.size();
  if (line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    return line.substr(i + 1, end - i - 1);
  }
  if (line[i] != '{' && line[i] != '[') {
    const std::size_t end = line.find_first_of(",}", i);
    return line.substr(i, end - i);
  }
  int depth = 0;
  bool in_string = false;
  for (std::size_t j = i; j < line.size(); ++j) {
    const char c = line[j];
    if (in_string) {
      if (c == '\\') {
        ++j;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      return line.substr(i, j - i + 1);
    }
  }
  return "";
}

/// "<outcome>:<digest>" of a row's deterministic content: the outcome,
/// the rejection errors and the simulated statistics (not the id, cache
/// flags or wall-clock seconds).
std::string row_digest(const std::string& row_json) {
  const std::string outcome = json_value(row_json, "outcome");
  Digest d;
  d.add(outcome);
  d.add(json_value(row_json, "errors"));
  d.add(json_value(row_json, "sim"));
  return outcome + ":" + d.hex();
}

/// One result row as the client reads it back.
struct Row {
  std::string id;
  std::string json;
  double seconds = 0.0;
  double cycles = 0.0;
};

/// Reads rows the daemon appended to its results stream since last time.
class ResultsReader {
 public:
  explicit ResultsReader(fs::path path) : path_(std::move(path)) {}

  std::vector<Row> read_new() {
    std::ifstream in(path_, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(offset_));
    const std::string chunk{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    std::vector<Row> rows;
    std::size_t start = 0;
    for (std::size_t nl; (nl = chunk.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      Row row;
      row.json = chunk.substr(start, nl - start);
      row.id = json_value(row.json, "id");
      row.seconds = std::atof(json_value(row.json, "seconds").c_str());
      row.cycles = std::atof(json_value(row.json, "cycles").c_str());
      rows.push_back(std::move(row));
    }
    offset_ += start;
    return rows;
  }

 private:
  fs::path path_;
  std::size_t offset_ = 0;
};

/// What one phase of daemon traffic observed.
struct DaemonPhase {
  double rows = 0.0;
  double row_seconds = 0.0;  ///< sum of ResultRow::seconds
  /// The rows up to the last pass end at which a whole number of rounds
  /// of the request mix (1,024 rows each) had come back. The rows after
  /// it, the drain of the final round with fewer requests outstanding,
  /// are left out.
  TimedPhase timed;
  std::vector<double> pass_ms;
  std::vector<double> publish_us;
  std::map<std::string, double> outcomes;
};

class FaultCampaign {
 public:
  explicit FaultCampaign(const Options& options)
      : options_(options),
        book_(options),
        tracer_(options.trace),
        catalogue_(make_catalogue(options.seed)) {}

  WorkloadResult run();

 private:
  /// A fresh daemon in its own directory, then one untimed warm-up pass
  /// that builds every context (VL tables, MTR plans) and fills the
  /// algorithm tier with the top designs.
  void setup();
  deft::DaemonOptions daemon_options(const fs::path& dir) const;
  /// Publishes pool requests (whole rounds, `rounds` of them or, when
  /// rounds == 0, until options.seconds have passed) and runs passes until
  /// every row is back.
  DaemonPhase drive(const std::vector<Request>& requests, int rounds);
  void verify_row(const Request& request, const Row& row);
  /// Per-request state the engine keeps across requests.
  struct Replay {
    deft::ArtifactCache cache{kCacheCapacity};
    deft::SimWorkspace ws;
    deft::SimWorkspace restore_ws;
  };
  /// Re-executes every warm-up and first-round request through the
  /// engine's calls, once untraced and once traced, and checks both.
  void reexecute();
  /// One request the way CampaignEngine::run_one runs it, under `tracer`;
  /// adds the simulation's host seconds (ResultRow::seconds) to
  /// `seconds`. A traced replay also resumes its last checkpoint.
  bool replay(const Request& request, std::uint32_t run_id, Tracer& tracer,
              Replay& state, double& seconds);
  void trace_metrics(const DaemonPhase& phase,
                     const deft::ArtifactCache::Counters& before,
                     const deft::ArtifactCache::Counters& after);

  const Options& options_;
  OutputBook book_;
  Tracer tracer_;
  Catalogue catalogue_;
  fs::path dir_;
  std::unique_ptr<deft::CampaignDaemon> daemon_;
  std::unique_ptr<ResultsReader> reader_;
  std::uint64_t next_id_ = 0;
  int setups_done_ = 0;
  std::set<std::uint32_t> timeline_runs_;  ///< traced run ids with events
  SimTotals totals_;                       ///< traced replays
  double replay_untraced_s_ = 0.0;
  double replay_traced_s_ = 0.0;
  WorkloadResult result_;
};

deft::DaemonOptions FaultCampaign::daemon_options(const fs::path& dir) const {
  deft::DaemonOptions o;
  o.spool_dir = dir / "spool";
  o.results_path = dir / "results.jsonl";
  o.manifest_path = dir / "manifest.txt";
  o.journal_path = dir / "journal.log";
  o.engine.workers = 1;
  o.engine.cache_capacity = kCacheCapacity;
  o.engine.checkpoint_dir = dir / "checkpoints";
  o.engine.checkpoint_min_cycles = kCheckpointCycles;
  o.engine.checkpoint_every_cycles = kCheckpointCycles;
  o.batch_max = kBatchMax;
  return o;
}

void FaultCampaign::setup() {
  daemon_.reset();
  std::error_code ec;
  if (!dir_.empty()) {
    fs::remove_all(dir_, ec);
  }
  dir_ = options_.work_dir / ("fault_campaign-" + std::to_string(::getpid()) +
                              "-" + std::to_string(setups_done_++));
  fs::remove_all(dir_, ec);
  fs::create_directories(dir_, ec);
  const deft::DaemonOptions o = daemon_options(dir_);
  daemon_ = std::make_unique<deft::CampaignDaemon>(o);
  reader_ = std::make_unique<ResultsReader>(o.results_path);
  drive(catalogue_.warmup, 1);
}

DaemonPhase FaultCampaign::drive(const std::vector<Request>& requests,
                                 int rounds) {
  struct Inflight {
    const Request* request;
    Clock::time_point published;
  };
  std::map<std::string, Inflight> inflight;
  const fs::path spool = dir_ / "spool";
  DaemonPhase phase;
  const Clock::time_point start = Clock::now();
  TimedPhase timed;
  const auto round = static_cast<double>(requests.size());
  double next_cut = round;
  std::size_t published = 0;
  bool publishing = true;
  int idle_passes = 0;
  while (publishing || !inflight.empty()) {
    while (publishing && inflight.size() < kOutstanding) {
      const Request& r = requests[published % requests.size()];
      char id[32];
      std::snprintf(id, sizeof(id), "r%09llu",
                    static_cast<unsigned long long>(next_id_++));
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      {
        ScopedSpan span(tracer_, "service.publish", 0);
        ok = deft::atomic_write_file(spool / (std::string(id) + ".cfg"),
                                     r.text);
      }
      phase.publish_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      if (ok) {
        inflight.emplace(id, Inflight{&r, t0});
      } else {
        std::fprintf(stderr, "perfbench: cannot publish %s\n", id);
        result_.ops.add(false);
      }
      ++published;
      if (published % requests.size() == 0) {
        const bool more_rounds =
            rounds > 0
                ? published < static_cast<std::size_t>(rounds) * requests.size()
                : !options_.smoke &&
                      seconds_between(start, Clock::now()) < options_.seconds;
        publishing = more_rounds;
      }
    }
    const Clock::time_point pass_start = Clock::now();
    {
      ScopedSpan span(tracer_, "service.run_pass", 0);
      daemon_->run_pass();
    }
    const Clock::time_point pass_end = Clock::now();
    phase.pass_ms.push_back(seconds_between(pass_start, pass_end) * 1e3);
    const std::vector<Row> rows = reader_->read_new();
    for (const Row& row : rows) {
      const auto it = inflight.find(row.id);
      if (it == inflight.end()) {
        std::fprintf(stderr, "perfbench: unexpected row %s\n",
                     row.json.c_str());
        result_.ops.add(false);
        continue;
      }
      timed.latencies_ms.push_back(
          seconds_between(it->second.published, pass_end) * 1e3);
      phase.rows += 1.0;
      timed.runs += 1.0;
      timed.cycles += row.cycles;
      phase.row_seconds += row.seconds;
      phase.outcomes[json_value(row.json, "outcome")] += 1.0;
      verify_row(*it->second.request, row);
      inflight.erase(it);
    }
    if (timed.runs >= next_cut) {
      timed.seconds = seconds_between(start, pass_end);
      phase.timed = timed;
      next_cut += round;
    }
    // Every pass ingests the whole spool, so a pass that returns no row
    // while requests are outstanding means their rows will never come.
    idle_passes = rows.empty() ? idle_passes + 1 : 0;
    if (idle_passes >= kMaxIdlePasses) {
      std::fprintf(stderr, "perfbench: %zu requests got no row in %d passes\n",
                   inflight.size(), kMaxIdlePasses);
      for (std::size_t i = 0; i < inflight.size(); ++i) {
        result_.ops.add(false);
      }
      break;
    }
  }
  return phase;
}

void FaultCampaign::verify_row(const Request& request, const Row& row) {
  const std::string digest = row_digest(row.json);
  const std::string expected = request.malformed ? "rejected:" : "ok:";
  bool ok = book_.check(request.key + "/row", digest);
  if (digest.rfind(expected, 0) != 0) {
    std::fprintf(stderr, "perfbench: %s expected %s row, got %s\n",
                 request.key.c_str(), expected.c_str(), row.json.c_str());
    ok = false;
  }
  result_.ops.add(ok);
}

void FaultCampaign::reexecute() {
  // A private cache per side, each fed the daemon's first-visit order
  // (warm-up, then one round), so both repeat the daemon's first-round
  // cache behaviour. Untraced and traced replays of a request run back to
  // back in alternating order, so host drift hits both alike.
  Tracer untraced(false);
  Replay plain;
  Replay traced;
  std::vector<const Request*> order;
  for (const Request& r : catalogue_.warmup) {
    order.push_back(&r);
  }
  for (const Request& r : catalogue_.pool) {
    order.push_back(&r);
  }
  std::uint32_t run_id = 0;
  for (const Request* request : order) {
    ++run_id;
    if (request->timeline) {
      timeline_runs_.insert(run_id);
    }
    for (int side = 0; side < 2; ++side) {
      const bool trace = (side == 0) == (run_id % 2 == 0);
      result_.ops.add(guarded(request->key, [&] {
        return trace ? replay(*request, run_id, tracer_, traced,
                              replay_traced_s_)
                     : replay(*request, run_id, untraced, plain,
                              replay_untraced_s_);
      }));
    }
  }
  std::error_code ec;
  fs::remove(dir_ / "replay.ckpt", ec);
}

bool FaultCampaign::replay(const Request& request, std::uint32_t run_id,
                           Tracer& tracer, Replay& state, double& seconds) {
  const deft::RunBudget budget;
  const fs::path ckpt = dir_ / "replay.ckpt";
  ScopedSpan run_span(tracer, "run", run_id);
  deft::ValidatedRequest validated;
  {
    ScopedSpan span(tracer, "service.validate", run_id);
    validated = deft::validate_request(request.text, budget);
  }
  deft::ResultRow row;
  row.id = request.key;
  if (!validated.ok()) {
    row.outcome = deft::RequestOutcome::rejected;
    row.errors = validated.errors;
    return book_.check(request.key + "/row", row_digest(row.to_json()));
  }
  const deft::SimulationConfig& config = validated.config;
  std::shared_ptr<const deft::ExperimentContext> ctx;
  {
    ScopedSpan span(tracer, "service.cache_context", run_id);
    ctx = state.cache.context(config.chiplets, config.knobs.seed,
                              &row.cache_context_hit);
    span.set_work(row.cache_context_hit ? 0 : 1);
  }
  if (!row.cache_context_hit) {
    // A new context's design-time artifacts, which the engine builds
    // lazily inside its first checkouts.
    {
      ScopedSpan span(tracer, "vlsel.tables", run_id);
      ctx->vl_tables();
    }
    ScopedSpan span(tracer, "routing.mtr_plan", run_id);
    ctx->mtr_plan();
  }
  deft::VlFaultSet faults;
  deft::FaultTimeline timeline;
  std::unique_ptr<deft::TrafficGenerator> traffic;
  try {
    faults = config.faults(ctx->topo());
    timeline = config.fault_events(ctx->topo());
    ScopedSpan span(tracer, "traffic.build", run_id);
    traffic = config.make_traffic(ctx->topo());
  } catch (const std::exception& e) {
    row.outcome = deft::RequestOutcome::rejected;
    row.errors.push_back({0, e.what()});
    return book_.check(request.key + "/row", row_digest(row.to_json()));
  }
  const deft::DesignKey key{config.chiplets,    config.knobs.seed,
                            config.algorithm,   config.vl_strategy,
                            config.knobs.num_vcs, faults.to_string()};
  std::unique_ptr<deft::RoutingAlgorithm> algorithm;
  {
    ScopedSpan span(tracer, "routing.checkout", run_id);
    bool hit = false;
    algorithm = state.cache.checkout_algorithm(key, *ctx, faults, &hit);
    span.set_work(hit ? 0 : 1);
  }
  const deft::FaultTimeline* timeline_ptr =
      timeline.empty() ? nullptr : &timeline;

  std::vector<std::uint8_t> last_image;
  CheckpointPolicy checkpoints{
      kCheckpointCycles, kCheckpointCycles,
      [&](const deft::SimStepper& stepper) {
        {
          ScopedSpan span(tracer, "snapshot.save", run_id);
          last_image = deft::save_snapshot(stepper);
          span.set_work(static_cast<std::int64_t>(last_image.size()));
        }
        ScopedSpan span(tracer, "snapshot.write", run_id);
        deft::write_snapshot_file(ckpt, last_image);
      }};
  const Clock::time_point t0 = Clock::now();
  std::string digest;
  {
    ScopedSpan span(tracer, "sim.run", run_id);
    deft::Simulator sim(ctx->topo(), *algorithm, *traffic, config.knobs,
                        faults, timeline_ptr, config.fault_policy);
    const deft::SimResults& r = run_stepped(tracer, run_id, sim, state.ws,
                                            config.knobs, &checkpoints);
    if (tracer.enabled()) {
      totals_.add(r);
    }
    row.seconds = seconds_between(t0, Clock::now());
    row.has_results = true;
    row.sim_outcome = r.outcome;
    row.drained = r.drained;
    row.cycles = r.cycles_run;
    row.packets_created = r.packets_created_measured;
    row.packets_delivered = r.packets_delivered_measured;
    row.packets_lost = r.packets_lost;
    row.latency_mean = r.network_latency.mean;
    row.latency_p95 = r.network_latency.p95;
    row.outcome = r.outcome == deft::RunOutcome::deadlocked
                      ? deft::RequestOutcome::deadlocked
                  : row.seconds > budget.max_seconds || !r.drained
                      ? deft::RequestOutcome::timeout
                      : deft::RequestOutcome::ok;
    digest = sim_digest(r);
  }
  if (timeline_ptr == nullptr) {
    state.cache.check_in(key, std::move(algorithm));
  }
  seconds += row.seconds;
  bool ok = book_.check(request.key + "/row", row_digest(row.to_json()));
  ok &= book_.check(request.key + "/sim", digest);

  if (tracer.enabled() && !last_image.empty()) {
    // Resume the last checkpoint in a fresh simulator: it must finish
    // bit-identical to the uninterrupted run.
    const auto fresh = ctx->make_algorithm(config.algorithm, faults,
                                           config.knobs.num_vcs,
                                           config.vl_strategy);
    const auto fresh_traffic = config.make_traffic(ctx->topo());
    deft::Simulator sim(ctx->topo(), *fresh, *fresh_traffic, config.knobs,
                        faults, timeline_ptr, config.fault_policy);
    deft::SimStepper stepper;
    const std::vector<std::uint8_t> image = deft::read_snapshot_file(ckpt);
    {
      ScopedSpan span(tracer, "snapshot.restore", run_id);
      deft::restore_snapshot(image, sim, stepper, state.restore_ws);
    }
    stepper.advance();
    ok &= book_.check(request.key + "/sim", sim_digest(stepper.finish()));
  }
  return ok;
}

void FaultCampaign::trace_metrics(
    const DaemonPhase& phase, const deft::ArtifactCache::Counters& before,
    const deft::ArtifactCache::Counters& after) {
  LayerMetrics& layers = result_.layers;
  double context_builds_ns = 0.0;
  for (const double ns : tracer_.durations("service.cache_context", 1)) {
    context_builds_ns += ns;
  }
  layers.set("topology.build_ms", context_builds_ns / 1e6);
  layers.set("vlsel.tables_s", tracer_.total_ns("vlsel.tables") / 1e9);
  layers.set("routing.mtr_plan_s", tracer_.total_ns("routing.mtr_plan") / 1e9);
  const std::vector<double> builds = tracer_.durations("routing.checkout", 1);
  layers.set("routing.algorithm_build_ms", median(builds) / 1e6);
  layers.set("routing.algorithm_builds", static_cast<double>(builds.size()));
  layers.set("traffic.build_ms",
             median(tracer_.durations("traffic.build")) / 1e6);
  emit_stepped_metrics(tracer_, totals_.flit_hops, layers);
  totals_.emit(layers);

  // Phase self time per cycle, split by whether the run had fault events.
  const std::vector<double> self = tracer_.self_times();
  double ns[2] = {0.0, 0.0};
  double cycles[2] = {0.0, 0.0};
  std::vector<double> snapshot_bytes;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Tracer::Span& s = tracer_.spans()[i];
    const std::string_view name = s.name;
    if (name == "sim.warmup" || name == "sim.measure" || name == "sim.drain") {
      const int group = timeline_runs_.count(s.run) != 0 ? 1 : 0;
      ns[group] += self[i];
      cycles[group] += static_cast<double>(s.work);
    } else if (name == "snapshot.save") {
      snapshot_bytes.push_back(static_cast<double>(s.work));
    }
  }
  layers.set("sim.static_ns_per_cycle", cycles[0] > 0 ? ns[0] / cycles[0] : 0);
  layers.set("sim.timeline_ns_per_cycle",
             cycles[1] > 0 ? ns[1] / cycles[1] : 0);
  layers.set("snapshot.save_us",
             median(tracer_.durations("snapshot.save")) / 1e3);
  layers.set("snapshot.write_us",
             median(tracer_.durations("snapshot.write")) / 1e3);
  layers.set("snapshot.restore_us",
             median(tracer_.durations("snapshot.restore")) / 1e3);
  layers.set("snapshot.bytes", median(snapshot_bytes));

  layers.set("service.validate_us",
             median(tracer_.durations("service.validate")) / 1e3);
  layers.set("service.pass_ms", median(phase.pass_ms));
  double pass_s = 0.0;
  for (const double ms : phase.pass_ms) {
    pass_s += ms / 1e3;
  }
  layers.set("service.rows_per_pass",
             phase.rows / static_cast<double>(phase.pass_ms.size()));
  layers.set("service.sim_share", pass_s > 0 ? phase.row_seconds / pass_s : 0);
  auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
  };
  layers.set("service.context_hit_ratio",
             ratio(after.context_hits - before.context_hits,
                   after.context_misses - before.context_misses));
  layers.set("service.algorithm_hit_ratio",
             ratio(after.algorithm_hits - before.algorithm_hits,
                   after.algorithm_misses - before.algorithm_misses));
  layers.set("service.evictions",
             static_cast<double>(after.evictions - before.evictions));
  layers.set("service.publish_us", median(phase.publish_us));
  layers.set("service.row_latency_samples",
             static_cast<double>(phase.timed.latencies_ms.size()));
  for (const char* outcome :
       {"ok", "timeout", "deadlocked", "rejected", "failed"}) {
    const auto it = phase.outcomes.find(outcome);
    layers.set(std::string("service.rows_") + outcome,
               it == phase.outcomes.end() ? 0.0 : it->second);
  }

  layers.set("trace.overhead_pct",
             overhead_pct(replay_traced_s_, replay_untraced_s_));
}

WorkloadResult FaultCampaign::run() {
  result_.e2e.setup_s = timed_setups(options_, [this] { setup(); });
  if (!options_.trace) {
    result_.e2e.phase = drive(catalogue_.pool, 0).timed;
  } else {
    const deft::ArtifactCache::Counters before =
        daemon_->engine().cache().counters();
    const DaemonPhase phase = drive(catalogue_.pool, options_.trace_passes());
    const deft::ArtifactCache::Counters after =
        daemon_->engine().cache().counters();
    reexecute();
    trace_metrics(phase, before, after);
  }
  book_.save();
  if (tracer_.enabled()) {
    write_trace(options_, tracer_);
  }
  daemon_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
  return std::move(result_);
}

}  // namespace

WorkloadResult run_fault_campaign(const Options& options) {
  return FaultCampaign(options).run();
}

}  // namespace perfbench
