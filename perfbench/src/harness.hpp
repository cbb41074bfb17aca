// perfbench shared infrastructure: options, output digests and pins, the
// span tracer, and the metric report every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The seed whose outputs are pinned under pins/<workload>.txt.
inline constexpr std::uint64_t kPinnedSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny size for the smoke test: one setup, one pass of every phase.
  bool smoke = false;
  std::filesystem::path work_dir;     ///< campaign spool, checkpoints, trace
  std::filesystem::path pins_dir;     ///< pinned outputs of kPinnedSeed
  std::filesystem::path record_pins;  ///< non-empty: write observed outputs
  Clock::time_point process_start;

  /// Set-ups per invocation: untraced runs report the median of three.
  int setups() const { return trace || smoke ? 1 : 3; }
  /// Fixed passes of a traced phase (traced counts are exact per seed).
  int trace_passes() const { return smoke ? 1 : 3; }
};

/// FNV-1a over the fields fed to it.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of a run's simulated statistics: cycles, flit hops, packets
/// created / delivered / lost / unroutable, drain and outcome flags, and
/// both latency summaries.
std::string sim_digest(const deft::SimResults& r);

/// Expected outputs. At kPinnedSeed every observed value must equal its
/// pin; at any seed a key observed twice (a repeat of one configuration,
/// or its traced re-execution) must read the same both times.
class OutputBook {
 public:
  explicit OutputBook(const Options& options);

  /// Returns false, and reports the mismatch on stderr, when `value`
  /// disagrees with the pin or an earlier observation of `key`.
  bool check(const std::string& key, const std::string& value);

  /// Writes every observed key when recording was requested.
  void save() const;

 private:
  const Options* options_;
  bool pinned_ = false;
  std::map<std::string, std::string> pins_;
  std::map<std::string, std::string> seen_;
};

/// Operation accounting: attempted and failed ops of the whole invocation.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

/// Runs one verified operation: `op` returns whether its output checked
/// out; an exception is a failed operation, reported on stderr.
template <typename Op>
bool guarded(const std::string& what, Op&& op) {
  try {
    return op();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s threw: %s\n", what.c_str(), e.what());
    return false;
  }
}

/// In-memory span recorder. A span holds a name, start, end, parent span
/// and the id of the run it belongs to, plus the work (cycles, hops,
/// bytes) counted at the same boundary. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    std::uint32_t run;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t work;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  int begin(const char* name, std::uint32_t run);
  void end(int id, std::int64_t work = 0);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ns) of every span called `name`.
  std::vector<double> durations(std::string_view name) const;
  /// ...restricted to spans whose work equals `work` (a flag, e.g. miss).
  std::vector<double> durations(std::string_view name,
                                std::int64_t work) const;
  double total_ns(std::string_view name) const;
  /// Duration minus the part covered by direct children, summed.
  double self_ns(std::string_view name) const;
  double total_work(std::string_view name) const;
  /// Per-span self time (ns), indexed like spans().
  std::vector<double> self_times() const;

  /// Spans plus per-name totals and self times, as one JSON document.
  void write_json(const std::filesystem::path& path,
                  const std::string& header) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t run)
      : tracer_(tracer), id_(tracer.begin(name, run)) {}
  ~ScopedSpan() { tracer_.end(id_, work_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_work(std::int64_t work) { work_ = work; }

 private:
  Tracer& tracer_;
  int id_;
  std::int64_t work_ = 0;
};

/// The work of an untraced timed phase. It holds whole passes over a
/// workload's configurations, or whole rounds of campaign requests, so
/// every run measures the same mix. Rates are total work over total time;
/// latency percentiles are taken over every row of the phase.
struct TimedPhase {
  double seconds = 0.0;              ///< host seconds
  double cycles = 0.0;               ///< simulated cycles completed
  double runs = 0.0;                 ///< completed runs / terminal rows
  std::vector<double> latencies_ms;  ///< per row: submit -> result
};

/// End-to-end quantities a workload measures in its untraced run.
struct EndToEnd {
  std::vector<double> setup_s;  ///< one entry per set-up
  TimedPhase phase;
};

/// Per-layer metrics of a traced run. Every catalogued name is printed;
/// layers a workload bypasses read 0.
class LayerMetrics {
 public:
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// What a workload hands back to main().
struct WorkloadResult {
  bool correct = true;
  Ops ops;
  EndToEnd e2e;
  LayerMetrics layers;
};

/// Prints the human-readable summary and, as the last stdout line, the
/// result JSON: end-to-end metrics untraced, per-layer metrics traced.
void print_result(const Options& options, const WorkloadResult& result);

/// Writes the tracer's spans to <work_dir>/trace/<workload>-seed<n>.json.
void write_trace(const Options& options, const Tracer& tracer);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Runs `setup` options.setups() times and returns each duration; the
/// first is measured from process start.
std::vector<double> timed_setups(const Options& options,
                                 const std::function<void()>& setup);

}  // namespace perfbench
