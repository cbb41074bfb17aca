#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run prints (BENCHMARK.json lists the
/// same names; README.md maps each to the end-to-end metric it moves).
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"topology.build_ms", "ms"},
    {"vlsel.tables_s", "s"},
    {"routing.mtr_plan_s", "s"},
    {"routing.algorithm_build_ms", "ms"},
    {"routing.algorithm_builds", "count"},
    {"traffic.build_ms", "ms"},
    {"sim.start_us", "us"},
    {"sim.warmup_ns_per_cycle", "ns/cycle"},
    {"sim.measure_ns_per_cycle", "ns/cycle"},
    {"sim.drain_ns_per_cycle", "ns/cycle"},
    {"sim.ns_per_flit_hop", "ns/hop"},
    {"sim.finish_us", "us"},
    {"sim.timeline_ns_per_cycle", "ns/cycle"},
    {"sim.static_ns_per_cycle", "ns/cycle"},
    {"sim.shard1_ns_per_cycle", "ns/cycle"},
    {"sim.shard2_speedup", "x"},
    {"snapshot.save_us", "us"},
    {"snapshot.write_us", "us"},
    {"snapshot.restore_us", "us"},
    {"snapshot.bytes", "B"},
    {"service.validate_us", "us"},
    {"service.pass_ms", "ms"},
    {"service.rows_per_pass", "count"},
    {"service.sim_share", "ratio"},
    {"service.context_hit_ratio", "ratio"},
    {"service.algorithm_hit_ratio", "ratio"},
    {"service.evictions", "count"},
    {"service.publish_us", "us"},
    {"service.row_latency_samples", "count"},
    {"service.rows_ok", "count"},
    {"service.rows_timeout", "count"},
    {"service.rows_deadlocked", "count"},
    {"service.rows_rejected", "count"},
    {"service.rows_failed", "count"},
    {"sim.cycles", "count"},
    {"sim.flit_hops", "count"},
    {"sim.hops_per_cycle", "hops/cycle"},
    {"sim.packets_delivered", "count"},
    {"sim.unroutable_dropped", "count"},
    {"sim.packets_lost", "count"},
    {"sim.undrained_runs", "count"},
    {"sim.deadlocked_runs", "count"},
    {"trace.overhead_pct", "%"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

std::string sim_digest(const deft::SimResults& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.cycles_run));
  d.add(r.flit_hops);
  d.add(r.packets_created);
  d.add(r.packets_created_measured);
  d.add(r.packets_delivered_measured);
  d.add(r.packets_dropped_unroutable);
  d.add(r.packets_lost);
  d.add(static_cast<std::uint64_t>(r.drained));
  d.add(static_cast<std::uint64_t>(r.outcome));
  for (const deft::LatencySummary* s : {&r.network_latency, &r.total_latency}) {
    d.add(s->count);
    d.add(s->mean);
    d.add(s->min);
    d.add(s->max);
    d.add(s->p50);
    d.add(s->p95);
    d.add(s->p99);
  }
  return d.hex();
}

OutputBook::OutputBook(const Options& options) : options_(&options) {
  if (options.seed != kPinnedSeed || !options.record_pins.empty()) {
    return;
  }
  pinned_ = true;
  std::ifstream in(options.pins_dir / (options.workload + ".txt"));
  std::string key;
  std::string value;
  while (in >> key >> value) {
    pins_[key] = value;
  }
}

bool OutputBook::check(const std::string& key, const std::string& value) {
  bool ok = true;
  if (pinned_) {
    const auto pin = pins_.find(key);
    if (pin == pins_.end()) {
      std::fprintf(stderr, "perfbench: %s has no pinned output\n",
                   key.c_str());
      ok = false;
    } else if (pin->second != value) {
      std::fprintf(stderr, "perfbench: %s = %s, pinned %s\n", key.c_str(),
                   value.c_str(), pin->second.c_str());
      ok = false;
    }
  }
  const auto [seen, inserted] = seen_.try_emplace(key, value);
  if (!inserted && seen->second != value) {
    std::fprintf(stderr, "perfbench: %s = %s, earlier %s\n", key.c_str(),
                 value.c_str(), seen->second.c_str());
    ok = false;
  }
  return ok;
}

void OutputBook::save() const {
  if (options_->record_pins.empty()) {
    return;
  }
  std::ofstream out(options_->record_pins);
  for (const auto& [key, value] : seen_) {
    out << key << ' ' << value << '\n';
  }
}

int Tracer::begin(const char* name, std::uint32_t run) {
  if (!enabled_) {
    return -1;
  }
  const int id = static_cast<int>(spans_.size());
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  spans_.push_back(
      Span{name, open_.empty() ? -1 : open_.back(), run, now, now, 0});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id, std::int64_t work) {
  if (id < 0) {
    return;
  }
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
  span.work = work;
  // Spans close innermost first (ScopedSpan lifetimes nest).
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::vector<double> Tracer::durations(std::string_view name,
                                     std::int64_t work) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name && s.work == work) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double Tracer::total_ns(std::string_view name) const {
  double total = 0.0;
  for (const double d : durations(name)) {
    total += d;
  }
  return total;
}

std::vector<double> Tracer::self_times() const {
  // Children never overlap each other (the recorder is single-threaded
  // and spans nest), so covered time is the sum of direct children.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return self;
}

double Tracer::self_ns(std::string_view name) const {
  const std::vector<double> self = self_times();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      total += self[i];
    }
  }
  return total;
}

double Tracer::total_work(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += static_cast<double>(s.work);
    }
  }
  return total;
}

void Tracer::write_json(const std::filesystem::path& path,
                        const std::string& header) const {
  const std::vector<double> self = self_times();
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = by_name[spans_[i].name];
    ++t.count;
    t.total_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    t.self_ns += self[i];
  }
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  std::ofstream out(path);
  out << "{" << header << ", \"layers\": {";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
        << t.count << ", \"total_ns\": " << json_number(t.total_ns)
        << ", \"self_ns\": " << json_number(t.self_ns) << "}";
    first = false;
  }
  out << "}, \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"run\": " << s.run << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"work\": " << s.work << "}";
  }
  out << "]}\n";
}

void write_trace(const Options& options, const Tracer& tracer) {
  tracer.write_json(options.work_dir / "trace" /
                        (options.workload + "-seed" +
                         std::to_string(options.seed) + ".json"),
                    "\"workload\": \"" + options.workload +
                        "\", \"seed\": " + std::to_string(options.seed));
}

void LayerMetrics::set(const std::string& name, double value) {
  values_[name] = value;
}

double LayerMetrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> timed_setups(const Options& options,
                                 const std::function<void()>& setup) {
  std::vector<double> durations;
  for (int i = 0; i < options.setups(); ++i) {
    const Clock::time_point t0 = i == 0 ? options.process_start : Clock::now();
    setup();
    durations.push_back(seconds_between(t0, Clock::now()));
  }
  return durations;
}

void print_result(const Options& options, const WorkloadResult& result) {
  const EndToEnd& e2e = result.e2e;
  const Ops& ops = result.ops;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!options.trace) {
    const TimedPhase& phase = e2e.phase;
    const double seconds = std::max(phase.seconds, 1e-9);
    metrics.push_back({"setup_s", {median(e2e.setup_s), "s"}});
    metrics.push_back({"sim_cycles_per_s", {phase.cycles / seconds, "1/s"}});
    metrics.push_back({"runs_per_s", {phase.runs / seconds, "1/s"}});
    metrics.push_back({"row_latency_p50_ms",
                       {percentile(phase.latencies_ms, 0.50), "ms"}});
    metrics.push_back({"row_latency_p99_ms",
                       {percentile(phase.latencies_ms, 0.99), "ms"}});
    metrics.push_back({"peak_rss_mb", {peak_rss_mb(), "MiB"}});
    std::printf("setups (s):");
    for (const double s : e2e.setup_s) {
      std::printf(" %.3f", s);
    }
    std::printf("\ntimed phase: %.3f s, %.0f runs, %.0f cycles, %zu row "
                "latency samples\n",
                phase.seconds, phase.runs, phase.cycles,
                phase.latencies_ms.size());
  } else {
    for (const LayerMetricSpec& spec : kLayerMetrics) {
      metrics.push_back({spec.name, {result.layers.get(spec.name), spec.unit}});
    }
  }
  for (const auto& [name, value] : metrics) {
    std::printf("  %-30s %16.6f %s\n", name.c_str(), value.first,
                value.second);
  }
  std::printf("ops: %" PRIu64 " attempted, %" PRIu64 " failed\n",
              ops.attempted, ops.failed);

  std::string json = std::string("{\"correct\": ") +
                     (result.correct && ops.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(ops.attempted) +
                     ", \"failed\": " + std::to_string(ops.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].first +
            "\": {\"value\": " + json_number(metrics[i].second.first) +
            ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
