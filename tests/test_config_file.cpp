// Configuration-file parser tests and VL-serialization knob tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/config_file.hpp"
#include "topology/builder.hpp"
#include "traffic/trace.hpp"

namespace deft {
namespace {

TEST(ConfigFile, ParsesFullConfiguration) {
  const SimulationConfig c = parse_simulation_config(std::string(R"(
    # comment line
    chiplets   = 6
    algorithm  = MTR          # case-insensitive
    vl_strategy = random
    traffic    = hotspot
    rate       = 0.0125
    vcs        = 4
    buffer_depth = 8
    packet_size  = 16
    vl_serialization = 2
    warmup     = 500
    measure    = 1500
    drain_max  = 9000
    seed       = 77
    faults     = 0v 3^
  )"));
  EXPECT_EQ(c.chiplets, 6);
  EXPECT_EQ(c.algorithm, Algorithm::mtr);
  EXPECT_EQ(c.vl_strategy, VlStrategy::random);
  EXPECT_EQ(c.traffic, "hotspot");
  EXPECT_DOUBLE_EQ(c.rate, 0.0125);
  EXPECT_EQ(c.knobs.num_vcs, 4);
  EXPECT_EQ(c.knobs.buffer_depth, 8);
  EXPECT_EQ(c.knobs.packet_size, 16);
  EXPECT_EQ(c.knobs.vl_serialization, 2);
  EXPECT_EQ(c.knobs.warmup, 500);
  EXPECT_EQ(c.knobs.measure, 1500);
  EXPECT_EQ(c.knobs.drain_max, 9000);
  EXPECT_EQ(c.knobs.seed, 77u);
  const Topology topo(make_reference_spec(6));
  const VlFaultSet faults = c.faults(topo);
  EXPECT_EQ(faults.count(), 2);
  EXPECT_TRUE(faults.is_faulty(topo.vl(0).down_vl_channel()));
  EXPECT_TRUE(faults.is_faulty(topo.vl(3).up_vl_channel()));
}

TEST(ConfigFile, DefaultsAreThePaperBaseline) {
  const SimulationConfig c = parse_simulation_config(std::string(""));
  EXPECT_EQ(c.chiplets, 4);
  EXPECT_EQ(c.algorithm, Algorithm::deft);
  EXPECT_EQ(c.knobs.num_vcs, 2);
  EXPECT_EQ(c.knobs.buffer_depth, 4);
  EXPECT_EQ(c.knobs.packet_size, 8);
  EXPECT_EQ(c.knobs.vl_serialization, 1);
  EXPECT_TRUE(c.fault_spec.empty());
}

/// Runs `fn` and returns the message of the std::invalid_argument it must
/// throw.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return "";
}

TEST(ConfigFile, RejectsUnknownKeys) {
  EXPECT_THROW(parse_simulation_config(std::string("typo_key = 3\n")),
               std::invalid_argument);
  // A key the simulator no longer has is rejected like any typo, so a
  // stale config file or spool request fails loudly at the right line.
  const std::string removed = thrown_message([] {
    parse_simulation_config(std::string("chiplets = 4\nbatch_size = 4\n"));
  });
  EXPECT_NE(removed.find("config: line 2:"), std::string::npos) << removed;
  EXPECT_NE(removed.find("unknown key 'batch_size'"), std::string::npos)
      << removed;
  // The deleted perf-matrix hooks of the CLI driver.
  for (const char* key : {"perf_json", "scenario", "repeats"}) {
    SCOPED_TRACE(key);
    const std::string message = thrown_message([key] {
      parse_simulation_config(std::string(key) + " = 3\n");
    });
    EXPECT_NE(message.find("unknown key '" + std::string(key) + "'"),
              std::string::npos)
        << message;
  }
  // An empty value keeps a known key's default; an unknown key is an
  // error with or without a value.
  const std::string empty = thrown_message(
      [] { parse_simulation_config(std::string("typo_key =\n")); });
  EXPECT_NE(empty.find("config: line 1: unknown key 'typo_key'"),
            std::string::npos)
      << empty;
}

TEST(ConfigFile, RejectsMalformedLines) {
  EXPECT_THROW(parse_simulation_config(std::string("chiplets 4\n")),
               std::invalid_argument);
  EXPECT_THROW(parse_simulation_config(std::string("rate = fast\n")),
               std::invalid_argument);
  EXPECT_THROW(parse_simulation_config(std::string("vcs = 9\n")),
               std::invalid_argument);
  EXPECT_THROW(parse_simulation_config(std::string("= 3\n")),
               std::invalid_argument);
}

TEST(ConfigFile, EmptyValueKeepsDefault) {
  const SimulationConfig c =
      parse_simulation_config(std::string("faults =\nrate =  # comment\n"));
  EXPECT_TRUE(c.fault_spec.empty());
  EXPECT_DOUBLE_EQ(c.rate, 0.008);
}

TEST(ConfigFile, TemplateParsesToTheDefaults) {
  // `example_deft_sim --dump-default` prints config_template(): it names
  // every key exactly once and parses back to the defaults.
  const std::string text = config_template();
  std::istringstream in(text);
  std::vector<std::string> keys;
  ConfigLine line;
  while (next_config_line(in, line)) {
    keys.push_back(line.key);
  }
  std::vector<std::string> expected = {
      "chiplets", "algorithm", "vl_strategy", "traffic", "rate", "vcs",
      "buffer_depth", "packet_size", "vl_serialization", "warmup",
      "measure", "drain_max", "seed", "shards", "rng_mode", "faults",
      "fault_events", "fault_policy", "trace_file", "trace_cycles"};
  std::ranges::sort(keys);
  std::ranges::sort(expected);
  EXPECT_EQ(keys, expected) << text;

  const SimulationConfig c = parse_simulation_config(text);
  const SimulationConfig d;
  EXPECT_EQ(c.chiplets, d.chiplets);
  EXPECT_EQ(c.algorithm, d.algorithm);
  EXPECT_EQ(c.vl_strategy, d.vl_strategy);
  EXPECT_EQ(c.traffic, d.traffic);
  EXPECT_EQ(c.rate, d.rate);
  EXPECT_EQ(c.knobs.num_vcs, d.knobs.num_vcs);
  EXPECT_EQ(c.knobs.buffer_depth, d.knobs.buffer_depth);
  EXPECT_EQ(c.knobs.packet_size, d.knobs.packet_size);
  EXPECT_EQ(c.knobs.vl_serialization, d.knobs.vl_serialization);
  EXPECT_EQ(c.knobs.warmup, d.knobs.warmup);
  EXPECT_EQ(c.knobs.measure, d.knobs.measure);
  EXPECT_EQ(c.knobs.drain_max, d.knobs.drain_max);
  EXPECT_EQ(c.knobs.watchdog_cycles, d.knobs.watchdog_cycles);
  EXPECT_EQ(c.knobs.seed, d.knobs.seed);
  EXPECT_EQ(c.knobs.core, d.knobs.core);
  EXPECT_EQ(c.knobs.shards, d.knobs.shards);
  EXPECT_EQ(c.knobs.rng_mode, d.knobs.rng_mode);
  EXPECT_EQ(c.fault_spec, d.fault_spec);
  EXPECT_EQ(c.fault_events_spec, d.fault_events_spec);
  EXPECT_EQ(c.fault_policy, d.fault_policy);
  EXPECT_EQ(c.fault_spec_line, d.fault_spec_line);
  EXPECT_EQ(c.fault_events_line, d.fault_events_line);
  EXPECT_EQ(c.trace_file, d.trace_file);
  EXPECT_EQ(c.trace_cycles, d.trace_cycles);
}

TEST(ConfigFile, RejectsBadFaultSpecs) {
  const SimulationConfig c =
      parse_simulation_config(std::string("faults = 99v\n"));
  const Topology topo(make_reference_spec(4));
  EXPECT_THROW(c.faults(topo), std::invalid_argument);
  const SimulationConfig c2 =
      parse_simulation_config(std::string("faults = 3x\n"));
  EXPECT_THROW(c2.faults(topo), std::invalid_argument);
}

TEST(ConfigFile, ErrorsAreLineNumbered) {
  // Parse errors carry the 1-based source line, in parse_trace's
  // "line N" style, so campaign rejections can point at the exact line.
  const std::string unknown = thrown_message(
      [] { parse_simulation_config(std::string("chiplets = 4\ntypo = 3\n")); });
  EXPECT_NE(unknown.find("config: line 2:"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("unknown key 'typo'"), std::string::npos);

  const std::string bad_value = thrown_message([] {
    parse_simulation_config(
        std::string("chiplets = 4\n\n# pad\nrate = fast\n"));
  });
  EXPECT_NE(bad_value.find("config: line 4:"), std::string::npos)
      << bad_value;

  const std::string bad_policy = thrown_message([] {
    parse_simulation_config(std::string("fault_policy = panic\n"));
  });
  EXPECT_NE(bad_policy.find("config: line 1:"), std::string::npos)
      << bad_policy;
}

TEST(ConfigFile, RejectsUnknownSystemsAndTrafficAtTheirLine) {
  // Both used to parse, and deft_sim then aborted on an uncaught
  // exception: make_reference_spec builds only the 4- and 6-chiplet
  // systems, and make_traffic knows five patterns besides trace.
  const std::string chiplets = thrown_message([] {
    parse_simulation_config(std::string("seed = 1\nchiplets = 5\n"));
  });
  EXPECT_NE(chiplets.find("config: line 2: key 'chiplets' must be 4 or 6"),
            std::string::npos)
      << chiplets;
  const std::string traffic = thrown_message([] {
    parse_simulation_config(std::string("chiplets = 6\n\ntraffic = unifrom\n"));
  });
  EXPECT_NE(traffic.find("config: line 3: unknown traffic pattern 'unifrom'"),
            std::string::npos)
      << traffic;
  for (const std::string name : {"uniform", "localized", "hotspot",
                                 "transpose", "bit-complement", "trace"}) {
    EXPECT_EQ(parse_simulation_config("traffic = " + name + "\n").traffic,
              name);
  }
}

TEST(ConfigFile, DeferredFaultResolutionKeepsTheSourceLine) {
  // `faults` and `fault_events` are resolved against the topology long
  // after parsing; their errors must still carry the original line.
  const SimulationConfig c = parse_simulation_config(
      std::string("chiplets = 4\nseed = 1\nfaults = 99v\n"));
  EXPECT_EQ(c.fault_spec_line, 3);
  const Topology topo(make_reference_spec(4));
  const std::string out_of_range =
      thrown_message([&] { c.faults(topo); });
  EXPECT_NE(out_of_range.find("config: line 3:"), std::string::npos)
      << out_of_range;

  const SimulationConfig c2 = parse_simulation_config(
      std::string("chiplets = 4\nfault_events = 10:zz\n"));
  EXPECT_EQ(c2.fault_events_line, 2);
  const std::string bad_event =
      thrown_message([&] { c2.fault_events(topo); });
  EXPECT_NE(bad_event.find("config: line 2:"), std::string::npos)
      << bad_event;
}

TEST(ConfigFile, LineNumberedMessagesDoNotDoubleThePrefix) {
  const std::string message = thrown_message(
      [] { parse_simulation_config(std::string("vcs = 99\n")); });
  EXPECT_NE(message.find("config: line 1:"), std::string::npos) << message;
  // The inner "config: ..." prefix is stripped when the line is added.
  EXPECT_EQ(message.find("config:", 1), std::string::npos) << message;
}

TEST(ConfigFile, BuildsEveryTrafficPattern) {
  const Topology topo(make_reference_spec(4));
  for (const char* name : {"uniform", "localized", "hotspot", "transpose",
                           "bit-complement"}) {
    SimulationConfig c;
    c.traffic = name;
    c.rate = 0.01;
    EXPECT_EQ(std::string(c.make_traffic(topo)->name()), name);
  }
  SimulationConfig bad;
  bad.traffic = "nonsense";
  EXPECT_THROW(bad.make_traffic(topo), std::invalid_argument);
}

TEST(ConfigFile, ParsesShards) {
  const SimulationConfig c =
      parse_simulation_config(std::string("shards = 4\n"));
  EXPECT_EQ(c.knobs.shards, 4);
  EXPECT_THROW(parse_simulation_config(std::string("shards = 0\n")),
               std::invalid_argument);
}

TEST(ConfigFile, BuildsSyntheticTraceReplayWorkloads) {
  // traffic = trace with trace_cycles records a uniform workload at
  // `rate` and replays it - the perf matrix's construction, so a config
  // file can reproduce those scenarios.
  const SimulationConfig c = parse_simulation_config(
      std::string("traffic = trace\nrate = 0.02\ntrace_cycles = 300\n"));
  const Topology topo(make_reference_spec(4));
  const auto gen = c.make_traffic(topo);
  EXPECT_EQ(std::string(gen->name()), "trace");

  // Without a source the trace workload is rejected loudly.
  const SimulationConfig bad =
      parse_simulation_config(std::string("traffic = trace\n"));
  EXPECT_THROW(bad.make_traffic(topo), std::invalid_argument);
}

TEST(ConfigFile, LoadsTraceReplayFromAFile) {
  const Topology topo(make_reference_spec(4));
  const std::string path =
      ::testing::TempDir() + "/config_file_test.trace";
  // Removes the trace when the test ends, on the failure paths too.
  struct RemoveOnExit {
    const std::string& path;
    ~RemoveOnExit() { std::remove(path.c_str()); }
  } remove_trace{path};
  const std::vector<TraceRecord> records =
      record_uniform_trace(topo, 0.02, 200);
  ASSERT_FALSE(records.empty());
  {
    TraceRecorder recorder;
    for (const TraceRecord& r : records) {
      recorder.record(r.cycle, r.src, r.dst, r.app);
    }
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    recorder.write(out);
  }

  SimulationConfig c = parse_simulation_config(
      std::string("traffic = trace\ntrace_file = ") + path + "\n");
  const auto gen = c.make_traffic(topo);
  EXPECT_EQ(std::string(gen->name()), "trace");

  // A replayed file workload must inject exactly the recorded stream:
  // run the same short simulation from the file-backed and the in-memory
  // generator and compare.
  const ExperimentContext ctx(make_reference_spec(4));
  SimKnobs knobs;
  knobs.warmup = 50;
  knobs.measure = 200;
  knobs.drain_max = 2000;
  const auto from_file = c.make_traffic(topo);
  TraceReplayGenerator from_memory(records);
  const SimResults a =
      run_sim(ctx, Algorithm::deft, *from_file, knobs);
  const SimResults b = run_sim(ctx, Algorithm::deft, from_memory, knobs);
  EXPECT_EQ(a.packets_created, b.packets_created);
  EXPECT_EQ(a.network_latency.mean, b.network_latency.mean);

  c.trace_file = "/nonexistent/path.trace";
  EXPECT_THROW(c.make_traffic(topo), std::invalid_argument);
}

class SerializationTest : public ::testing::Test {
 protected:
  SerializationTest() : ctx_(ExperimentContext::reference(4)) {}
  ExperimentContext ctx_;
};

TEST_F(SerializationTest, FactorOneMatchesBaselineExactly) {
  for (int s : {1}) {
    UniformTraffic a(ctx_.topo(), 0.006);
    UniformTraffic b(ctx_.topo(), 0.006);
    SimKnobs base;
    base.warmup = 500;
    base.measure = 2000;
    SimKnobs serialized = base;
    serialized.vl_serialization = s;
    const SimResults ra = run_sim(ctx_, Algorithm::deft, a, base);
    const SimResults rb = run_sim(ctx_, Algorithm::deft, b, serialized);
    EXPECT_DOUBLE_EQ(ra.total_latency.mean, rb.total_latency.mean);
  }
}

TEST_F(SerializationTest, HigherFactorsRaiseLatencyMonotonically) {
  double prev = 0.0;
  for (int s : {1, 2, 4}) {
    UniformTraffic traffic(ctx_.topo(), 0.004);
    SimKnobs knobs;
    knobs.warmup = 500;
    knobs.measure = 3000;
    knobs.vl_serialization = s;
    const SimResults r = run_sim(ctx_, Algorithm::deft, traffic, knobs);
    EXPECT_TRUE(r.drained) << "s=" << s;
    EXPECT_FALSE(r.deadlock_detected);
    EXPECT_GT(r.total_latency.mean, prev) << "s=" << s;
    prev = r.total_latency.mean;
  }
}

TEST_F(SerializationTest, SerializedVlsThrottleVlThroughput) {
  // At a load the full-width VLs sustain, 4:1 serialization caps each
  // vertical channel at 0.25 flits/cycle.
  UniformTraffic traffic(ctx_.topo(), 0.010);
  SimKnobs knobs;
  knobs.warmup = 1000;
  knobs.measure = 4000;
  knobs.vl_serialization = 4;
  knobs.drain_max = 40000;
  const SimResults r = run_sim(ctx_, Algorithm::deft, traffic, knobs);
  for (std::size_t c = 0; c < r.vl_channel_flits.size(); ++c) {
    EXPECT_LE(static_cast<double>(r.vl_channel_flits[c]) / knobs.measure,
              0.25 + 0.01)
        << "channel " << c;
  }
}

TEST_F(SerializationTest, NoDeadlockUnderSaturationWithSerialization) {
  for (Algorithm alg : {Algorithm::deft, Algorithm::mtr, Algorithm::rc}) {
    UniformTraffic traffic(ctx_.topo(), 0.04);
    SimKnobs knobs;
    knobs.warmup = 0;
    knobs.measure = 2500;
    knobs.drain_max = 500;
    knobs.watchdog_cycles = 2000;
    knobs.vl_serialization = 4;
    const SimResults r = run_sim(ctx_, alg, traffic, knobs);
    EXPECT_FALSE(r.deadlock_detected) << algorithm_name(alg);
    EXPECT_GT(r.packets_delivered_measured, 0u);
  }
}

}  // namespace
}  // namespace deft
