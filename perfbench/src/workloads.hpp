// The benchmark's workloads. Each builds all of its inputs from
// options.seed, verifies every output, and measures either the untraced
// end-to-end metrics or (options.trace) the traced per-layer split.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// The paper's congested Fig. 4 / Fig. 6(b) operating points on the 4- and
/// 6-chiplet reference systems: long single-threaded runs, one workspace.
WorkloadResult run_paper_load(const Options& options);

/// The campaign daemon in steady state: a closed-loop client against
/// run_pass(), many short fault-campaign requests.
WorkloadResult run_fault_campaign(const Options& options);

/// A 64-chiplet grid under the partitioned core at two shards.
WorkloadResult run_grid64_shards2(const Options& options);

}  // namespace perfbench
