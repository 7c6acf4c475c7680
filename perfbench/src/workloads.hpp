#pragma once

// The benchmark's workloads. Each is open loop: every submission is a
// scenario op at a fixed simulated time, whatever the system does. A
// workload is one World (the long runs) or many (the chaos campaign).

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/world.hpp"

namespace vsg::perfbench {

enum class Kind { kSteadyLong, kChurnLong, kChaosSmoke };

/// Parses a --workload name; false when unknown.
bool parse_kind(const std::string& name, Kind& out);
const char* kind_name(Kind k);

/// The input of one World.
struct WorldInput {
  harness::WorldConfig config;
  harness::Scenario scenario;
  sim::Time until = 0;         // run length (simulated)
  sim::Time slice = 0;         // host time is sampled at every multiple of this
  sim::Time traffic_end = 0;   // end of the submission window (cost-growth tenths)
  int offered = 0;             // bcast ops in the scenario
  std::uint64_t chaos_seed = 0;  // campaign seed (chaos only)
};

struct WorkloadSpec {
  Kind kind;
  std::uint64_t seed;
};

/// Number of Worlds the workload runs per repetition.
int world_count(const WorkloadSpec& w);

/// Builds the i-th World's input. Pure in (spec, i).
WorldInput make_world(const WorkloadSpec& w, int i);

/// The campaign seed of chaos World i (first seed = 200 * seed + 1, so
/// --seed 0 is the pinned CI smoke campaign, seeds 1..200).
std::uint64_t chaos_seed(const WorkloadSpec& w, int i);

/// The paper's section 8 timing model needs pi > n * delta (and links whose
/// good-delay bound is within the ring's delta). Returns an explanation
/// when `c` lies outside it, empty otherwise.
std::string timing_violation(const harness::WorldConfig& c);

}  // namespace vsg::perfbench
