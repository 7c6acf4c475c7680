#include "workloads.hpp"

#include <stdexcept>

#include "chaos/schedule_gen.hpp"

namespace vsg::perfbench {
namespace {

constexpr int kChaosSeeds = 200;
// Host time of the long runs is sampled per 100 ms of simulated time.
constexpr sim::Time kLongRunSlice = sim::msec(100);

// "<tag><p>.<k>", appended piecewise (gcc 12 flags "lit" + to_string(...)
// with a spurious -Wrestrict).
core::Value value_name(char tag, ProcId p, int k) {
  core::Value v(1, tag);
  v += std::to_string(p);
  v += '.';
  v += std::to_string(k);
  return v;
}

// Open-loop submissions: every member submits once per `gap`, member p at
// offset p * gap / n, so the group offers one value every gap / n.
void staggered_traffic(WorldInput& in, char tag, sim::Time gap) {
  const int n = in.config.n;
  for (int k = 0; k * gap < in.traffic_end; ++k)
    for (ProcId p = 0; p < n; ++p) {
      const sim::Time t = k * gap + p * gap / n;
      if (t >= in.traffic_end) continue;
      in.scenario.add(t, harness::OpBcast{p, value_name(tag, p, k)});
      ++in.offered;
    }
}

// steady_long: n=4, pi=25 ms (n*delta = 20 ms), no faults, each member
// submits every pi/4. Processor 3 joins the primary initial view {0,1,2}
// at start-up (one state exchange over an empty history); after that
// history builds up with no view change, so this is the VStoTO value path
// (label, order, confirm).
WorldInput steady_long(std::uint64_t seed) {
  WorldInput in;
  in.config.n = 4;
  in.config.n0 = 3;
  in.config.seed = seed;
  in.config.ring.pi = sim::msec(25);
  in.traffic_end = sim::sec(32);
  in.until = sim::sec(34);
  in.slice = kLongRunSlice;
  staggered_traffic(in, 'v', in.config.ring.pi / 4);
  return in;
}

// churn_long: n=5, pi=40 ms, one value per member per lap. Members 1..n-1
// go bad round-robin for 1 s every 1.5 s while processor 0 stays up, then
// a fault-free tail lets every value reach every processor. Every status
// flip is a view change, so this is VStoTO's state exchange and recovery.
WorldInput churn_long(std::uint64_t seed) {
  WorldInput in;
  in.config.n = 5;
  in.config.seed = seed;
  in.config.ring.pi = sim::msec(40);
  in.traffic_end = sim::sec(24);
  in.until = sim::sec(28);
  in.slice = kLongRunSlice;
  staggered_traffic(in, 'c', in.config.ring.pi);
  int k = 0;
  for (sim::Time t = sim::sec(1); t + sim::sec(1) <= in.traffic_end; t += sim::msec(1500), ++k) {
    const ProcId p = 1 + k % (in.config.n - 1);
    in.scenario.add(t, harness::OpProcStatus{p, sim::Status::kBad});
    in.scenario.add(t + sim::sec(1), harness::OpProcStatus{p, sim::Status::kGood});
  }
  return in;
}

// chaos_smoke: the `chaos_runner --smoke` preset (ugly-link corruption,
// oracles attached, recovery check), one World per campaign seed.
WorldInput chaos_world(std::uint64_t campaign_seed) {
  chaos::ScheduleConfig sc;
  sc.n = 4;
  sc.horizon = sim::sec(3);
  sc.quiescence = sim::sec(8);
  sc.partition_rounds = 2;
  sc.proc_flips = 2;
  sc.link_flips = 4;
  sc.traffic = 8;
  sc.burst_size = 3;
  sc.post_heal_traffic = 1;
  chaos::GeneratedSchedule g = chaos::generate_schedule(sc, campaign_seed);
  WorldInput in;
  in.config.n = sc.n;
  in.config.seed = campaign_seed;
  in.config.link.ugly_corrupt = 0.25;
  in.scenario = std::move(g.scenario);
  in.until = g.run_until;
  in.slice = g.run_until / 2;
  in.traffic_end = sc.horizon;
  in.offered = g.bcasts;
  in.chaos_seed = campaign_seed;
  return in;
}

}  // namespace

bool parse_kind(const std::string& name, Kind& out) {
  for (Kind k : {Kind::kSteadyLong, Kind::kChurnLong, Kind::kChaosSmoke})
    if (name == kind_name(k)) {
      out = k;
      return true;
    }
  return false;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSteadyLong: return "steady_long";
    case Kind::kChurnLong: return "churn_long";
    case Kind::kChaosSmoke: return "chaos_smoke";
  }
  return "?";
}

int world_count(const WorkloadSpec& w) { return w.kind == Kind::kChaosSmoke ? kChaosSeeds : 1; }

std::uint64_t chaos_seed(const WorkloadSpec& w, int i) {
  return w.seed * kChaosSeeds + 1 + static_cast<std::uint64_t>(i);
}

WorldInput make_world(const WorkloadSpec& w, int i) {
  switch (w.kind) {
    case Kind::kSteadyLong: return steady_long(w.seed);
    case Kind::kChurnLong: return churn_long(w.seed);
    case Kind::kChaosSmoke: return chaos_world(chaos_seed(w, i));
  }
  throw std::logic_error("make_world: unknown workload");
}

std::string timing_violation(const harness::WorldConfig& c) {
  const auto& r = c.ring;
  if (r.pi <= c.n * r.delta)
    return "pi=" + std::to_string(r.pi) + "us <= n*delta=" + std::to_string(c.n) + "*" +
           std::to_string(r.delta) + "us: outside the section 8 timing model (pi > n*delta)";
  if (c.link.delta > r.delta)
    return "link delta " + std::to_string(c.link.delta) + "us exceeds the ring's delta " +
           std::to_string(r.delta) + "us";
  return {};
}

}  // namespace vsg::perfbench
