// perfbench: the repository benchmark.
//
//   perfbench --workload steady_long|churn_long|chaos_smoke --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 repeats the workload untraced for S seconds (the long runs
// through harness::World, the campaign through chaos::run_one per seed)
// and reports the end-to-end metrics. --trace 1 alternates an
// untraced World run with a traced hand-assembled run (TracedWorld) for S
// seconds, checks that both produced the same execution, and reports the
// per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 unless
// the arguments or the workload configuration are invalid. METRICS.md
// defines every metric.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/oracles.hpp"
#include "core/codec.hpp"
#include "core/summary.hpp"
#include "harness/world.hpp"
#include "spans.hpp"
#include "traced_world.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace vsg::perfbench {
namespace {

constexpr std::uint64_t kPinnedSmokeCampaign = 0x8bc76ebef3d2f2e6ULL;
constexpr int kSetupSamplesPerRep = 4;
// The traced run loop does little besides timing each step, so the steps
// must cover most of its host time; less means host time escapes the
// span tree.
constexpr double kMinStepCoverage = 0.8;

std::int64_t now_ns() { return SpanLog::now_ns(); }
double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double sim_to_s(sim::Time t) { return static_cast<double>(t) * 1e-6; }

struct Options {
  Kind kind = Kind::kSteadyLong;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir;
};

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))), 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// --- one World ---------------------------------------------------------------

/// The deterministic counters the fidelity gate compares.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t brcv = 0;  // to::Client upcalls
  std::uint64_t views = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t labels_assigned = 0;
  std::uint64_t recorder_size = 0;
  std::uint64_t delivered_total = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t violations = 0;
  bool operator==(const Counters&) const = default;
};

std::string describe(const Counters& c) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "events=%" PRIu64 " brcv=%" PRIu64 " views=%" PRIu64 " packets=%" PRIu64
                " labels=%" PRIu64 " recorded=%" PRIu64 " delivered=%" PRIu64
                " fingerprint=%016" PRIx64 " violations=%" PRIu64,
                c.events, c.brcv, c.views, c.packets_sent, c.labels_assigned, c.recorder_size,
                c.delivered_total, c.fingerprint, c.violations);
  return buf;
}

struct WorldOutcome {
  Counters counters;
  std::vector<std::string> violations;  // oracles, then the recovery check
  std::uint64_t undelivered = 0;        // offered values missing from the common sequence
  std::uint64_t chaos_seed = 0;
  std::uint64_t offered = 0;            // bcast ops of the input
  std::uint64_t ops = 0;                // all ops of the input
  std::int64_t gen_ns = 0, build_ns = 0, setup_ns = 0, run_ns = 0;
  std::int64_t recovery_ns = 0, total_ns = 0;
  std::vector<std::int64_t> slice_ns;   // host time per simulated slice
  std::size_t first_half_slices = 0;    // slices ending by until / 2
  sim::Time until = 0;
};

std::uint64_t counter(const obs::MetricsRegistry& m, const char* name) {
  const obs::Counter* c = m.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

std::uint64_t events_of(harness::World& w) { return w.simulator().events_processed(); }
std::uint64_t events_of(TracedWorld& w) { return w.events(); }

/// The recovery oracle and delivery fingerprint of chaos::run_one, plus
/// the benchmark's failure count: offered values that are not in one
/// identical delivered sequence at every processor.
template <typename W>
void settle(W& w, const WorldInput& in, std::vector<std::string> oracle_violations,
            std::uint64_t brcv, WorldOutcome& out) {
  out.violations = std::move(oracle_violations);
  const int n = in.config.n;
  const auto& ref = w.stack().process(0).delivered();
  // chaos::run_one's recovery check, statement for statement: run_one
  // reports no timing of its own, so chaos.recovery_check_ms_p50 times
  // this replica.
  const std::int64_t t0 = now_ns();
  if (ref.size() != static_cast<std::size_t>(in.offered))
    out.violations.push_back("recovery: processor 0 delivered " + std::to_string(ref.size()) +
                             "/" + std::to_string(in.offered) +
                             " values after stabilization");
  for (ProcId p = 1; p < n; ++p)
    if (w.stack().process(p).delivered() != ref) {
      out.violations.push_back("recovery: delivered sequence at processor " +
                               std::to_string(p) + " diverges from processor 0");
      break;
    }
  out.recovery_ns = now_ns() - t0;
  std::size_t common = ref.size();
  for (ProcId p = 1; p < n; ++p) {
    const auto& d = w.stack().process(p).delivered();
    std::size_t k = 0;
    while (k < std::min(common, d.size()) && d[k] == ref[k]) ++k;
    common = k;
  }
  out.undelivered = static_cast<std::uint64_t>(in.offered) -
                    std::min<std::uint64_t>(common, static_cast<std::uint64_t>(in.offered));
  std::uint64_t fp = 0, total = 0;
  for (ProcId p = 0; p < n; ++p)
    for (const auto& [origin, value] : w.stack().process(p).delivered()) {
      const std::uint8_t head[2] = {static_cast<std::uint8_t>(p),
                                    static_cast<std::uint8_t>(origin)};
      fp += util::fnv1a(
          util::BufferView(reinterpret_cast<const std::uint8_t*>(value.data()), value.size()),
          util::fnv1a(util::BufferView(head, sizeof head)));
      ++total;
    }
  Counters& c = out.counters;
  c.events = events_of(w);
  c.brcv = brcv;
  c.views = counter(w.metrics(), "ring.views_installed");
  c.packets_sent = counter(w.metrics(), "net.packets_sent");
  c.labels_assigned = counter(w.metrics(), "to.labels_assigned");
  c.recorder_size = w.recorder().size();
  c.delivered_total = total;
  c.fingerprint = fp;
  c.violations = out.violations.size();
  out.chaos_seed = in.chaos_seed;
  out.offered = static_cast<std::uint64_t>(in.offered);
  out.ops = in.scenario.ops.size();
  out.until = in.until;
}

/// Simulated-time samples read from a recorded trace.
struct SimSamples {
  std::vector<sim::Time> latency;  // bcast -> brcv, every delivery
  std::vector<sim::Time> outage;   // status flip -> next delivery at p0
  std::uint64_t p0_deliveries = 0;
  sim::Time active = 0;            // first bcast .. last delivery at p0
};

// Latency pairs the k-th brcv of origin o at q with o's k-th bcast (TO's
// per-sender FIFO order). Flips at the same instant (a partition touches
// many links) count once; t = 0, when every status starts good, counts as
// the first flip.
void extract(const trace::Recorder& rec, int n, SimSamples& s) {
  std::vector<std::vector<sim::Time>> sent(static_cast<std::size_t>(n));
  std::vector<std::vector<std::size_t>> next(static_cast<std::size_t>(n),
                                             std::vector<std::size_t>(static_cast<std::size_t>(n)));
  std::vector<sim::Time> waiting{0};
  sim::Time first_bcast = -1, last_p0 = -1, last_flip = 0;
  for (const auto& te : rec.events()) {
    if (const auto* b = trace::as<trace::BcastEvent>(te)) {
      sent[static_cast<std::size_t>(b->p)].push_back(te.at);
      if (first_bcast < 0) first_bcast = te.at;
    } else if (const auto* r = trace::as<trace::BrcvEvent>(te)) {
      const auto o = static_cast<std::size_t>(r->origin);
      std::size_t& k = next[static_cast<std::size_t>(r->dest)][o];
      if (k < sent[o].size()) s.latency.push_back(te.at - sent[o][k]);
      ++k;
      if (r->dest == 0) {
        ++s.p0_deliveries;
        last_p0 = te.at;
        for (sim::Time f : waiting) s.outage.push_back(te.at - f);
        waiting.clear();
      }
    } else if (trace::as<sim::StatusEvent>(te) != nullptr && te.at != last_flip) {
      waiting.push_back(te.at);
      last_flip = te.at;
    }
  }
  if (first_bcast >= 0 && last_p0 > first_bcast) s.active += last_p0 - first_bcast;
}

struct UntracedWorld {
  // Declared before the World: the stack holds pointers to them.
  std::vector<CountingClient> clients;
  harness::World world;
  chaos::OracleSet oracles;

  explicit UntracedWorld(const harness::WorldConfig& c)
      : clients(static_cast<std::size_t>(c.n)), world(c), oracles(world) {
    for (ProcId p = 0; p < c.n; ++p) world.stack().attach(p, clients[static_cast<std::size_t>(p)]);
  }
  std::uint64_t brcv() const {
    std::uint64_t t = 0;
    for (const auto& c : clients) t += c.count();
    return t;
  }
};

WorldOutcome run_untraced(const WorkloadSpec& spec, int i, SimSamples* samples) {
  WorldOutcome out;
  const std::int64_t t0 = now_ns();
  const WorldInput in = make_world(spec, i);
  const std::int64_t t1 = now_ns();
  UntracedWorld u(in.config);
  const std::int64_t t2 = now_ns();
  in.scenario.apply(u.world);
  const std::int64_t t3 = now_ns();
  out.gen_ns = t1 - t0;
  out.build_ns = t2 - t1;
  out.setup_ns = t3 - t1;
  std::int64_t last = t3;
  for (sim::Time t = in.slice;; t += in.slice) {
    t = std::min(t, in.until);
    u.world.run_until(t);
    const std::int64_t now = now_ns();
    out.slice_ns.push_back(now - last);
    if (t <= in.until / 2) ++out.first_half_slices;
    last = now;
    if (t == in.until) break;
  }
  out.run_ns = last - t3;
  u.oracles.finalize();
  settle(u.world, in, u.oracles.violations(), u.brcv(), out);
  out.total_ns = now_ns() - t0;
  if (samples != nullptr) extract(u.world.recorder(), in.config.n, *samples);
  return out;
}

/// World build + scheduling only, for extra set-up samples.
std::int64_t setup_only(const WorkloadSpec& spec, int i) {
  const WorldInput in = make_world(spec, i);
  const std::int64_t t0 = now_ns();
  UntracedWorld u(in.config);
  in.scenario.apply(u.world);
  return now_ns() - t0;
}

// Results of timed calls are stored here so the calls cannot be elided.
volatile std::size_t g_sink = 0;

// --- machine speed -----------------------------------------------------------

// On a shared host the machine's speed drifts by tens of percent over
// minutes as other tenants load the caches and memory, too slowly for any
// estimator inside one run to remove. A fixed reference computation, 2 Mi
// random reads from a 64 MiB table, slows down with it: it runs after every
// repetition, and end-to-end host times are rescaled to a machine on which
// its median takes kReferenceKernelMs. It is benchmark code, so no change
// to the program moves it. METRICS.md gives the measurements behind it.
constexpr double kReferenceKernelMs = 28.0;

double reference_kernel_ms() {
  constexpr std::size_t kWords = std::size_t{8} << 20;
  constexpr int kReads = 2'000'000;
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kWords);
    for (std::size_t i = 0; i < kWords; ++i) t[i] = i * 0x9e3779b97f4a7c15ULL;
    return t;
  }();
  std::uint64_t x = 88172645463325252ULL, acc = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kReads; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & (kWords - 1)];
  }
  const std::int64_t ns = now_ns() - t0;
  g_sink = acc;
  return static_cast<double>(ns) * 1e-6;
}

struct CoreTimes {
  double fullorder_us = 0, digest_us = 0, delta_us = 0, encode_us = 0, decode_us = 0;
  std::uint64_t summary_bytes = 0;
  bool round_trip_ok = true;
};

/// Median per-call microseconds of fn: at least 5 calls, then until 20 ms
/// have passed or 2000 calls were made.
template <typename Fn>
double time_call_us(Fn&& fn) {
  std::vector<double> us;
  const std::int64_t start = now_ns();
  while (us.size() < 5 || (now_ns() - start < 20'000'000 && us.size() < 2000)) {
    const std::int64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(us));
}

/// The state-exchange algebra on summaries of the World's end-of-run state.
CoreTimes time_core(to::Stack& stack) {
  CoreTimes c;
  core::SummaryMap y;
  for (ProcId p = 0; p < stack.size(); ++p) y[p] = stack.process(p).local_summary();
  const core::Summary& x = y.at(0);
  std::size_t sink = 0;
  c.fullorder_us = time_call_us([&] { sink += core::fullorder(y).size(); });
  core::SummaryDigest weakest = core::digest(y.rbegin()->second);
  for (const auto& [p, s] : y) weakest = core::meet(weakest, core::digest(s));
  c.digest_us = time_call_us([&] { sink += core::digest(x).marks.size(); });
  c.delta_us = time_call_us([&] { sink += core::delta(x, weakest).con.size(); });
  constexpr auto kWire = wire::Version::kV3;
  util::Buffer encoded;
  c.encode_us = time_call_us([&] {
    util::Encoder e;
    e.reserve(wire::Codec<core::Summary>::size(x, kWire));
    wire::Codec<core::Summary>::encode(e, x, kWire);
    encoded = e.finish();
  });
  c.summary_bytes = encoded.size();
  core::Summary decoded;
  c.decode_us = time_call_us([&] {
    util::Decoder d(encoded);
    decoded = wire::Codec<core::Summary>::decode(d, kWire);
    c.round_trip_ok = c.round_trip_ok && d.complete();
  });
  c.round_trip_ok = c.round_trip_ok && decoded == x;
  g_sink = sink;
  return c;
}

struct TracedRep {
  LayerTotals layers;
  obs::MetricsRegistry metrics;  // every traced World's registry, merged
  std::int64_t run_ns = 0;
  sim::Time simulated = 0;
  CoreTimes core;
  std::uint64_t order_len = 0, content_entries = 0, buildorder_labels = 0;
  std::uint64_t checked_events = 0;
};

WorldOutcome run_traced(const WorkloadSpec& spec, int i, bool last, const std::string& spans_path,
                        TracedRep& rep) {
  WorldOutcome out;
  const WorldInput in = make_world(spec, i);
  TracedWorld tw(in.config);
  tw.apply(in.scenario);
  const std::int64_t t0 = now_ns();
  tw.run_until(in.until);
  out.run_ns = now_ns() - t0;
  rep.run_ns += out.run_ns;
  rep.simulated += in.until;
  settle(tw, in, tw.violations(), tw.brcv_count(), out);
  fold(tw.spans().spans(), in.traffic_end, rep.layers);
  rep.metrics.merge_from(tw.metrics());
  rep.checked_events += tw.recorder().size();
  if (last) {
    const auto& st = tw.stack().process(0).state();
    rep.order_len = st.order.size();
    rep.content_entries = st.content.size();
    rep.buildorder_labels = 0;
    for (const auto& [g, labels] : st.buildorder) rep.buildorder_labels += labels.size();
    rep.core = time_core(tw.stack());
  }
  if (!spans_path.empty() && !write_tsv(tw.spans().spans(), spans_path))
    std::fprintf(stderr, "perfbench: could not write %s\n", spans_path.c_str());
  return out;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The result line. JSON has no NaN or infinity: such a value (a run that
/// delivered nothing, say) prints as 0 and marks the result incorrect.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) correct = correct && std::isfinite(m.value);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit);
  std::printf("}}\n");
}

void print_table(const std::vector<Metric>& metrics, const std::string& note = "") {
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.6g %-6s%s\n", m.name.c_str(), m.value, m.unit, note.c_str());
}

/// The process's resident-set high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so the launcher's own
/// footprint does not leak into it. 0 when /proc is unavailable.
double peak_rss_mb() {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen("/proc/self/status", "r"),
                                                   &std::fclose);
  if (f == nullptr) return 0;
  char line[256];
  while (std::fgets(line, sizeof line, f.get()) != nullptr) {
    unsigned long long kib = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) return static_cast<double>(kib) / 1024.0;
  }
  return 0;
}

std::uint64_t campaign_fingerprint(const std::vector<WorldOutcome>& worlds) {
  std::uint64_t acc = 0;
  for (const WorldOutcome& w : worlds) {
    const std::uint64_t words[4] = {w.chaos_seed, w.counters.fingerprint,
                                    w.counters.delivered_total, w.counters.violations};
    acc = util::fnv1a(
        util::BufferView(reinterpret_cast<const std::uint8_t*>(words), sizeof words),
        acc == 0 ? util::kFnvOffset : acc);
  }
  return acc;
}

/// attempted/failed of one repetition: values offered and values missing
/// (long runs), or seeds run and seeds with any violation (campaign).
std::pair<std::uint64_t, std::uint64_t> attempts(const WorkloadSpec& spec,
                                                 const std::vector<WorldOutcome>& worlds) {
  if (spec.kind == Kind::kChaosSmoke) {
    std::uint64_t bad = 0;
    for (const auto& w : worlds) bad += w.violations.empty() ? 0 : 1;
    return {worlds.size(), bad};
  }
  std::uint64_t offered = 0, missing = 0;
  for (const auto& w : worlds) {
    offered += w.offered;
    missing += w.undelivered;
  }
  return {offered, missing};
}

void report_violations(const std::vector<WorldOutcome>& worlds) {
  int shown = 0;
  for (const auto& w : worlds)
    for (const auto& v : w.violations)
      if (shown++ < 10)
        std::printf("  VIOLATION%s: %s\n",
                    w.chaos_seed != 0 ? (" seed " + std::to_string(w.chaos_seed)).c_str() : "",
                    v.c_str());
}

void print_fingerprints(const WorkloadSpec& spec, const std::vector<WorldOutcome>& worlds) {
  if (spec.kind == Kind::kChaosSmoke) {
    const std::uint64_t fp = campaign_fingerprint(worlds);
    std::printf("  chaos campaign fingerprint %016" PRIx64 " (seeds %" PRIu64 "..%" PRIu64 ")",
                fp, worlds.front().chaos_seed, worlds.back().chaos_seed);
    if (worlds.front().chaos_seed == 1)
      std::printf(", pinned %016" PRIx64 ": %s", kPinnedSmokeCampaign,
                  fp == kPinnedSmokeCampaign ? "match" : "DIFFERS");
    std::printf("\n");
  } else {
    std::uint64_t sum = 0;
    for (const auto& w : worlds) sum += w.counters.fingerprint;
    std::printf("  delivery fingerprint %016" PRIx64 "\n", sum);
  }
}

// --- the two kinds of run ----------------------------------------------------

/// True when chaos::run_one, the campaign's own untraced run, executed a
/// seed as the benchmark's World run `w` of that seed did.
bool matches(const chaos::RunResult& r, const WorldOutcome& w) {
  const Counters& c = w.counters;
  if (r.delivery_fingerprint == c.fingerprint && r.delivered_total == c.delivered_total &&
      r.violations.size() == c.violations)
    return true;
  std::printf("  FIDELITY: seed %" PRIu64 " chaos::run_one fingerprint %016" PRIx64
              " delivered %" PRIu64 " violations %zu vs %s\n",
              w.chaos_seed, r.delivery_fingerprint, r.delivered_total, r.violations.size(),
              describe(c).c_str());
  return false;
}

/// What the campaign times per seed: generate the schedule, then
/// chaos::run_one (World, oracles, run, recovery check, fingerprint).
chaos::RunResult run_seed(const WorkloadSpec& spec, int i) {
  static const chaos::CampaignConfig kCampaign;  // default link carries ugly_corrupt = 0.25
  const WorldInput in = make_world(spec, i);
  return chaos::run_one(kCampaign, in.scenario, in.config.n, in.chaos_seed, in.until, in.offered);
}

// Host time is kept per unit of work: a 100 ms slice of simulated time in
// the long runs, a seed in the campaign. Every unit is timed in every
// repetition, and enters the host-time metrics with its median over all
// repetitions of the run. Other tenants of the machine change its speed by
// tens of percent over seconds; a per-unit median over the whole run rides
// out those swings, and unlike a minimum it does not drift lower when a
// faster program fits more repetitions into the run.
struct UnitTimes {
  std::vector<std::vector<double>> ms;  // ms[u][r]: unit u's host ms in repetition r
  std::vector<bool> in_second_half;     // per unit

  void add(std::size_t u, double unit_ms, bool late) {
    if (u == ms.size()) {
      ms.emplace_back();
      in_second_half.push_back(late);
    }
    ms[u].push_back(unit_ms);
  }
  std::vector<double> medians() const {
    std::vector<double> m;
    for (const auto& v : ms) m.push_back(median(v));
    return m;
  }
};

int end_to_end(const WorkloadSpec& spec, const Options& opt) {
  const int worlds = world_count(spec);
  const bool campaign = spec.kind == Kind::kChaosSmoke;
  const std::int64_t start = now_ns();
  // Reference outcomes and simulated-time samples. The campaign's timed
  // runs go through chaos::run_one, which keeps no trace, so every seed
  // first runs once untimed through the benchmark's own World; the long
  // runs take both from their first timed repetition.
  std::vector<WorldOutcome> first;
  SimSamples sim;
  std::vector<double> setup_s, build_us;
  if (campaign)
    for (int i = 0; i < worlds; ++i) {
      first.push_back(run_untraced(spec, i, &sim));
      build_us.push_back(static_cast<double>(first.back().build_ns) * 1e-3);
    }
  UnitTimes units;
  sim::Time simulated = 0;
  double rss_mb = 0;
  bool deterministic = true;
  int reps = 0;
  std::int64_t rep_ns = 0;
  std::vector<double> kernel_ms;
  // Whole repetitions only, as many as fit in --seconds; at least one.
  for (; reps == 0 || ns_to_s(now_ns() - start + rep_ns) <= opt.seconds; ++reps) {
    const std::int64_t rep_start = now_ns();
    std::int64_t setup = 0;
    for (int i = 0; i < worlds; ++i) {
      const auto w = static_cast<std::size_t>(i);
      if (campaign) {
        const std::int64_t t0 = now_ns();
        const chaos::RunResult res = run_seed(spec, i);
        // The campaign's halves are its first and last 100 seeds.
        units.add(w, static_cast<double>(now_ns() - t0) * 1e-6, 2 * i >= worlds);
        if (reps == 0) simulated += first[w].until;
        deterministic = matches(res, first[w]) && deterministic;
        continue;
      }
      WorldOutcome o = run_untraced(spec, i, reps == 0 ? &sim : nullptr);
      for (std::size_t k = 0; k < o.slice_ns.size(); ++k)
        units.add(k, static_cast<double>(o.slice_ns[k]) * 1e-6, k >= o.first_half_slices);
      setup += o.setup_ns;
      build_us.push_back(static_cast<double>(o.build_ns) * 1e-3);
      if (reps == 0) {
        simulated += o.until;
        first.push_back(std::move(o));
      } else if (!(o.counters == first[w].counters)) {
        deterministic = false;
        std::printf("  NONDETERMINISTIC: world %d repetition %d: %s vs %s\n", i, reps,
                    describe(o.counters).c_str(), describe(first[w].counters).c_str());
      }
    }
    // The long runs' set-up was timed inside run_untraced; run_one
    // times none, so the campaign's comes from set-up-only samples.
    if (!campaign) setup_s.push_back(ns_to_s(setup));
    // Peak memory of one fresh repetition: later repetitions would add
    // allocator history that depends on how many fit in the run.
    if (reps == 0) rss_mb = peak_rss_mb();
    // More set-up samples, spread over the run like the repetitions.
    for (int extra = 0; extra < kSetupSamplesPerRep; ++extra) {
      std::int64_t ns = 0;
      for (int i = 0; i < worlds; ++i) ns += setup_only(spec, i);
      setup_s.push_back(ns_to_s(ns));
    }
    // After the peak-memory reading, which must not count the table.
    kernel_ms.push_back(reference_kernel_ms());
    rep_ns = now_ns() - rep_start;
  }
  // Host time on the reference machine = measured host time * to_reference.
  const double to_reference = kReferenceKernelMs / median(kernel_ms);

  const std::vector<double> unit_ms = units.medians();
  double run_ms = 0, first_half_ms = 0, second_half_ms = 0;
  for (std::size_t u = 0; u < unit_ms.size(); ++u) {
    run_ms += unit_ms[u];
    (units.in_second_half[u] ? second_half_ms : first_half_ms) += unit_ms[u];
  }
  const auto [attempted, failed] = attempts(spec, first);
  std::uint64_t views = 0;
  for (const auto& w : first) views += w.counters.views;
  const std::vector<Metric> metrics = {
      {"sim_s_per_wall_s", sim_to_s(simulated) / (run_ms * 1e-3 * to_reference), "s/s"},
      {"wall_growth_ratio", second_half_ms / first_half_ms, "ratio"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"setup_s", median(setup_s) * to_reference, "s"},
      {"deliv_per_sim_s", static_cast<double>(sim.p0_deliveries) / sim_to_s(sim.active), "1/s"},
      {"brcv_latency_p99_ms", percentile(sim.latency, 0.99) * 1e-3, "ms"},
  };
  std::printf("perfbench %s --seed %" PRIu64 " --trace 0: %d repetitions x %d world(s)\n",
              kind_name(spec.kind), spec.seed, reps, worlds);
  // What the ring did, beside every headline figure: a number measured on
  // a ring that keeps reforming views is not a steady-state result.
  print_table(metrics, "  membership.views_installed=" + std::to_string(views));
  std::printf("  reference kernel p50 %.6g ms over %zu repetitions: host times x %.6g;"
              " as measured, sim_s_per_wall_s %.6g, setup_s %.6g\n",
              median(kernel_ms), kernel_ms.size(), to_reference, sim_to_s(simulated) / (run_ms * 1e-3),
              median(setup_s));
  std::printf("  seed_wall_ms_p50 %.6g, seed_wall_ms_p95 %.6g (also in --trace 1)\n",
              percentile(unit_ms, 0.50), percentile(unit_ms, 0.95));
  std::printf("  samples: %zu units (%s), %zu set-ups, %zu latencies, %zu outages\n",
              unit_ms.size(), campaign ? "seeds via chaos::run_one" : "100 ms slices",
              setup_s.size(), sim.latency.size(), sim.outage.size());
  std::printf("  brcv_latency_p50_ms %.6g, outage_ms_p50 %.6g (also in --trace 1)\n",
              percentile(sim.latency, 0.50) * 1e-3, percentile(sim.outage, 0.50) * 1e-3);
  std::printf("  bench.ops_failed_ratio %.6g (%" PRIu64 "/%" PRIu64 ")\n",
              static_cast<double>(failed) / static_cast<double>(attempted), failed, attempted);
  std::printf("  harness.world_build_us p50 %.6g\n", median(build_us));
  print_fingerprints(spec, first);
  report_violations(first);
  print_result(deterministic && failed == 0, attempted, failed, metrics);
  return 0;
}

/// Every seed of the benchmark's World run must match chaos::run_one.
bool matches_run_one(const WorkloadSpec& spec, const std::vector<WorldOutcome>& outs) {
  bool ok = true;
  for (int i = 0; i < world_count(spec); ++i)
    ok = matches(run_seed(spec, i), outs[static_cast<std::size_t>(i)]) && ok;
  return ok;
}

double ratio_of_medians(const std::vector<std::int64_t>& last, const std::vector<std::int64_t>& first) {
  const double f = percentile(first, 0.5);
  return f > 0 ? percentile(last, 0.5) / f : 0;
}

int per_layer(const WorkloadSpec& spec, const Options& opt) {
  const int worlds = world_count(spec);
  const std::int64_t start = now_ns();
  std::map<std::string, std::vector<double>> series;
  std::vector<Metric> order;  // first pair's metrics, for names and units
  std::vector<WorldOutcome> first;
  SimSamples sim;  // simulated-time samples, from the first untraced run
  bool fidelity = true, spans_ok = true;
  std::vector<double> coverage;
  for (int pair = 0; pair < 2 || ns_to_s(now_ns() - start) < opt.seconds; ++pair) {
    std::vector<WorldOutcome> untraced, traced;
    std::int64_t u_run = 0;
    sim::Time simulated = 0;
    std::vector<double> gen_ms, recovery_ms, build_us, unit_ms;
    std::uint64_t ops = 0, events = 0;
    for (int i = 0; i < worlds; ++i) {
      untraced.push_back(run_untraced(spec, i, pair == 0 ? &sim : nullptr));
      // Host ms per unit of the untraced run: per seed (generate, build,
      // run, oracles, recovery check) in the campaign, per slice otherwise.
      if (spec.kind == Kind::kChaosSmoke)
        unit_ms.push_back(static_cast<double>(untraced.back().total_ns) * 1e-6);
      else
        for (std::int64_t ns : untraced.back().slice_ns) unit_ms.push_back(static_cast<double>(ns) * 1e-6);
      u_run += untraced.back().run_ns;
      simulated += untraced.back().until;
      events += untraced.back().counters.events;
      gen_ms.push_back(static_cast<double>(untraced.back().gen_ns) * 1e-6);
      recovery_ms.push_back(static_cast<double>(untraced.back().recovery_ns) * 1e-6);
      build_us.push_back(static_cast<double>(untraced.back().build_ns) * 1e-3);
      ops += untraced.back().ops;
    }
    TracedRep rep;
    for (int i = 0; i < worlds; ++i) {
      std::string path;
      if (pair == 0 && i == 0 && !opt.out_dir.empty())
        path = opt.out_dir + "/" + kind_name(spec.kind) + ".spans.tsv";
      traced.push_back(run_traced(spec, i, i + 1 == worlds, path, rep));
    }
    for (int i = 0; i < worlds; ++i) {
      const Counters& a = untraced[static_cast<std::size_t>(i)].counters;
      const Counters& b = traced[static_cast<std::size_t>(i)].counters;
      if (!(a == b)) {
        fidelity = false;
        std::printf("  FIDELITY: world %d untraced %s\n  FIDELITY: world %d traced   %s\n", i,
                    describe(a).c_str(), i, describe(b).c_str());
      }
    }
    if (pair == 0 && spec.kind == Kind::kChaosSmoke) fidelity = matches_run_one(spec, untraced) && fidelity;
    const LayerTotals& L = rep.layers;
    const std::int64_t residual = L.self_ns[static_cast<std::size_t>(SpanName::kStep)];
    // The self times sum to the step time by construction (the residual
    // is what the layer spans leave over), so what can fail is the tree
    // itself and how much of the run loop the steps cover.
    coverage.push_back(static_cast<double>(L.step_total_ns) / static_cast<double>(rep.run_ns));
    if (L.malformed != 0 || coverage.back() < kMinStepCoverage) {
      spans_ok = false;
      std::printf("  SPANS: %" PRIu64 " malformed, step time %.4f of the traced run\n",
                  L.malformed, coverage.back());
    }
    auto self_s = [&](SpanName n) { return ns_to_s(L.self_ns[static_cast<std::size_t>(n)]); };
    auto calls = [&](SpanName n) {
      return static_cast<double>(L.calls[static_cast<std::size_t>(n)]);
    };
    const double vstoto_s = self_s(SpanName::kValue) + self_s(SpanName::kExchange);
    const double u_speed = sim_to_s(simulated) / ns_to_s(u_run);
    const double t_speed = sim_to_s(rep.simulated) / ns_to_s(rep.run_ns);
    const double newviews = static_cast<double>(counter(rep.metrics, "ring.views_installed"));
    const obs::Histogram* per_pass = rep.metrics.find_histogram("ring.payloads_per_pass");
    const auto [attempted, failed] = attempts(spec, untraced);
    std::uint64_t packets = 0, recorded = 0, deliveries = 0;
    for (const auto& w : untraced) {
      packets += w.counters.packets_sent;
      recorded += w.counters.recorder_size;
      deliveries += w.counters.brcv;
    }
    std::vector<Metric> m = {
        {"vstoto.value.calls", calls(SpanName::kValue), "count"},
        {"vstoto.value.self_wall_s", self_s(SpanName::kValue), "s"},
        {"vstoto.value.ns_per_call_p50", percentile(L.value.all, 0.50), "ns"},
        {"vstoto.value.ns_per_call_p99", percentile(L.value.all, 0.99), "ns"},
        {"vstoto.value.cost_growth", ratio_of_medians(L.value.last_tenth, L.value.first_tenth), "ratio"},
        {"vstoto.exchange.calls", calls(SpanName::kExchange), "count"},
        {"vstoto.exchange.self_wall_s", self_s(SpanName::kExchange), "s"},
        {"vstoto.exchange.ms_per_view",
         newviews > 0 ? self_s(SpanName::kExchange) * 1e3 / newviews : 0, "ms"},
        {"vstoto.exchange.cost_growth",
         ratio_of_medians(L.exchange.last_tenth, L.exchange.first_tenth), "ratio"},
        {"vstoto.order_len", static_cast<double>(rep.order_len), "count"},
        {"vstoto.content_entries", static_cast<double>(rep.content_entries), "count"},
        {"vstoto.buildorder_labels", static_cast<double>(rep.buildorder_labels), "count"},
        {"vstoto.share_of_step", vstoto_s / ns_to_s(L.step_total_ns), "ratio"},
        {"seed_wall_ms_p50", percentile(unit_ms, 0.50), "ms"},
        {"seed_wall_ms_p95", percentile(unit_ms, 0.95), "ms"},
        {"brcv_latency_p50_ms", percentile(sim.latency, 0.50) * 1e-3, "ms"},
        {"outage_ms_p50", percentile(sim.outage, 0.50) * 1e-3, "ms"},
        {"to.bcast.calls", calls(SpanName::kToBcast), "count"},
        {"to.bcast.self_wall_s", self_s(SpanName::kToBcast), "s"},
        {"to.brcv.calls", calls(SpanName::kToBrcv), "count"},
        {"to.brcv.self_wall_s", self_s(SpanName::kToBrcv), "s"},
        {"membership.gpsnd.self_wall_s", self_s(SpanName::kGpsnd), "s"},
        {"membership.views_installed", newviews, "count"},
        {"membership.token_rotations",
         static_cast<double>(counter(rep.metrics, "ring.token_rotations")), "count"},
        {"membership.payloads_per_pass_p50",
         per_pass != nullptr ? static_cast<double>(per_pass->quantile_upper(0.5)) : 0, "count"},
        {"membership.state_exchange_bytes",
         static_cast<double>(counter(rep.metrics, "ring.state_exchange_bytes")), "bytes"},
        {"ring_net_sim.self_wall_s", ns_to_s(residual), "s"},
        {"sim.events", static_cast<double>(events), "count"},
        {"sim.events_per_wall_s", static_cast<double>(events) / ns_to_s(u_run), "1/s"},
        {"net.packets_sent", static_cast<double>(packets), "count"},
        {"net.bytes_per_delivery",
         static_cast<double>(counter(rep.metrics, "net.bytes_sent")) /
             static_cast<double>(std::max<std::uint64_t>(deliveries, 1)),
         "bytes"},
        {"net.packets_corrupted",
         static_cast<double>(counter(rep.metrics, "net.packets_corrupted")), "count"},
        {"core.fullorder_us", rep.core.fullorder_us, "us"},
        {"core.digest_us", rep.core.digest_us, "us"},
        {"core.delta_us", rep.core.delta_us, "us"},
        {"core.summary_encode_us", rep.core.encode_us, "us"},
        {"core.summary_decode_us", rep.core.decode_us, "us"},
        {"core.summary_bytes", static_cast<double>(rep.core.summary_bytes), "bytes"},
        {"spec.to_checker.self_wall_s", self_s(SpanName::kToChecker), "s"},
        {"spec.vs_checker.self_wall_s", self_s(SpanName::kVsChecker), "s"},
        {"spec.events_checked", static_cast<double>(rep.checked_events), "count"},
        {"trace.events_recorded", static_cast<double>(recorded), "count"},
        {"chaos.schedule_gen_ms_p50", percentile(gen_ms, 0.5), "ms"},
        {"chaos.ops_per_seed", static_cast<double>(ops) / worlds, "count"},
        {"chaos.recovery_check_ms_p50", percentile(recovery_ms, 0.5), "ms"},
        {"harness.world_build_us", percentile(build_us, 0.5), "us"},
        {"bench.step_wall_s", ns_to_s(L.step_total_ns), "s"},
        {"bench.trace_overhead", u_speed / t_speed, "ratio"},
        {"bench.ops_failed_ratio", static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
    for (const Metric& x : m) series[x.name].push_back(x.value);
    if (pair == 0) {
      order = m;
      first = std::move(untraced);
      if (!rep.core.round_trip_ok) {
        std::printf("  CORE: summary v3 round trip failed\n");
        fidelity = false;
      }
    }
  }
  std::vector<Metric> metrics;
  for (const Metric& m : order) metrics.push_back({m.name, median(series[m.name]), m.unit});
  const auto [attempted, failed] = attempts(spec, first);
  std::printf("perfbench %s --seed %" PRIu64 " --trace 1: %zu untraced/traced pairs x %d world(s)\n",
              kind_name(spec.kind), spec.seed, series.begin()->second.size(), worlds);
  print_table(metrics);
  std::printf("  fidelity gate (traced == untraced counters%s): %s\n",
              spec.kind == Kind::kChaosSmoke ? ", == chaos::run_one" : "",
              fidelity ? "pass" : "FAIL");
  std::printf("  span tree (steps are roots, layers nest in steps, no negative self time) and\n"
              "  step time >= %.2f of traced run_until (median %.4f): %s\n",
              kMinStepCoverage, median(coverage), spans_ok ? "pass" : "FAIL");
  std::printf("  reference counters: %s\n", describe(first.front().counters).c_str());
  print_fingerprints(spec, first);
  report_violations(first);
  print_result(fidelity && spans_ok && failed == 0, attempted, failed, metrics);
  return 0;
}

bool parse_args(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      if (!parse_kind(v, opt.kind)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", v.c_str());
        return false;
      }
      have_workload = true;
      continue;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      opt.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (opt.trace != 0 && opt.trace != 1) end = nullptr;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
      continue;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return false;
    }
    if (end == nullptr || *end != '\0' || v.empty()) {
      std::fprintf(stderr, "perfbench: bad value '%s' for %s\n", v.c_str(), a.c_str());
      return false;
    }
  }
  if (!have_workload) std::fprintf(stderr, "perfbench: --workload is required\n");
  return have_workload;
}

}  // namespace
}  // namespace vsg::perfbench

int main(int argc, char** argv) {
  using namespace vsg::perfbench;
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  const WorkloadSpec spec{opt.kind, opt.seed};
  // Precondition guard: every World of the workload must sit inside the
  // section 8 timing model, or the numbers would describe a ring that
  // never settles (the bench_throughput n=8/pi=20 cell installs 1,256
  // views with no load and no faults).
  for (int i = 0; i < world_count(spec); ++i) {
    const std::string why = timing_violation(make_world(spec, i).config);
    if (!why.empty()) {
      std::fprintf(stderr, "perfbench: %s world %d rejected: %s\n", kind_name(spec.kind), i,
                   why.c_str());
      return 3;
    }
  }
  return opt.trace == 0 ? end_to_end(spec, opt) : per_layer(spec, opt);
}
