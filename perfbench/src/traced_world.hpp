#pragma once

// TracedWorld: the single-shard token-ring stack of harness::World,
// assembled by hand from the public parts (Simulator, FailureTable,
// Network, TokenRingVS, to::Stack, Recorder) so that benchmark-owned
// decorators sit at every public layer boundary and record host-time
// spans. Construction order, RNG split order and scheduling mirror World,
// so a fixed seed gives the same execution: the benchmark checks that the
// traced run's deterministic counters equal the untraced World run's.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "membership/token_ring_vs.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/failure_table.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "spec/to_trace_checker.hpp"
#include "spec/vs_trace_checker.hpp"
#include "to/stack.hpp"
#include "trace/recorder.hpp"

namespace vsg::perfbench {

/// Counts brcv upcalls; attached at every processor in both kinds of run.
class CountingClient : public to::Client {
 public:
  void on_brcv(ProcId, const core::Value&) override { ++count_; }
  std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
};

/// vs::Client decorator (ring -> VStoTO). Payloads are classified as value
/// or state exchange by their VSTOTO tag byte, without decoding.
class TimedVsClient final : public vs::Client {
 public:
  TimedVsClient(vs::Client& inner, SpanLog& log) : inner_(&inner), log_(&log) {}
  void on_gprcv(ProcId src, const vs::Payload& m) override;
  void on_safe(ProcId src, const vs::Payload& m) override;
  void on_newview(const core::View& v) override;

 private:
  vs::Client* inner_;
  SpanLog* log_;
};

/// vs::Service decorator (VStoTO -> ring): times gpsnd and wraps every
/// client the stack attaches.
class TimedVsService final : public vs::Service {
 public:
  TimedVsService(vs::Service& inner, SpanLog& log) : inner_(&inner), log_(&log) {}
  int size() const override { return inner_->size(); }
  void attach(ProcId p, vs::Client& client) override;
  void gpsnd(ProcId p, vs::Payload m) override;

 private:
  vs::Service* inner_;
  SpanLog* log_;
  std::vector<std::unique_ptr<TimedVsClient>> clients_;
};

/// to::Client decorator timing the brcv upcall.
class TimedToClient final : public to::Client {
 public:
  explicit TimedToClient(SpanLog& log) : log_(&log) {}
  void on_brcv(ProcId origin, const core::Value& a) override {
    Scope s(*log_, SpanName::kToBrcv);
    counter_.on_brcv(origin, a);
  }
  std::uint64_t count() const noexcept { return counter_.count(); }

 private:
  SpanLog* log_;
  CountingClient counter_;
};

class TracedWorld {
 public:
  /// Accepts exactly what the benchmark's untraced runs use: token-ring
  /// backend, one shard, no in-program tracing or sampling, no admission
  /// gate. Throws std::invalid_argument otherwise.
  explicit TracedWorld(const harness::WorldConfig& config);

  int n() const noexcept { return config_.n; }

  // Scheduling, with World's semantics and event order.
  void bcast_at(sim::Time t, ProcId p, core::Value a);
  void partition_at(sim::Time t, std::vector<std::set<ProcId>> components);
  void heal_at(sim::Time t);
  void proc_status_at(sim::Time t, ProcId p, sim::Status status);
  void link_status_at(sim::Time t, ProcId p, ProcId q, sim::Status status);
  /// Scenario::apply for this world (shards == 1, so every bcast goes to
  /// the one stack), in the same op order.
  void apply(const harness::Scenario& scenario);

  /// Run every event with time <= t, one timed Simulator::step() at a
  /// time. Stop sentinels bound the loop; their steps are neither counted
  /// nor logged, and they run no protocol code, so the protocol's event
  /// order is exactly World::run_until's.
  void run_until(sim::Time t);

  /// Protocol events executed (the untraced World's events_processed()).
  std::uint64_t events() const noexcept { return sim_.events_processed() - sentinels_; }

  trace::Recorder& recorder() noexcept { return recorder_; }
  to::Stack& stack() noexcept { return *stack_; }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  SpanLog& spans() noexcept { return log_; }
  std::uint64_t brcv_count() const;
  /// Oracle verdicts, in chaos::OracleSet order (TO checker, then VS).
  std::vector<std::string> violations() const;

 private:
  harness::WorldConfig config_;
  obs::MetricsRegistry metrics_;
  sim::Simulator sim_;
  sim::FailureTable failures_;
  SpanLog log_;
  trace::Recorder recorder_;
  spec::TOTraceChecker to_checker_;
  spec::VSTraceChecker vs_checker_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<membership::TokenRingVS> ring_;
  std::unique_ptr<TimedVsService> vs_;
  std::unique_ptr<to::Stack> stack_;
  std::vector<std::unique_ptr<TimedToClient>> clients_;
  std::uint64_t sentinels_ = 0;
};

}  // namespace vsg::perfbench
