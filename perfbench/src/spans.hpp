#pragma once

// Host-time spans recorded by the benchmark around calls into each public
// layer of the stack (the Figure 1 boundaries). A span is (name, start,
// end, parent); parents come from nesting, so a layer's self time is its
// span time minus the spans it contains. The simulator step is the root of
// every span tree: whatever part of a step no layer span covers is ring
// protocol + network delivery + event queue + trace recorder, which cannot
// be separated from outside the program and is reported as one residual.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace vsg::perfbench {

enum class SpanName : std::uint8_t {
  kStep,         // Simulator::step(); self time = the ring_net_sim residual
  kToBcast,      // to::Stack::bcast, from the scheduled submission lambda
  kGpsnd,        // vs::Service::gpsnd, the VStoTO -> ring call
  kValue,        // vs::Client gprcv/safe carrying a labelled value
  kExchange,     // vs::Client gprcv/safe of summary/digest/delta, and newview
  kToBrcv,       // to::Client::on_brcv upcall
  kToChecker,    // spec::TOTraceChecker::on_event
  kVsChecker,    // spec::VSTraceChecker::on_event
  kCount
};

inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);

inline const char* span_label(SpanName n) {
  static constexpr std::array<const char*, kSpanNames> kLabels = {
      "sim.step",        "to.bcast",        "membership.gpsnd", "vstoto.value",
      "vstoto.exchange", "to.brcv",         "spec.to_checker",  "spec.vs_checker"};
  return kLabels[static_cast<std::size_t>(n)];
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  sim::Time at = 0;          // simulated time when the span opened
  std::int32_t parent = -1;  // index into the log, -1 for a root
  SpanName name = SpanName::kStep;
};

/// In-memory span log for one World. Spans stay in memory until the World
/// ends; fold() and write_tsv() consume them afterwards.
class SpanLog {
 public:
  explicit SpanLog(const sim::Simulator& simulator) : sim_(&simulator) { spans_.reserve(1 << 16); }

  std::int32_t open(SpanName name) {
    spans_.push_back(Span{now_ns(), 0, sim_->now(), current_, name});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t i) {
    Span& s = spans_[static_cast<std::size_t>(i)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }
  /// Drop the most recent span (it must be closed and childless): the run
  /// loop uses this to forget the step that ran its own stop sentinel.
  void drop_last() { spans_.pop_back(); }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  const sim::Simulator* sim_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

class Scope {
 public:
  Scope(SpanLog& log, SpanName name) : log_(&log), index_(log.open(name)) {}
  ~Scope() { log_->close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

/// Self costs of one kind of callback: every call, and the calls that
/// opened in the first and in the last tenth of the submission window.
struct CallCosts {
  std::vector<std::int64_t> all, first_tenth, last_tenth;
};

/// Per-name totals folded from span logs. self_ns[kStep] is the residual,
/// so the self times sum to step_total_ns by construction.
struct LayerTotals {
  std::array<std::uint64_t, kSpanNames> calls{};
  std::array<std::int64_t, kSpanNames> self_ns{};
  std::int64_t step_total_ns = 0;
  /// Spans that break the tree: a step that is not a root, a layer span
  /// outside every step, or a span whose children outlast it.
  std::uint64_t malformed = 0;
  CallCosts value, exchange;
};

/// Fold one World's spans into `into`; `window` is that World's
/// submission window [0, window) in simulated time.
void fold(const std::vector<Span>& spans, sim::Time window, LayerTotals& into);

/// Write spans as tab-separated text (name, start_ns, end_ns, parent,
/// sim_us), start and end relative to the first span. False on I/O error.
bool write_tsv(const std::vector<Span>& spans, const std::string& path);

}  // namespace vsg::perfbench
