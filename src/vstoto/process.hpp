#pragma once

// VStoTO_p (Figures 9 and 10): the per-processor automaton that implements
// totally ordered broadcast on top of a view-synchronous group service.
//
// The transcription is literal; each handler below is one transition of the
// paper's automaton, and the locally controlled actions (label, gpsnd,
// confirm, brcv) are run eagerly to quiescence after every input — the
// "good processors take enabled steps immediately" discipline of Section 7.
// (Failure modelling — bad/ugly processors — happens in the VS back end's
// delivery pump, not here: a stopped processor simply receives no
// callbacks.)
//
// One deliberate deviation, documented in DESIGN.md: on gprcv of an
// ordinary message in a primary view we append the label to `order` only if
// it is not already present. With a scheduler that may interleave `label`
// between newview and the state-exchange send, the literal code can append
// a label that establishment already placed in `order` via fullorder
// (because the sender's summary contained it), double-delivering the value.
// Our eager executor never produces that interleaving, and the guard makes
// the automaton safe under every scheduler.
//
// History variables established[p,g] and buildorder[p,g] (Section 6) are
// maintained so the verification layer can check the paper's invariants.
// They stay off the per-message path: buildorder[p, g] is order_p as of p's
// last order change in view g, and within the current view that is order_p
// itself. So buildorder[p, current] == order is not stored — a one-bit
// marker (order_changed_in_view) says whether it is defined — and on_newview
// snapshots order into buildorder[old view] once, on exit, when the marker
// is set. A labelled message costs O(1) history upkeep, a view exit
// O(|order|); verify/ resolves the current-view entry through the marker.

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/quorum.hpp"
#include "core/summary.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "trace/recorder.hpp"
#include "vs/service.hpp"
#include "vstoto/wire.hpp"

namespace vsg::vstoto {

/// Shared metrics all VStoTO processes of one stack report into (names:
/// to.*). Counters/gauges aggregate over every process bound to them; the
/// depth gauges are maintained incrementally, so for one registry they read
/// as the current totals across processes. Null pointers (the default) are
/// skipped — an unbound process pays one branch per event.
struct ProcessObs {
  obs::Counter* labels_assigned = nullptr;     // label_p actions (label churn)
  obs::Counter* values_sent = nullptr;         // gpsnd of <l, a> messages
  obs::Counter* summaries_sent = nullptr;      // full-summary exchange sends
  obs::Counter* summaries_received = nullptr;  // full-summary exchange receipts
  obs::Counter* digests_sent = nullptr;        // delta mode: digest sends
  obs::Counter* digests_received = nullptr;    // delta mode: digest receipts
  obs::Counter* deltas_sent = nullptr;         // delta mode: delta sends
  obs::Counter* deltas_received = nullptr;     // delta mode: delta receipts
  obs::Counter* payload_copies = nullptr;      // Value copies on the bcast->brcv path
  obs::Counter* payload_moves = nullptr;       // Value moves on the bcast->brcv path
  obs::Gauge* order_depth = nullptr;           // sum over procs of |order|
  obs::Gauge* confirmed_depth = nullptr;       // sum over procs of nextconfirm-1
  obs::Gauge* pending_labels = nullptr;        // sum over procs of |delay| + |buffer|
  obs::Counter* views_established = nullptr;   // establishment completions (any view)
  obs::Counter* primary_established = nullptr; // ... where the view is primary
  obs::Counter* decode_hits = nullptr;         // decode-once cache hits (fan-in)
  obs::Counter* decode_misses = nullptr;       // payloads actually parsed
  obs::Counter* history_snapshot_labels = nullptr;  // labels copied into buildorder at view exit
};

enum class PStatus : std::uint8_t { kNormal, kSend, kCollect };

const char* to_string(PStatus s) noexcept;

/// How a process ships its state on newview. kFullSummary is the paper's
/// literal gpsnd(x): the whole summary in one message. kDigestDelta is the
/// two-phase anti-entropy exchange (docs/WIRE.md, "Digest/delta state exchange"): a
/// compact digest first, then — once every member's digest is in — one
/// delta against the pointwise-weakest digest, reconstructed by receivers
/// via core::apply_delta against their own frozen exchange base. The
/// reconstructed summaries feed the same establishment algebra, so the two
/// modes deliver identically; only exchange bytes and message counts move.
enum class ExchangeMode : std::uint8_t { kFullSummary, kDigestDelta };

const char* to_string(ExchangeMode m) noexcept;

/// The full automaton state of Figure 9, plus the proof's history variables.
struct ProcessState {
  std::optional<core::View> current;        // current (views_bot)
  PStatus status = PStatus::kNormal;        // status
  std::map<core::Label, core::Value> content;
  std::uint32_t nextseqno = 1;
  std::deque<core::Label> buffer;
  std::vector<core::Label> order;
  std::uint32_t nextconfirm = 1;
  std::uint32_t nextreport = 1;
  std::optional<core::ViewId> highprimary;  // G_bot
  std::deque<core::Value> delay;
  core::SummaryMap gotstate;
  std::set<ProcId> safe_exch;
  std::set<core::Label> safe_labels;

  // Delta-mode exchange state (unused under kFullSummary). exch_base is the
  // local summary frozen at newview: the digest we advertised, the state our
  // delta describes, and the base every incoming delta is applied against.
  core::Summary exch_base;
  std::map<ProcId, core::SummaryDigest> gotdigest;
  bool delta_sent = false;

  // History variables (not part of the algorithm; used by verify/).
  // buildorder holds past views only: buildorder[p, current] is `order`
  // once order_changed_in_view is set (see the header comment).
  std::set<core::ViewId> established;
  std::map<core::ViewId, std::vector<core::Label>> buildorder;
  bool order_changed_in_view = false;
};

class Process final : public vs::Client {
 public:
  /// Called on each brcv(a)_{origin, p} output.
  using DeliveryFn = std::function<void(ProcId origin, const core::Value& a)>;

  /// `n0` is |P0|; processors 0..n0-1 start in the initial view with
  /// highprimary = g0 (Figure 9's initialization).
  Process(ProcId p, int n0, std::shared_ptr<const core::QuorumSystem> quorums,
          vs::Service& service, trace::Recorder& recorder);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcId id() const noexcept { return p_; }

  /// Input bcast(a)_p. Records the trace event and runs to quiescence.
  void bcast(core::Value a);

  void set_delivery(DeliveryFn fn) { deliver_ = std::move(fn); }

  /// Point this process at shared to.* metrics (see ProcessObs).
  void bind_metrics(const ProcessObs& obs) { obs_ = obs; }

  /// Attach a causal span tracer (null detaches). Hooks fire on label
  /// assignment, gpsnd, gprcv, order placement, confirmation, delivery and
  /// view establishment; a null tracer costs one pointer test per hook.
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

  /// Select the state-exchange protocol (default kFullSummary). Must be set
  /// before the first newview; the Stack threads the World's choice here.
  void set_exchange_mode(ExchangeMode m) { exchange_mode_ = m; }
  ExchangeMode exchange_mode() const noexcept { return exchange_mode_; }

  /// Share a decode-once cache (owned by the Stack, shared by its
  /// processes). VS delivers the same Buffer to every member and again for
  /// the safe indication, so with a shared cache each distinct payload is
  /// parsed once per node rather than once per callback. Unset: decode
  /// per callback.
  void set_decode_cache(DecodeCache* cache) { cache_ = cache; }

  // vs::Client (inputs from the VS layer):
  void on_gprcv(ProcId src, const vs::Payload& m) override;
  void on_safe(ProcId src, const vs::Payload& m) override;
  void on_newview(const core::View& v) override;

  /// Derived variable `primary` (Figure 9).
  bool primary() const;

  /// The summary <content, order, nextconfirm, highprimary> of local state.
  core::Summary local_summary() const;

  const ProcessState& state() const noexcept { return st_; }

  /// Values confirmed-and-reported so far, in order (for tests).
  const std::vector<std::pair<ProcId, core::Value>>& delivered() const noexcept {
    return delivered_;
  }

  /// Checkpoint/restore of the full automaton state (used by the
  /// exhaustive small-scope explorer to branch over schedules, and handy
  /// for debugging). The service/recorder bindings are not part of the
  /// checkpoint.
  struct Checkpoint {
    ProcessState st;
    std::vector<std::pair<ProcId, core::Value>> delivered;
  };
  Checkpoint checkpoint() const { return Checkpoint{st_, delivered_}; }
  void restore(const Checkpoint& cp);

 private:
  // Locally controlled actions (preconditions checked by callers via the
  // run-to-quiescence loop).
  bool try_label();
  bool try_gpsnd_value();
  bool try_confirm();
  bool try_brcv();
  void run_to_quiescence();

  /// Decode via the shared cache when bound, else parse locally. nullptr on
  /// malformed input.
  std::shared_ptr<const Message> decode_shared(const vs::Payload& payload);

  void handle_labeled(ProcId src, const LabeledValue& lv);
  void handle_summary(ProcId src, const core::Summary& x);
  void handle_digest(ProcId src, const core::SummaryDigest& g);
  void handle_delta(ProcId src, const core::SummaryDelta& dl);
  /// Delta mode: once every member's digest is in, broadcast the one delta
  /// against their meet (VS has no point-to-point send).
  void maybe_send_delta();
  void handle_safe_labeled(ProcId src, const LabeledValue& lv);
  /// A state-exchange message (full summary, or delta-mode delta) became
  /// safe at every member; digests carry no labels and do not count.
  void handle_safe_exchange(ProcId src);

  void assign_order(std::vector<core::Label> order);
  void append_order(const core::Label& l);

  ProcId p_;
  std::shared_ptr<const core::QuorumSystem> quorums_;
  vs::Service* service_;
  trace::Recorder* recorder_;
  DeliveryFn deliver_;
  DecodeCache* cache_ = nullptr;
  ExchangeMode exchange_mode_ = ExchangeMode::kFullSummary;
  ProcessObs obs_;
  obs::SpanTracer* tracer_ = nullptr;
  ProcessState st_;
  std::set<core::Label> order_members_;  // duplicate guard index over st_.order
  std::vector<std::pair<ProcId, core::Value>> delivered_;
};

}  // namespace vsg::vstoto
