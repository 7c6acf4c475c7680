#include "vstoto/process.hpp"

#include <cassert>

#include "util/logging.hpp"
#include "util/sequence.hpp"

namespace vsg::vstoto {

const char* to_string(PStatus s) noexcept {
  switch (s) {
    case PStatus::kNormal:
      return "normal";
    case PStatus::kSend:
      return "send";
    case PStatus::kCollect:
      return "collect";
  }
  return "?";
}

const char* to_string(ExchangeMode m) noexcept {
  return m == ExchangeMode::kFullSummary ? "full-summary" : "digest-delta";
}

Process::Process(ProcId p, int n0, std::shared_ptr<const core::QuorumSystem> quorums,
                 vs::Service& service, trace::Recorder& recorder)
    : p_(p), quorums_(std::move(quorums)), service_(&service), recorder_(&recorder) {
  assert(quorums_ != nullptr);
  if (p < n0) {
    st_.current = core::initial_view(n0);
    st_.highprimary = core::ViewId::initial();
    // The initial view is established by fiat: every member starts in it
    // with status normal (Figure 9 initializes status to normal).
    st_.established.insert(core::ViewId::initial());
    st_.order_changed_in_view = true;  // buildorder[p, g0] = {} = order
  }
}

void Process::restore(const Checkpoint& cp) {
  if (obs_.order_depth != nullptr)
    obs_.order_depth->add(static_cast<std::int64_t>(cp.st.order.size()) -
                          static_cast<std::int64_t>(st_.order.size()));
  if (obs_.confirmed_depth != nullptr)
    obs_.confirmed_depth->add(static_cast<std::int64_t>(cp.st.nextconfirm) -
                              static_cast<std::int64_t>(st_.nextconfirm));
  if (obs_.pending_labels != nullptr)
    obs_.pending_labels->add(
        static_cast<std::int64_t>(cp.st.delay.size() + cp.st.buffer.size()) -
        static_cast<std::int64_t>(st_.delay.size() + st_.buffer.size()));
  st_ = cp.st;
  delivered_ = cp.delivered;
  order_members_ = std::set<core::Label>(st_.order.begin(), st_.order.end());
}

bool Process::primary() const {
  return st_.current.has_value() && quorums_->contains_quorum(st_.current->members);
}

core::Summary Process::local_summary() const {
  core::Summary x;
  x.con = st_.content;
  x.ord = st_.order;
  x.next = st_.nextconfirm;
  x.high = st_.highprimary;
  return x;
}

void Process::assign_order(std::vector<core::Label> order) {
  if (obs_.order_depth != nullptr)
    obs_.order_depth->add(static_cast<std::int64_t>(order.size()) -
                          static_cast<std::int64_t>(st_.order.size()));
  if (tracer_ != nullptr)
    for (const core::Label& l : order)
      if (order_members_.count(l) == 0) tracer_->msg_tentative(p_, l, recorder_->now());
  st_.order = std::move(order);
  order_members_ = std::set<core::Label>(st_.order.begin(), st_.order.end());
  st_.order_changed_in_view = true;
}

void Process::append_order(const core::Label& l) {
  if (obs_.order_depth != nullptr) obs_.order_depth->add(1);
  if (tracer_ != nullptr) tracer_->msg_tentative(p_, l, recorder_->now());
  st_.order.push_back(l);
  order_members_.insert(l);
  st_.order_changed_in_view = true;
}

// --- Input bcast(a)_p --------------------------------------------------------

void Process::bcast(core::Value a) {
  recorder_->record(trace::BcastEvent{p_, a});  // the trace keeps its own copy
  obs::bump(obs_.payload_copies);
  st_.delay.push_back(std::move(a));
  obs::bump(obs_.payload_moves);
  if (obs_.pending_labels != nullptr) obs_.pending_labels->add(1);
  run_to_quiescence();
}

// --- Internal label(a)_p -----------------------------------------------------

bool Process::try_label() {
  if (st_.delay.empty() || !st_.current.has_value()) return false;
  const core::Label l{st_.current->id, st_.nextseqno, p_};
  st_.content.emplace(l, std::move(st_.delay.front()));
  obs::bump(obs_.payload_moves);
  obs::bump(obs_.labels_assigned);
  if (tracer_ != nullptr) tracer_->msg_labeled(p_, l, recorder_->now());
  st_.buffer.push_back(l);
  ++st_.nextseqno;
  st_.delay.pop_front();
  return true;
}

// --- Output gpsnd(<l, a>)_p --------------------------------------------------

bool Process::try_gpsnd_value() {
  if (st_.status != PStatus::kNormal || st_.buffer.empty()) return false;
  const core::Label l = st_.buffer.front();
  const auto it = st_.content.find(l);
  assert(it != st_.content.end());  // Lemma 6.6
  util::Buffer m = encode_message(Message{LabeledValue{l, it->second}});
  // The storage uid of this buffer is the tracer's origin-side correlation
  // key: the outbox, the token entry and the self-delivery all share it.
  if (tracer_ != nullptr) tracer_->msg_sent(p_, l, m.id(), recorder_->now());
  service_->gpsnd(p_, std::move(m));
  obs::bump(obs_.values_sent);
  st_.buffer.pop_front();
  if (obs_.pending_labels != nullptr) obs_.pending_labels->add(-1);
  return true;
}

// --- Internal confirm_p ------------------------------------------------------

bool Process::try_confirm() {
  if (!primary()) return false;
  // nextconfirm == 0 is unreachable from any real execution (it starts at 1
  // and only grows), but a garbage summary under the injected
  // unchecked-decode fault (docs/CHAOS.md) can plant it via maxnextconfirm;
  // stand down rather than index order[-1].
  if (st_.nextconfirm == 0 || st_.nextconfirm > st_.order.size()) return false;
  const core::Label& l = st_.order[st_.nextconfirm - 1];
  if (st_.safe_labels.count(l) == 0) return false;
  if (tracer_ != nullptr) tracer_->msg_confirmed(p_, l, recorder_->now());
  ++st_.nextconfirm;
  if (obs_.confirmed_depth != nullptr) obs_.confirmed_depth->add(1);
  return true;
}

// --- Output brcv(a)_{q,p} ----------------------------------------------------

bool Process::try_brcv() {
  if (st_.nextreport >= st_.nextconfirm) return false;
  // In any real state nextreport < nextconfirm <= order.size() + 1 and every
  // order label has content (Lemma 6.6). A corrupted summary under the
  // injected unchecked-decode fault (docs/CHAOS.md) can break both; stand
  // down instead of reading past the vector, so the damage stays visible to
  // the oracles rather than becoming undefined behavior.
  if (st_.nextreport > st_.order.size()) return false;
  const core::Label& l = st_.order[st_.nextreport - 1];
  const auto it = st_.content.find(l);
  if (it == st_.content.end()) return false;
  const ProcId origin = l.origin;
  if (tracer_ != nullptr) tracer_->msg_delivered(p_, l, recorder_->now());
  // Two deliberate copies: the trace event and the delivered() accessor.
  recorder_->record(trace::BrcvEvent{origin, p_, it->second});
  delivered_.emplace_back(origin, it->second);
  obs::bump(obs_.payload_copies, 2);
  if (deliver_) deliver_(origin, it->second);
  ++st_.nextreport;
  return true;
}

void Process::run_to_quiescence() {
  // Locally controlled actions fire until none is enabled. Each iteration
  // performs at least one transition, and every transition strictly consumes
  // (delay, buffer) or advances a monotone counter bounded by order/content
  // sizes, so the loop terminates.
  for (;;) {
    bool progressed = false;
    while (try_label()) progressed = true;
    while (try_gpsnd_value()) progressed = true;
    while (try_confirm()) progressed = true;
    while (try_brcv()) progressed = true;
    if (!progressed) break;
  }
}

// --- Input newview(v)_p ------------------------------------------------------

void Process::on_newview(const core::View& v) {
  assert(v.contains(p_));
  // History: order is final for the view being left, so buildorder[p, old]
  // is taken now, once, rather than on every order change inside it.
  if (st_.current.has_value() && st_.order_changed_in_view) {
    st_.buildorder[st_.current->id] = st_.order;
    obs::bump(obs_.history_snapshot_labels, st_.order.size());
  }
  st_.order_changed_in_view = false;
  st_.current = v;
  st_.nextseqno = 1;
  if (!st_.buffer.empty() && obs_.pending_labels != nullptr)
    obs_.pending_labels->add(-static_cast<std::int64_t>(st_.buffer.size()));
  st_.buffer.clear();
  st_.gotstate.clear();
  st_.safe_exch.clear();
  st_.safe_labels.clear();
  st_.gotdigest.clear();
  st_.delta_sent = false;
  st_.status = PStatus::kSend;

  // Output gpsnd(x)_p with x = <content, order, nextconfirm, highprimary>:
  // performed immediately (see the header comment: sending the summary
  // before any other local action closes the label/state-exchange race).
  // Both modes freeze the exchange base here; delta mode advertises its
  // digest instead of shipping the whole summary (phase 1 of the
  // anti-entropy exchange — the delta follows in maybe_send_delta).
  st_.exch_base = local_summary();
  if (exchange_mode_ == ExchangeMode::kDigestDelta) {
    service_->gpsnd(p_, encode_message(Message{core::digest(st_.exch_base)}));
    obs::bump(obs_.digests_sent);
  } else {
    service_->gpsnd(p_, encode_message(Message{st_.exch_base}));
    obs::bump(obs_.summaries_sent);
  }
  st_.status = PStatus::kCollect;

  run_to_quiescence();
}

// --- Inputs gprcv(m)_{q,p} ---------------------------------------------------

std::shared_ptr<const Message> Process::decode_shared(const vs::Payload& payload) {
  if (cache_ != nullptr) {
    const std::uint64_t h = cache_->hits();
    auto msg = cache_->decode(payload);
    obs::bump(cache_->hits() != h ? obs_.decode_hits : obs_.decode_misses);
    return msg;
  }
  obs::bump(obs_.decode_misses);
  auto decoded = decode_message_ex(payload.view());
  if (!decoded.ok()) {
    VSG_WARN << "process " << p_ << ": " << decoded.error;
    return nullptr;
  }
  return std::make_shared<const Message>(std::move(*decoded.value));
}

void Process::on_gprcv(ProcId src, const vs::Payload& payload) {
  const auto decoded = decode_shared(payload);
  if (decoded == nullptr) {
    VSG_WARN << "process " << p_ << ": undecodable gprcv payload dropped";
    return;
  }
  if (const auto* lv = std::get_if<LabeledValue>(decoded.get()))
    handle_labeled(src, *lv);
  else if (const auto* x = std::get_if<core::Summary>(decoded.get()))
    handle_summary(src, *x);
  else if (const auto* g = std::get_if<core::SummaryDigest>(decoded.get()))
    handle_digest(src, *g);
  else
    handle_delta(src, std::get<core::SummaryDelta>(*decoded));
  run_to_quiescence();
}

void Process::handle_labeled(ProcId src, const LabeledValue& lv) {
  (void)src;
  if (tracer_ != nullptr) tracer_->msg_received(p_, lv.label, recorder_->now());
  // The self-delivered copy (the VS layer gprcvs to the sender too) finds
  // its label already in content; only a genuine insertion copies the value
  // out of the shared decoded message.
  if (st_.content.emplace(lv.label, lv.value).second)
    obs::bump(obs_.payload_copies);
  if (primary() && order_members_.count(lv.label) == 0) append_order(lv.label);
}

void Process::handle_summary(ProcId src, const core::Summary& x) {
  obs::bump(obs_.summaries_received);
  st_.content.insert(x.con.begin(), x.con.end());
  st_.gotstate.insert_or_assign(src, x);

  if (!st_.current.has_value()) return;
  // Establishment: all members' summaries collected.
  std::set<ProcId> have;
  for (const auto& [q, xs] : st_.gotstate) have.insert(q);
  if (have != st_.current->members || st_.status != PStatus::kCollect) return;

  const std::uint32_t prevconfirm = st_.nextconfirm;
  st_.nextconfirm = core::maxnextconfirm(st_.gotstate);
  if (obs_.confirmed_depth != nullptr)
    obs_.confirmed_depth->add(static_cast<std::int64_t>(st_.nextconfirm) -
                              static_cast<std::int64_t>(prevconfirm));
  if (primary()) {
    assign_order(core::fullorder(st_.gotstate));
    st_.highprimary = st_.current->id;
  } else {
    assign_order(core::shortorder(st_.gotstate));
    st_.highprimary = core::maxprimary(st_.gotstate);
  }
  st_.status = PStatus::kNormal;
  st_.established.insert(st_.current->id);  // history variable
  obs::bump(obs_.views_established);
  if (primary()) obs::bump(obs_.primary_established);
  if (tracer_ != nullptr)
    tracer_->view_established(p_, st_.current->id, primary(), recorder_->now());
  VSG_DEBUG << "process " << p_ << " established view " << core::to_string(*st_.current)
            << (primary() ? " (primary)" : " (non-primary)");
}

void Process::handle_digest(ProcId src, const core::SummaryDigest& g) {
  obs::bump(obs_.digests_received);
  if (!st_.current.has_value() || !st_.current->contains(src)) return;
  st_.gotdigest.insert_or_assign(src, g);
  maybe_send_delta();
}

void Process::maybe_send_delta() {
  if (st_.delta_sent || st_.status != PStatus::kCollect || !st_.current.has_value())
    return;
  // Phase 2 needs every member's digest (including our own, self-delivered
  // by VS): the broadcast delta must be sound for the weakest peer.
  core::SummaryDigest weakest;
  bool first = true;
  for (const ProcId q : st_.current->members) {
    const auto it = st_.gotdigest.find(q);
    if (it == st_.gotdigest.end()) return;
    weakest = first ? it->second : core::meet(weakest, it->second);
    first = false;
  }
  st_.delta_sent = true;
  if (tracer_ != nullptr)
    tracer_->view_digests_collected(p_, st_.current->id, recorder_->now());
  service_->gpsnd(p_,
                  encode_message(Message{core::delta(st_.exch_base, weakest)}));
  obs::bump(obs_.deltas_sent);
}

void Process::handle_delta(ProcId src, const core::SummaryDelta& dl) {
  obs::bump(obs_.deltas_received);
  // Reconstruct the sender's frozen summary against our own frozen base and
  // feed it into the untouched establishment path. apply_delta only fails on
  // input no correct sender produces (an ord prefix beyond our digest).
  auto x = core::apply_delta(dl, st_.exch_base);
  if (!x.has_value()) {
    VSG_WARN << "process " << p_ << ": delta from " << src
             << " overruns the local exchange base; dropped";
    return;
  }
  handle_summary(src, *x);
}

// --- Inputs safe(m)_{q,p} ----------------------------------------------------

void Process::on_safe(ProcId src, const vs::Payload& payload) {
  const auto decoded = decode_shared(payload);
  if (decoded == nullptr) {
    VSG_WARN << "process " << p_ << ": undecodable safe payload dropped";
    return;
  }
  if (const auto* lv = std::get_if<LabeledValue>(decoded.get()))
    handle_safe_labeled(src, *lv);
  else if (std::holds_alternative<core::SummaryDigest>(*decoded)) {
    // Digests carry no labels; only the delta gates the second phase.
  } else {
    handle_safe_exchange(src);
  }
  run_to_quiescence();
}

void Process::handle_safe_labeled(ProcId src, const LabeledValue& lv) {
  (void)src;
  if (primary()) st_.safe_labels.insert(lv.label);
}

void Process::handle_safe_exchange(ProcId src) {
  st_.safe_exch.insert(src);
  if (!st_.current.has_value()) return;
  if (st_.safe_exch == st_.current->members && primary()) {
    // All state-exchange messages are safe: every label placed by the
    // exchange is now safe (second phase of recovery, Section 5). In delta
    // mode the qualifying message per member is its delta — same cardinality
    // as the full-summary exchange, so the condition is unchanged.
    for (const auto& l : core::fullorder(st_.gotstate)) st_.safe_labels.insert(l);
  }
}

}  // namespace vsg::vstoto
