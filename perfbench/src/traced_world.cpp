#include "traced_world.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/codec.hpp"
#include "core/quorum.hpp"

namespace vsg::perfbench {
namespace {

SpanName classify(const vs::Payload& m) {
  return m.size() > 0 && m[0] == wire::kPayloadValue ? SpanName::kValue : SpanName::kExchange;
}

harness::WorldConfig accepted(harness::WorldConfig c) {
  c.validate();
  if (c.backend != harness::Backend::kTokenRing || c.shards != 1 || !c.shard_rings.empty() ||
      c.trace.enabled || c.sampler.enabled || c.ring.admission_max_backlog != 0)
    throw std::invalid_argument(
        "TracedWorld: only the single-shard, untraced, unsampled, ungated token-ring "
        "world is supported");
  if (c.n0 < 0) c.n0 = c.n;
  if (c.quorums == nullptr) c.quorums = core::majorities(c.n);
  return c;
}

}  // namespace

void TimedVsClient::on_gprcv(ProcId src, const vs::Payload& m) {
  Scope s(*log_, classify(m));
  inner_->on_gprcv(src, m);
}

void TimedVsClient::on_safe(ProcId src, const vs::Payload& m) {
  Scope s(*log_, classify(m));
  inner_->on_safe(src, m);
}

void TimedVsClient::on_newview(const core::View& v) {
  Scope s(*log_, SpanName::kExchange);
  inner_->on_newview(v);
}

void TimedVsService::attach(ProcId p, vs::Client& client) {
  clients_.resize(std::max(clients_.size(), static_cast<std::size_t>(p) + 1));
  auto& slot = clients_[static_cast<std::size_t>(p)];
  slot = std::make_unique<TimedVsClient>(client, *log_);
  inner_->attach(p, *slot);
}

void TimedVsService::gpsnd(ProcId p, vs::Payload m) {
  Scope s(*log_, SpanName::kGpsnd);
  inner_->gpsnd(p, std::move(m));
}

// Mirrors harness::World's constructor for one token-ring shard: same RNG
// split order (network first, then the ring), same metric bindings, the
// exchange mode World derives from the wire version, ring started last.
// The oracle tap is subscribed after construction, as chaos::OracleSet
// does on a World.
TracedWorld::TracedWorld(const harness::WorldConfig& config)
    : config_(accepted(config)),
      failures_(config_.n),
      log_(sim_),
      recorder_(sim_),
      to_checker_(config_.n),
      vs_checker_(config_.n, config_.n0) {
  util::Rng rng(config_.seed);
  failures_.subscribe([this](const sim::StatusEvent& ev) { recorder_.record(ev); });
  net_ = std::make_unique<net::Network>(sim_, failures_, config_.link, rng.split());
  net_->bind_metrics(metrics_);
  membership::TokenRingConfig rcfg = config_.ring;
  rcfg.port = 0;
  ring_ = std::make_unique<membership::TokenRingVS>(sim_, *net_, failures_, recorder_, config_.n,
                                                    config_.n0, rcfg, rng.split());
  ring_->bind_metrics(metrics_);
  vs_ = std::make_unique<TimedVsService>(*ring_, log_);
  const auto exchange = rcfg.wire == membership::WireFormat::kV3
                            ? vstoto::ExchangeMode::kDigestDelta
                            : vstoto::ExchangeMode::kFullSummary;
  stack_ = std::make_unique<to::Stack>(*vs_, recorder_, config_.quorums, config_.n0, exchange);
  stack_->bind_metrics(metrics_);
  ring_->start();

  recorder_.subscribe([this](const trace::TimedEvent& te) {
    {
      Scope s(log_, SpanName::kToChecker);
      to_checker_.on_event(te);
    }
    Scope s(log_, SpanName::kVsChecker);
    vs_checker_.on_event(te);
  });
  for (ProcId p = 0; p < config_.n; ++p) {
    clients_.push_back(std::make_unique<TimedToClient>(log_));
    stack_->attach(p, *clients_.back());
  }
}

void TracedWorld::bcast_at(sim::Time t, ProcId p, core::Value a) {
  sim_.at(t, [this, p, a = std::move(a)]() mutable {
    Scope s(log_, SpanName::kToBcast);
    stack_->bcast(p, std::move(a));
  });
}

void TracedWorld::partition_at(sim::Time t, std::vector<std::set<ProcId>> components) {
  sim_.at(t, [this, comps = std::move(components)] { failures_.partition(comps, sim_.now()); });
}

void TracedWorld::heal_at(sim::Time t) {
  sim_.at(t, [this] { failures_.heal(sim_.now()); });
}

void TracedWorld::proc_status_at(sim::Time t, ProcId p, sim::Status status) {
  sim_.at(t, [this, p, status] { failures_.set_proc(p, status, sim_.now()); });
}

void TracedWorld::link_status_at(sim::Time t, ProcId p, ProcId q, sim::Status status) {
  sim_.at(t, [this, p, q, status] { failures_.set_link(p, q, status, sim_.now()); });
}

void TracedWorld::apply(const harness::Scenario& scenario) {
  for (const auto& timed : scenario.ops) {
    if (const auto* b = std::get_if<harness::OpBcast>(&timed.op))
      bcast_at(timed.at, b->p, b->a);
    else if (const auto* part = std::get_if<harness::OpPartition>(&timed.op))
      partition_at(timed.at, part->components);
    else if (std::get_if<harness::OpHeal>(&timed.op))
      heal_at(timed.at);
    else if (const auto* ps = std::get_if<harness::OpProcStatus>(&timed.op))
      proc_status_at(timed.at, ps->p, ps->status);
    else if (const auto* ls = std::get_if<harness::OpLinkStatus>(&timed.op))
      link_status_at(timed.at, ls->p, ls->q, ls->status);
  }
}

// A sentinel at t runs after every event at t scheduled before it. Events
// that those events schedule at t itself land behind it, so a fresh
// sentinel follows until one fires with no protocol step before it — the
// point where World::run_until(t) returns.
void TracedWorld::run_until(sim::Time t) {
  t = std::max(t, sim_.now());
  for (bool drained = false; !drained;) {
    bool reached = false;
    sim_.at(t, [&reached] { reached = true; });
    ++sentinels_;
    std::uint64_t stepped = 0;
    for (;;) {
      const std::int32_t span = log_.open(SpanName::kStep);
      sim_.step();
      log_.close(span);
      if (reached) break;
      ++stepped;
    }
    log_.drop_last();
    drained = stepped == 0;
  }
}

std::uint64_t TracedWorld::brcv_count() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->count();
  return total;
}

std::vector<std::string> TracedWorld::violations() const {
  std::vector<std::string> out = to_checker_.violations();
  out.insert(out.end(), vs_checker_.violations().begin(), vs_checker_.violations().end());
  return out;
}

}  // namespace vsg::perfbench
