#include "verify/invariants.hpp"

#include <algorithm>

#include "util/sequence.hpp"

namespace vsg::verify {
namespace {

// highprimary comparison treating nullopt as the paper's bottom (< all).
bool lt(const std::optional<core::ViewId>& a, const core::ViewId& b) {
  return !a.has_value() || *a < b;
}
bool le(const std::optional<core::ViewId>& a, const core::ViewId& b) {
  return !a.has_value() || *a <= b;
}
bool ge(const std::optional<core::ViewId>& a, const core::ViewId& b) {
  return a.has_value() && *a >= b;
}

std::string pname(ProcId p) { return "p" + std::to_string(p); }

bool established(const GlobalState& s, ProcId p, const core::ViewId& g) {
  return s.st(p).established.count(g) != 0;
}

// buildorder[p, g]: order itself for the current view once order changed
// in it, else the snapshot taken when p left g (nullptr = undefined).
const std::vector<core::Label>* buildorder(const GlobalState& s, ProcId p,
                                           const core::ViewId& g) {
  const auto& st = s.st(p);
  if (st.current.has_value() && st.current->id == g)
    return st.order_changed_in_view ? &st.order : nullptr;
  auto it = st.buildorder.find(g);
  return it == st.buildorder.end() ? nullptr : &it->second;
}

}  // namespace

std::vector<std::string> check_lemma_6_1(const GlobalState& s) {
  std::vector<std::string> bad;
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    const auto& mcur = s.machine->current_viewid(p);
    if (st.current.has_value() != mcur.has_value())
      bad.push_back("6.1(1): " + pname(p) + " current definedness mismatch with VS-machine");
    if (st.current.has_value() && mcur.has_value() && !(st.current->id == *mcur))
      bad.push_back("6.1(2): " + pname(p) + " current viewid mismatch with VS-machine");
    if (st.current.has_value()) {
      const auto members = s.machine->created_membership(st.current->id);
      if (!members.has_value() || *members != st.current->members)
        bad.push_back("6.1(3): " + pname(p) + " current view not in created");
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_2(const GlobalState& s) {
  std::vector<std::string> bad;
  for (ProcId p = 0; p < s.size(); ++p)
    if (!s.st(p).current.has_value() && s.st(p).status != vstoto::PStatus::kNormal)
      bad.push_back("6.2: " + pname(p) + " has no view but status != normal");
  return bad;
}

std::vector<std::string> check_lemma_6_3(const GlobalState& s) {
  std::vector<std::string> bad;
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    for (const auto& l : st.buffer) {
      if (!st.current.has_value())
        bad.push_back("6.3(1): " + pname(p) + " buffered label without a view");
      else if (l.origin != p || !(l.id == st.current->id))
        bad.push_back("6.3(1): " + pname(p) + " buffered label " + core::to_string(l) +
                      " not own/current");
    }
  }
  for (const auto& g : relevant_viewids(s)) {
    for (ProcId p = 0; p < s.size(); ++p) {
      for (const auto& payload : s.machine->pending(p, g))
        if (auto lv = payload_labeled(payload))
          if (lv->label.origin != p || !(lv->label.id == g))
            bad.push_back("6.3(2): pending labeled value with wrong origin/view");
    }
    for (const auto& entry : s.machine->queue(g))
      if (auto lv = payload_labeled(entry.m))
        if (lv->label.origin != entry.p || !(lv->label.id == g))
          bad.push_back("6.3(3): queued labeled value with wrong origin/view");
  }
  return bad;
}

std::vector<std::string> check_lemma_6_4(const GlobalState& s) {
  std::vector<std::string> bad;
  const auto all = allcontent(s);
  for (const auto& [l, a] : all) {
    const ProcId p = l.origin;
    if (p < 0 || p >= s.size()) {
      bad.push_back("6.4: label with unknown origin");
      continue;
    }
    const auto& st = s.st(p);
    if (!st.current.has_value()) {
      bad.push_back("6.4: label " + core::to_string(l) + " exists but origin has no view");
      continue;
    }
    const core::Label bound{st.current->id, st.nextseqno, p};
    if (!(l < bound))
      bad.push_back("6.4: label " + core::to_string(l) + " not below " +
                    core::to_string(bound));
  }
  return bad;
}

std::vector<std::string> check_lemma_6_5(const GlobalState& s) {
  std::vector<std::string> bad;
  (void)allcontent(s, &bad);
  return bad;
}

std::vector<std::string> check_lemma_6_6(const GlobalState& s) {
  std::vector<std::string> bad;
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    for (const auto& l : st.buffer)
      if (st.content.find(l) == st.content.end())
        bad.push_back("6.6: " + pname(p) + " buffered label missing from content");
  }
  return bad;
}

std::vector<std::string> check_lemma_6_7(const GlobalState& s) {
  std::vector<std::string> bad;
  const auto ids = relevant_viewids(s);
  const auto all = allcontent(s);
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    for (const auto& g : ids) {
      const bool premise = !st.current.has_value() || st.current->id < g;
      if (!premise) continue;
      if (!s.machine->pending(p, g).empty())
        bad.push_back("6.7(1): pending[" + pname(p) + ", " + core::to_string(g) +
                      "] nonempty though p never reached g");
      for (const auto& entry : s.machine->queue(g))
        if (entry.p == p)
          bad.push_back("6.7(2): queue[" + core::to_string(g) + "] holds message from " +
                        pname(p));
      for (ProcId q = 0; q < s.size(); ++q) {
        const auto& stq = s.st(q);
        if (stq.current.has_value() && stq.current->id == g &&
            stq.gotstate.count(p) != 0)
          bad.push_back("6.7(3): gotstate at " + pname(q) + " names " + pname(p));
      }
      if (!allstate_pg(s, p, g).empty())
        bad.push_back("6.7(4): allstate[" + pname(p) + ", " + core::to_string(g) +
                      "] nonempty");
      for (const auto& [l, a] : all)
        if (l.origin == p && l.id == g)
          bad.push_back("6.7(5/6): label " + core::to_string(l) +
                        " exists though origin never reached its view");
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_9(const GlobalState& s) {
  std::vector<std::string> bad;
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    if (st.status != vstoto::PStatus::kCollect || !st.current.has_value()) continue;
    const auto& g = st.current->id;
    for (const auto& x : allstate_pg(s, p, g)) {
      for (const auto& [l, a] : x.con)
        if (st.content.find(l) == st.content.end())
          bad.push_back("6.9(1): collect-phase summary con not subset of content at " +
                        pname(p));
      if (x.ord != st.order)
        bad.push_back("6.9(2): collect-phase summary ord differs from order at " + pname(p));
      if (x.next != st.nextconfirm)
        bad.push_back("6.9(3): collect-phase summary next differs at " + pname(p));
      if (x.high != st.highprimary)
        bad.push_back("6.9(4): collect-phase summary high differs at " + pname(p));
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_10(const GlobalState& s) {
  std::vector<std::string> bad;
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    for (const auto& g : st.established) {
      if (!st.current.has_value() || st.current->id < g)
        bad.push_back("6.10(1): " + pname(p) + " established " + core::to_string(g) +
                      " but current below it");
    }
    if (st.current.has_value()) {
      const bool est = established(s, p, st.current->id);
      const bool normal = st.status == vstoto::PStatus::kNormal;
      if (est != normal)
        bad.push_back("6.10(2): " + pname(p) + " established[current] = " +
                      (est ? "true" : "false") + " but status = " +
                      vstoto::to_string(st.status));
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_11(const GlobalState& s) {
  std::vector<std::string> bad;
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    const bool primary = s.procs[static_cast<std::size_t>(p)]->primary();
    if (st.current.has_value()) {
      const auto& g = st.current->id;
      if (established(s, p, g)) {
        if (primary && st.highprimary != std::optional<core::ViewId>(g))
          bad.push_back("6.11(1): established primary but highprimary != current at " +
                        pname(p));
        if (!primary && !lt(st.highprimary, g))
          bad.push_back("6.11(2): established non-primary but highprimary >= current at " +
                        pname(p));
      } else if (!lt(st.highprimary, g)) {
        bad.push_back("6.11(3): not established but highprimary >= current at " + pname(p));
      }
      for (const auto& [q, x] : st.gotstate)
        if (!lt(x.high, g))
          bad.push_back("6.11(4): gotstate summary high >= current at " + pname(p));
    }
  }
  for (const auto& g : relevant_viewids(s)) {
    for (const auto& entry : s.machine->queue(g))
      if (auto x = payload_summary(entry.m))
        if (!lt(x->high, g))
          bad.push_back("6.11(5): queued summary high >= its view " + core::to_string(g));
    for (ProcId q = 0; q < s.size(); ++q)
      for (const auto& payload : s.machine->pending(q, g))
        if (auto x = payload_summary(payload))
          if (!lt(x->high, g))
            bad.push_back("6.11(6): pending summary high >= its view " + core::to_string(g));
  }
  return bad;
}

std::vector<std::string> check_lemma_6_12(const GlobalState& s) {
  std::vector<std::string> bad;
  for (const auto& g : relevant_viewids(s)) {
    for (ProcId p = 0; p < s.size(); ++p) {
      const auto& st = s.st(p);
      for (const auto& x : allstate_pg(s, p, g)) {
        if (!le(x.high, g))
          bad.push_back("6.12(1): summary in allstate[" + pname(p) + "," +
                        core::to_string(g) + "] has high above g");
        if (st.current.has_value() && !le(x.high, st.current->id))
          bad.push_back("6.12(2): summary in allstate[" + pname(p) +
                        "] has high above p's current view");
      }
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_13(const GlobalState& s) {
  std::vector<std::string> bad;
  for (const auto& v : s.machine->created()) {
    if (!s.quorums->contains_quorum(v.members)) continue;
    for (ProcId p = 0; p < s.size(); ++p) {
      const auto& st = s.st(p);
      if (!established(s, p, v.id)) continue;
      if (!st.current.has_value() || !(st.current->id > v.id)) continue;
      if (!ge(st.highprimary, v.id))
        bad.push_back("6.13: " + pname(p) + " established primary " + core::to_string(v.id) +
                      " and moved on, but highprimary below it");
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_14(const GlobalState& s) {
  std::vector<std::string> bad;
  const auto ids = relevant_viewids(s);
  for (const auto& v : s.machine->created()) {
    if (!s.quorums->contains_quorum(v.members)) continue;
    for (ProcId p = 0; p < s.size(); ++p) {
      if (!established(s, p, v.id)) continue;
      for (const auto& w : ids) {
        if (!(w > v.id)) continue;
        for (const auto& x : allstate_pg(s, p, w))
          if (!ge(x.high, v.id))
            bad.push_back("6.14: summary of " + pname(p) + " in view " + core::to_string(w) +
                          " has high below established primary " + core::to_string(v.id));
      }
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_15(const GlobalState& s) {
  std::vector<std::string> bad;
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    if (!st.current.has_value()) continue;
    const auto& g = st.current->id;
    if (established(s, p, g)) continue;
    for (const auto& x : allstate_pg(s, p, g))
      if (x.high == std::optional<core::ViewId>(g))
        bad.push_back("6.15: unestablished " + pname(p) + " has summary with high = current");
  }
  return bad;
}

std::vector<std::string> check_lemma_6_16(const GlobalState& s) {
  std::vector<std::string> bad;
  for (const auto& g : relevant_viewids(s)) {
    for (ProcId p = 0; p < s.size(); ++p) {
      for (const auto& x : allstate_pg(s, p, g)) {
        if (!x.high.has_value()) {
          if (!x.ord.empty())
            bad.push_back("6.16: summary with bottom high but nonempty ord at " + pname(p));
          continue;
        }
        const auto members = s.machine->created_membership(*x.high);
        if (!members.has_value()) {
          bad.push_back("6.16: summary high names an uncreated view");
          continue;
        }
        bool found = false;
        for (ProcId q : *members) {
          if (!established(s, q, *x.high)) continue;
          const auto* bo = buildorder(s, q, *x.high);
          if (bo == nullptr || *bo != x.ord) continue;
          const auto& stq = s.st(q);
          const bool last_clause =
              *x.high == g ||
              (stq.current.has_value() && stq.current->id > *x.high);
          if (last_clause) {
            found = true;
            break;
          }
        }
        if (!found)
          bad.push_back("6.16: no witness q for summary with high " +
                        core::to_string(*x.high) + " in allstate[" + pname(p) + "," +
                        core::to_string(g) + "]");
      }
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_17(const GlobalState& s) {
  std::vector<std::string> bad;
  for (const auto& v : s.machine->created()) {
    bool someone = false;
    for (ProcId p = 0; p < s.size(); ++p)
      if (established(s, p, v.id)) someone = true;
    if (!someone) continue;
    for (ProcId q : v.members) {
      const auto& stq = s.st(q);
      if (!stq.current.has_value() || stq.current->id < v.id)
        bad.push_back("6.17: " + core::to_string(v.id) + " established somewhere but member " +
                      pname(q) + " is behind it");
    }
  }
  return bad;
}

std::vector<std::string> check_corollary_6_19(const GlobalState& s) {
  std::vector<std::string> bad;
  for (const auto& v : s.machine->created()) {
    if (!s.quorums->contains_quorum(v.members)) continue;
    bool all_established = true;
    for (ProcId p : v.members)
      if (!established(s, p, v.id)) all_established = false;
    if (!all_established || v.members.empty()) continue;

    // sigma := longest common prefix of the members' buildorders for v.
    std::vector<core::Label> sigma;
    bool first = true;
    for (ProcId p : v.members) {
      const auto* bo = buildorder(s, p, v.id);
      const std::vector<core::Label> empty;
      const auto& mine = bo == nullptr ? empty : *bo;
      if (first) {
        sigma = mine;
        first = false;
      } else {
        std::size_t k = 0;
        while (k < sigma.size() && k < mine.size() && sigma[k] == mine[k]) ++k;
        sigma.resize(k);
      }
    }
    if (sigma.empty()) continue;
    for (const auto& x : allstate(s)) {
      if (!ge(x.high, v.id)) continue;
      if (!util::is_prefix(sigma, x.ord))
        bad.push_back("Cor 6.19: summary with high >= " + core::to_string(v.id) +
                      " does not extend the view's agreed prefix");
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_20(const GlobalState& s) {
  std::vector<std::string> bad;
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    if (st.safe_labels.empty()) continue;
    if (!s.procs[static_cast<std::size_t>(p)]->primary()) {
      bad.push_back("6.20: nonempty safe-labels at non-primary " + pname(p));
      continue;
    }
    for (std::size_t i = 0; i < st.order.size(); ++i) {
      if (st.safe_labels.count(st.order[i]) == 0) continue;
      const auto sigma = util::prefix_of(st.order, i + 1);
      for (ProcId q : st.current->members) {
        const auto* bo = buildorder(s, q, st.current->id);
        if (bo == nullptr || !util::is_prefix(sigma, *bo))
          bad.push_back("6.20: safe label at " + pname(p) + " position " + std::to_string(i) +
                        " not in member " + pname(q) + "'s buildorder prefix");
      }
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_21(const GlobalState& s) {
  std::vector<std::string> bad;
  const auto all = allcontent(s);
  // Per origin, the sorted list of its labels in allcontent.
  std::map<ProcId, std::vector<core::Label>> by_origin;
  for (const auto& [l, a] : all) by_origin[l.origin].push_back(l);  // map order = sorted

  for (const auto& x : allstate(s)) {
    std::map<core::Label, std::size_t> pos;
    for (std::size_t i = 0; i < x.ord.size(); ++i) pos.emplace(x.ord[i], i);
    for (std::size_t i = 0; i < x.ord.size(); ++i) {
      const auto& lp = x.ord[i];
      const auto it = by_origin.find(lp.origin);
      if (it == by_origin.end()) continue;
      for (const auto& l : it->second) {
        if (!(l < lp)) break;  // sorted; only smaller labels matter
        const auto pit = pos.find(l);
        if (pit == pos.end() || pit->second >= i) {
          bad.push_back("6.21: ord contains " + core::to_string(lp) +
                        " without earlier same-origin label " + core::to_string(l));
        }
      }
    }
  }
  return bad;
}

std::vector<std::string> check_lemma_6_22(const GlobalState& s) {
  std::vector<std::string> bad;
  for (const auto& x : allstate(s)) {
    if (x.next > x.ord.size() + 1)
      bad.push_back("6.22(2): summary next exceeds length(ord) + 1");
    const auto confirm = core::confirmed_prefix(x);
    if (confirm.empty()) continue;
    bool found = false;
    for (const auto& v : s.machine->created()) {
      if (!x.high.has_value() || !(v.id <= *x.high)) continue;
      if (!s.quorums->contains_quorum(v.members)) continue;
      bool witness = true;
      for (ProcId q : v.members) {
        if (!established(s, q, v.id)) {
          witness = false;
          break;
        }
        const auto* bo = buildorder(s, q, v.id);
        if (bo == nullptr || !util::is_prefix(confirm, *bo)) {
          witness = false;
          break;
        }
      }
      if (witness) {
        found = true;
        break;
      }
    }
    if (!found)
      bad.push_back("6.22(1): no quorum view witnesses a nonempty confirm prefix");
  }
  return bad;
}

std::vector<std::string> check_corollary_6_23(const GlobalState& s) {
  std::vector<std::string> bad;
  const auto xs = allstate(s);
  for (const auto& x1 : xs) {
    const auto c1 = core::confirmed_prefix(x1);
    if (c1.empty()) continue;
    for (const auto& x2 : xs) {
      const bool le_high =
          !x1.high.has_value() || (x2.high.has_value() && *x1.high <= *x2.high);
      if (!le_high) continue;
      if (!util::is_prefix(c1, x2.ord))
        bad.push_back("Cor 6.23: confirm prefix not a prefix of higher summary's ord");
    }
  }
  return bad;
}

std::vector<std::string> check_corollary_6_24(const GlobalState& s) {
  std::vector<std::string> bad;
  (void)allconfirm(s, &bad);
  return bad;
}

std::vector<std::string> check_history_wellformed(const GlobalState& s) {
  std::vector<std::string> bad;
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    if (!st.current.has_value()) continue;
    const auto& g = st.current->id;
    if (established(s, p, g) && !st.order_changed_in_view)
      bad.push_back("history: " + pname(p) + " established current without setting order");
    if (st.order_changed_in_view && st.buildorder.count(g) != 0)
      bad.push_back("history: buildorder[" + pname(p) +
                    ", current] stored while it is order");
    for (const auto& [bg, ord] : st.buildorder)
      if (bg > g)
        bad.push_back("history: buildorder at " + pname(p) + " names a future view");
  }
  return bad;
}

std::vector<std::string> check_all_invariants(const GlobalState& s) {
  std::vector<std::string> bad;
  auto run = [&bad](std::vector<std::string> more) {
    bad.insert(bad.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  };
  run(spec::check_lemma_4_1(*s.machine));
  run(check_lemma_6_1(s));
  run(check_lemma_6_2(s));
  run(check_lemma_6_3(s));
  run(check_lemma_6_4(s));
  run(check_lemma_6_5(s));
  run(check_lemma_6_6(s));
  run(check_lemma_6_7(s));
  run(check_lemma_6_9(s));
  run(check_lemma_6_10(s));
  run(check_lemma_6_11(s));
  run(check_lemma_6_12(s));
  run(check_lemma_6_13(s));
  run(check_lemma_6_14(s));
  run(check_lemma_6_15(s));
  run(check_lemma_6_16(s));
  run(check_lemma_6_17(s));
  run(check_corollary_6_19(s));
  run(check_lemma_6_20(s));
  run(check_lemma_6_21(s));
  run(check_lemma_6_22(s));
  run(check_corollary_6_23(s));
  run(check_corollary_6_24(s));
  run(check_history_wellformed(s));
  return bad;
}

}  // namespace vsg::verify
