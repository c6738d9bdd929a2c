#include "mps/mps_plan.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace fastqaoa::mps {

namespace {

/// Two-site ops per round of the one-excursion-per-site schedule (see
/// MpsPlan) with qubit q on site pos[q]: each site v whose leftmost ZZ
/// partner sits at far(v) < v costs 2(v - far(v) - 1) swaps out and home
/// plus the one plain ZZ op at far(v). The order search scores candidates
/// with it and the plan checks its schedule against it, so the two agree.
std::size_t excursion_ops(const std::vector<ZZTerm>& terms,
                          const std::vector<index_t>& pos) {
  const index_t n = pos.size();
  std::vector<index_t> far(n);
  std::iota(far.begin(), far.end(), index_t{0});
  for (const ZZTerm& t : terms) {
    const index_t a = pos[t.u];
    const index_t b = pos[t.v];
    if (a < b) {
      far[b] = std::min(far[b], a);
    } else {
      far[a] = std::min(far[a], b);
    }
  }
  std::size_t ops = 0;
  for (index_t v = 0; v < n; ++v) {
    if (far[v] < v) ops += 2 * (v - far[v] - 1) + 1;
  }
  return ops;
}

/// Qubit -> site order minimizing excursion_ops over the identity and a
/// reverse Cuthill-McKee order from every start vertex (neighbours visited
/// by (degree, index), later components started at their lowest index).
/// Ties keep the earlier candidate, so the result is a pure function of the
/// canonical terms. `best_ops` receives the kept order's score.
std::vector<index_t> rcm_site_order(const DiagonalHamiltonian& h,
                                    std::size_t& best_ops) {
  const index_t n = h.n;
  std::vector<std::vector<index_t>> adj(n);
  for (const ZZTerm& t : h.zz_terms) {
    adj[t.u].push_back(t.v);
    adj[t.v].push_back(t.u);
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end(), [&adj](index_t a, index_t b) {
      return adj[a].size() != adj[b].size() ? adj[a].size() < adj[b].size()
                                            : a < b;
    });
  }

  std::vector<index_t> best(n);
  std::iota(best.begin(), best.end(), index_t{0});
  best_ops = excursion_ops(h.zz_terms, best);
  std::vector<index_t> order;
  std::vector<index_t> pos(n);
  std::vector<char> seen(n);
  // Every op applies at most one ZZ term, so no order beats one op per term.
  for (index_t start = 0; start < n && best_ops > h.zz_terms.size();
       ++start) {
    order.clear();
    std::fill(seen.begin(), seen.end(), 0);
    index_t root = start;
    index_t lowest = 0;
    while (order.size() < n) {
      // Breadth-first Cuthill-McKee sweep of root's component; `order`
      // doubles as the queue.
      seen[root] = 1;
      order.push_back(root);
      for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
        for (const index_t w : adj[order[head]]) {
          if (!seen[w]) {
            seen[w] = 1;
            order.push_back(w);
          }
        }
      }
      while (lowest < n && seen[lowest]) ++lowest;
      root = lowest;
    }
    for (index_t i = 0; i < n; ++i) pos[order[i]] = n - 1 - i;  // reversed
    const std::size_t ops = excursion_ops(h.zz_terms, pos);
    if (ops < best_ops) {
      best_ops = ops;
      best = pos;
    }
  }
  return best;
}

}  // namespace

MpsPlan::MpsPlan(DiagonalHamiltonian h, MpsOptions options)
    : h_(canonicalize(std::move(h))), options_(options) {
  FASTQAOA_CHECK(h_.n >= 2, "MpsPlan: need n >= 2");
  FASTQAOA_CHECK(options_.max_bond >= 1, "MpsPlan: need max_bond >= 1");
  FASTQAOA_CHECK(options_.fidelity_budget >= 0.0,
                 "MpsPlan: need fidelity_budget >= 0");
  FASTQAOA_CHECK(options_.trunc_tol >= 0.0, "MpsPlan: need trunc_tol >= 0");

  FASTQAOA_CHECK(h_.z_terms.empty(),
                 "MpsPlan: linear Z terms break the Z2 parity symmetry the "
                 "MPS engine's block splits rely on; it evaluates ZZ-only "
                 "costs");

  // Relabel qubits to sites so that interacting qubits sit close together:
  // every later step (schedule, evaluation, expectation) sees site labels.
  std::size_t planned_ops = 0;
  site_of_ = rcm_site_order(h_, planned_ops);
  for (ZZTerm& t : h_.zz_terms) {
    t.u = site_of_[t.u];
    t.v = site_of_[t.v];
  }
  h_ = canonicalize(std::move(h_));

  // One excursion per site v, in site order, over v's terms (grouped by
  // right end; the stable sort keeps each group ordered by left end, so
  // far is the group's first). The qubit on v walks left to far+1 (center
  // rides left with it); every swap that passes a partner w applies
  // ZZ(w, v) in the same split; ZZ(far, v) fires at bond far (center moves
  // to far+1); then the qubit walks home (center rides right). Within an
  // excursion every op finds the center on its bond, and the chain is back
  // in site order after each one.
  ops_.reserve(planned_ops);
  std::vector<ZZTerm> by_right = h_.zz_terms;
  std::stable_sort(by_right.begin(), by_right.end(),
                   [](const ZZTerm& a, const ZZTerm& b) { return a.v < b.v; });
  for (auto first = by_right.begin(); first != by_right.end();) {
    const index_t v = first->v;
    const auto last = std::find_if(
        first, by_right.end(), [v](const ZZTerm& t) { return t.v != v; });
    const index_t far = first->u;
    auto partner = last - 1;
    for (index_t b = v - 1; b > far; --b) {
      const double coeff = partner->u == b ? (partner--)->coeff : 0.0;
      ops_.push_back({b, true, coeff, b});
    }
    ops_.push_back({far, false, first->coeff, far + 1});
    for (index_t b = far + 1; b < v; ++b) ops_.push_back({b, true, 0.0, b + 1});
    swaps_ += 2 * (v - far - 1);
    first = last;
  }
  FASTQAOA_CHECK(ops_.size() == planned_ops,
                 "MpsPlan: schedule disagrees with its order's op count");
}

double evaluate(const MpsPlan& plan, MpsWorkspace& ws,
                std::span<const double> betas,
                std::span<const double> gammas) {
  FASTQAOA_CHECK(betas.size() == gammas.size() && !betas.empty(),
                 "mps::evaluate: need matching non-empty beta/gamma arrays");
  const index_t n = plan.n();
  const TruncationPolicy policy{plan.options().max_bond,
                                plan.options().trunc_tol,
                                plan.options().fidelity_budget};
  ws.stats.reset();
  ws.interrupted = false;
  ws.state = MpsState::plus_state(n);

  obs::SinkScope metrics_scope(ws.metrics);
  FASTQAOA_OBS_HIST_TIMED("mps.evaluate.seconds");
  // Budget poll at every round and every excursion (each excursion has one
  // op that does not swap, its pivot): one round of a dense graph at large
  // chi is tens of thousands of splits, so polling per round would
  // overshoot deadlines and cancels by whole rounds.
  const auto budget_tripped = [&ws] {
    ws.interrupted = ws.tracker != nullptr && ws.tracker->active() &&
                     ws.tracker->check() != runtime::StopReason::None;
    return ws.interrupted;
  };
  for (std::size_t round = 0; round < betas.size(); ++round) {
    if (budget_tripped()) break;
    const double gamma = gammas[round];
    for (const MpsOp& op : plan.cost_ops()) {
      if (!op.swap && budget_tripped()) break;
      // A site with no partner to its left leaves the center behind the next
      // excursion; snap it to the gate.
      const index_t c = ws.state.center();
      if (c < op.bond) {
        ws.state.move_center(op.bond);
      } else if (c > op.bond + 1) {
        ws.state.move_center(op.bond + 1);
      }
      ws.state.apply_two_site(op.bond, gamma * op.coeff, op.swap, op.leave,
                              policy, ws.stats);
    }
    if (ws.interrupted) break;
    const double beta = betas[round];
    for (index_t site = 0; site < n; ++site) ws.state.apply_rx(site, beta);
  }
  // An interrupted state is a partial artifact, and its <C> can cost more
  // than a round on a dense graph: report <C> of |+>^n instead.
  const double value = ws.interrupted
                           ? plan.hamiltonian().constant
                           : expectation(ws.state, plan.hamiltonian());

  FASTQAOA_OBS_COUNT("mps.truncations", ws.stats.truncations);
  FASTQAOA_OBS_COUNT("mps.budget_exhausted", ws.stats.budget_exhausted);
  FASTQAOA_OBS_HIST("mps.discarded_weight", ws.stats.discarded_weight);
  FASTQAOA_OBS_HIST("mps.max_bond_reached",
                    static_cast<double>(ws.stats.max_bond_reached));
  return value;
}

double evaluate_packed(const MpsPlan& plan, MpsWorkspace& ws,
                       std::span<const double> packed) {
  FASTQAOA_CHECK(packed.size() % 2 == 0 && !packed.empty(),
                 "mps::evaluate_packed: need 2p angles");
  const std::size_t p = packed.size() / 2;
  return evaluate(plan, ws, packed.subspan(0, p), packed.subspan(p, p));
}

}  // namespace fastqaoa::mps
