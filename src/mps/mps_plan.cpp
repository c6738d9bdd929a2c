#include "mps/mps_plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace fastqaoa::mps {

namespace {

/// Route-and-return swaps per round with qubit q on site pos[q].
std::size_t route_swaps(const std::vector<ZZTerm>& terms,
                        const std::vector<index_t>& pos) {
  std::size_t swaps = 0;
  for (const ZZTerm& t : terms) {
    const index_t a = pos[t.u];
    const index_t b = pos[t.v];
    swaps += 2 * ((a < b ? b - a : a - b) - 1);
  }
  return swaps;
}

/// Qubit -> site order minimizing route_swaps over the identity and a
/// reverse Cuthill-McKee order from every start vertex (neighbours visited
/// by (degree, index), later components started at their lowest index).
/// Ties keep the earlier candidate, so the result is a pure function of the
/// canonical terms.
std::vector<index_t> rcm_site_order(const DiagonalHamiltonian& h) {
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
  std::size_t best_swaps = route_swaps(h.zz_terms, best);
  std::vector<index_t> order;
  std::vector<index_t> pos(n);
  std::vector<char> seen(n);
  for (index_t start = 0; start < n && best_swaps > 0; ++start) {
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
    const std::size_t swaps = route_swaps(h.zz_terms, pos);
    if (swaps < best_swaps) {
      best_swaps = swaps;
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

  // Relabel qubits to sites so that interacting qubits sit close together:
  // every later step (schedule, evaluation, expectation) sees site labels.
  site_of_ = rcm_site_order(h_);
  for (ZTerm& t : h_.z_terms) t.site = site_of_[t.site];
  for (ZZTerm& t : h_.zz_terms) {
    t.u = site_of_[t.u];
    t.v = site_of_[t.v];
  }
  h_ = canonicalize(std::move(h_));

  // Route-and-return schedule, edges in canonical (lexicographic) order.
  // For sites (u, v): inbound swaps walk v's qubit left to u+1 (center rides
  // left with them), the phase gate fires at bond u (center moves to u+1),
  // outbound swaps walk it back (center rides right) — every op finds the
  // center already on its bond.
  for (const ZZTerm& t : h_.zz_terms) {
    const index_t u = t.u;
    const index_t v = t.v;
    if (v == u + 1) {
      ops_.push_back({u, OpKind::PhaseZZ, t.coeff, u + 1});
      continue;
    }
    for (index_t b = v - 1; b > u; --b) {
      ops_.push_back({b, OpKind::Swap, 0.0, b});
      ++swaps_;
    }
    ops_.push_back({u, OpKind::PhaseZZ, t.coeff, u + 1});
    for (index_t b = u + 1; b < v; ++b) {
      ops_.push_back({b, OpKind::Swap, 0.0, b + 1});
      ++swaps_;
    }
  }
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
  for (std::size_t round = 0; round < betas.size(); ++round) {
    // Per-round budget poll: an MPS round at large n is expensive enough
    // that waiting for the optimizer-granularity check would overshoot
    // deadlines by whole evaluations.
    if (ws.tracker != nullptr && ws.tracker->active() &&
        ws.tracker->check() != runtime::StopReason::None) {
      ws.interrupted = true;
      break;
    }
    const double gamma = gammas[round];
    for (const ZTerm& t : plan.hamiltonian().z_terms) {
      ws.state.apply_phase(t.site, gamma * t.coeff);
    }
    for (const MpsOp& op : plan.cost_ops()) {
      // Between routes the center may sit elsewhere; snap it to the gate.
      const index_t c = ws.state.center();
      if (c < op.bond) {
        ws.state.move_center(op.bond);
      } else if (c > op.bond + 1) {
        ws.state.move_center(op.bond + 1);
      }
      if (op.kind == OpKind::Swap) {
        static constexpr std::array<cplx, 4> kIdentity{
            cplx{1.0, 0.0}, cplx{1.0, 0.0}, cplx{1.0, 0.0}, cplx{1.0, 0.0}};
        ws.state.apply_two_site(op.bond, kIdentity, /*swap_sites=*/true,
                                op.leave, policy, ws.stats);
      } else {
        const double angle = gamma * op.coeff;
        const cplx same = std::exp(cplx{0.0, -angle});  // z_u z_v = +1
        const cplx diff = std::conj(same);              // z_u z_v = -1
        ws.state.apply_two_site(op.bond, {same, diff, diff, same},
                                /*swap_sites=*/false, op.leave, policy,
                                ws.stats);
      }
    }
    const double beta = betas[round];
    for (index_t site = 0; site < n; ++site) ws.state.apply_rx(site, beta);
  }
  const double value = expectation(ws.state, plan.hamiltonian());

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
