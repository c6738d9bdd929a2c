#include "mps/mps_plan.hpp"

#include <array>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace fastqaoa::mps {

MpsPlan::MpsPlan(DiagonalHamiltonian h, MpsOptions options)
    : h_(canonicalize(std::move(h))), options_(options) {
  FASTQAOA_CHECK(h_.n >= 2, "MpsPlan: need n >= 2");
  FASTQAOA_CHECK(options_.max_bond >= 1, "MpsPlan: need max_bond >= 1");
  FASTQAOA_CHECK(options_.fidelity_budget >= 0.0,
                 "MpsPlan: need fidelity_budget >= 0");
  FASTQAOA_CHECK(options_.trunc_tol >= 0.0, "MpsPlan: need trunc_tol >= 0");

  // Route-and-return schedule, edges in canonical (lexicographic) order.
  // For (u, v): inbound swaps walk qubit v left to site u+1 (center rides
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
