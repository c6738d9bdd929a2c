#include "core/plan.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"

namespace fastqaoa {

namespace {

std::vector<MixerLayer> repeat_layer(const Mixer& mixer, int rounds) {
  FASTQAOA_CHECK(rounds >= 1, "QaoaPlan: need at least one round");
  std::vector<MixerLayer> layers(static_cast<std::size_t>(rounds));
  for (auto& layer : layers) layer.mixers = {&mixer};
  return layers;
}

std::vector<MixerLayer> one_per_round(const std::vector<const Mixer*>& ms) {
  FASTQAOA_CHECK(!ms.empty(), "QaoaPlan: need at least one round");
  std::vector<MixerLayer> layers(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) layers[i].mixers = {ms[i]};
  return layers;
}

/// Reject NaN/Inf table entries at construction so a poisoned cost table is
/// caught once, loudly, instead of silently NaN-ing hours of optimization.
void check_table_finite(const dvec& table, const char* which) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (!std::isfinite(table[i])) {
      FASTQAOA_CHECK(false, std::string("QaoaPlan: ") + which +
                                " table contains a non-finite value at "
                                "index " +
                                std::to_string(i) +
                                " — fix the cost function or filter the "
                                "instance before building a plan");
    }
  }
}

/// True when every mixer of `layers` is an XMixer on at least two qubits,
/// the first condition for the Z2 fold.
bool all_foldable_x_mixers(const std::vector<MixerLayer>& layers) {
  for (const MixerLayer& layer : layers) {
    for (const Mixer* m : layer.mixers) {
      const auto* x = dynamic_cast<const XMixer*>(m);
      if (x == nullptr || x->n() < 2) return false;
    }
  }
  return true;
}

/// t[x] == t[x ^ (dim - 1)] bit for bit for both tables (an empty `phase`
/// stands for `obj`), in one pass over the first half.
bool flip_invariant(const dvec& obj, const dvec& phase) {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const index_t mask = obj.size() - 1;
  const bool with_phase = !phase.empty();
  for (index_t x = 0; x < obj.size() / 2; ++x) {
    if (!same(obj[x], obj[x ^ mask])) return false;
    if (with_phase && !same(phase[x], phase[x ^ mask])) return false;
  }
  return true;
}

}  // namespace

QaoaPlan::QaoaPlan(std::vector<MixerLayer> layers, dvec obj_vals,
                   QaoaPlanOptions options)
    : layers_(std::move(layers)), obj_vals_(std::move(obj_vals)) {
  validate_and_finalize(std::move(options));
}

QaoaPlan::QaoaPlan(const Mixer& mixer, dvec obj_vals, int rounds,
                   QaoaPlanOptions options)
    : QaoaPlan(repeat_layer(mixer, rounds), std::move(obj_vals),
               std::move(options)) {}

QaoaPlan::QaoaPlan(std::vector<const Mixer*> round_mixers, dvec obj_vals,
                   QaoaPlanOptions options)
    : QaoaPlan(one_per_round(round_mixers), std::move(obj_vals),
               std::move(options)) {}

void QaoaPlan::validate_and_finalize(QaoaPlanOptions options) {
  FASTQAOA_CHECK(!layers_.empty(), "QaoaPlan: need at least one round");
  FASTQAOA_CHECK(!obj_vals_.empty(), "QaoaPlan: empty objective table");
  for (const MixerLayer& layer : layers_) {
    FASTQAOA_CHECK(!layer.mixers.empty(),
                   "QaoaPlan: every round needs at least one mixer");
    for (const Mixer* m : layer.mixers) {
      FASTQAOA_CHECK(m != nullptr, "QaoaPlan: null mixer");
      FASTQAOA_CHECK(
          m->dim() == obj_vals_.size(),
          "QaoaPlan: mixer dimension does not match objective table — "
          "did you tabulate over the wrong feasible set?");
    }
    num_betas_ += static_cast<int>(layer.mixers.size());
  }
  check_table_finite(obj_vals_, "objective");

  if (options.phase_values) {
    FASTQAOA_CHECK(options.phase_values->size() == dim(),
                   "QaoaPlan: phase table dimension mismatch");
    check_table_finite(*options.phase_values, "phase-separator");
    phase_vals_ = std::move(*options.phase_values);
  }

  if (options.initial_state) {
    FASTQAOA_CHECK(options.initial_state->size() == dim(),
                   "QaoaPlan: initial state dimension mismatch");
    const double nrm = linalg::norm(*options.initial_state);
    FASTQAOA_CHECK(std::abs(nrm - 1.0) < 1e-8,
                   "QaoaPlan: initial state must be unit norm");
    psi0_ = std::move(*options.initial_state);
    custom_psi0_ = true;
  } else {
    if (all_foldable_x_mixers(layers_) &&
        flip_invariant(obj_vals_, phase_vals_)) {
      fold();
    }
    // Eager uniform-superposition default: building |ψ0> here (instead of
    // lazily on first use) is what makes evaluation truly const. Folded,
    // φ = √2·ψ(x', 0) is again uniform, over half as many amplitudes.
    const index_t len = folded() ? dim() / 2 : dim();
    psi0_.resize(len);
    const double amp = 1.0 / std::sqrt(static_cast<double>(len));
    linalg::fill(psi0_, cplx{amp, 0.0});
  }

  // Quantize the phase table eagerly (O(work_dim), done once) so every
  // evaluation gets the per-distinct-value sincos route for free.
  phase_dict_ = linalg::build_diag_dict(work_phase_values());
}

void QaoaPlan::fold() {
  const auto half = static_cast<std::ptrdiff_t>(dim() / 2);
  folded_obj_.assign(obj_vals_.begin(), obj_vals_.begin() + half);
  if (!phase_vals_.empty()) {
    folded_phase_.assign(phase_vals_.begin(), phase_vals_.begin() + half);
  }
  // One folded mixer per distinct mixer, shared by every layer using it.
  std::vector<const Mixer*> sources;
  folded_layers_.resize(layers_.size());
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    for (const Mixer* m : layers_[k].mixers) {
      std::size_t i = 0;
      while (i < sources.size() && sources[i] != m) ++i;
      if (i == sources.size()) {
        sources.push_back(m);
        folded_mixers_.push_back(std::make_shared<const XMixer>(
            static_cast<const XMixer*>(m)->folded()));
      }
      folded_layers_[k].mixers.push_back(folded_mixers_[i].get());
    }
  }
}

cvec QaoaPlan::initial_state() const {
  cvec psi;
  unfold_state(*this, psi0_, psi);
  return psi;
}

void unfold_state(const QaoaPlan& plan, ConstStateRef phi, cvec& psi) {
  FASTQAOA_CHECK(phi.size() == plan.work_dim(),
                 "unfold_state: state is not of the plan's working length");
  psi.resize(plan.dim());
  if (!plan.folded()) {
    linalg::copy_state(phi, psi);
    return;
  }
  const auto half = static_cast<std::ptrdiff_t>(phi.size());
  const index_t low = phi.size() - 1;
  const double s = 1.0 / std::sqrt(2.0);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t x = 0; x < half; ++x) {
    const auto i = static_cast<index_t>(x);
    psi[i] = phi[i] * s;
    psi[i + phi.size()] = phi[i ^ low] * s;
  }
}

void EvalWorkspace::reserve(const QaoaPlan& plan) {
  psi.resize(plan.work_dim());
  scratch.reserve(plan.work_dim());
}

double evaluate(const QaoaPlan& plan, EvalWorkspace& ws,
                std::span<const double> betas,
                std::span<const double> gammas) {
  FASTQAOA_CHECK(static_cast<int>(betas.size()) == plan.num_betas(),
                 "evaluate: wrong number of beta angles");
  FASTQAOA_CHECK(static_cast<int>(gammas.size()) == plan.num_gammas(),
                 "evaluate: wrong number of gamma angles");
  obs::SinkScope metrics_scope(ws.metrics);
  FASTQAOA_OBS_HIST_TIMED("core.evaluate.latency_seconds");
  FASTQAOA_TRACE_SPAN("evaluate");
  ws.psi.resize(plan.work_dim());
  linalg::copy_state(plan.work_initial_state(), ws.psi);
  const dvec& phase = plan.work_phase_values();
  const linalg::DiagDict* pdict = &plan.phase_dict();
  const auto& layers = plan.work_layers();
  std::size_t beta_index = 0;
  for (std::size_t k = 0; k < layers.size(); ++k) {
    FASTQAOA_OBS_HIST_TIMED("core.evaluate.round_latency_seconds");
    const auto& ms = layers[k].mixers;
    const bool last = k + 1 == layers.size();
    if (last && ms.size() == 1) {
      // Whole final round — phase separator, mixer, expectation — through
      // the mixer's fused entry point (XMixer folds all three into WHT
      // passes; the base-class default composes the unfused kernels).
      ws.expectation = ms[0]->apply_phase_exp_expect(
          ws.psi, phase, pdict, gammas[k], betas[beta_index++],
          plan.work_objective(), ws.scratch);
      return ws.expectation;
    }
    // Phase separator rides the first mixer's fused entry; extra mixers in
    // the round apply plain.
    ms[0]->apply_phase_exp(ws.psi, phase, pdict, gammas[k],
                           betas[beta_index++], ws.scratch);
    for (std::size_t j = 1; j < ms.size(); ++j) {
      ms[j]->apply_exp(ws.psi, betas[beta_index++], ws.scratch);
    }
  }
  ws.expectation = linalg::diag_expectation(plan.work_objective(), ws.psi);
  return ws.expectation;
}

double evaluate_packed(const QaoaPlan& plan, EvalWorkspace& ws,
                       std::span<const double> angles) {
  FASTQAOA_CHECK(plan.num_betas() == plan.rounds(),
                 "evaluate_packed: only valid for single-mixer rounds");
  FASTQAOA_CHECK(static_cast<int>(angles.size()) == 2 * plan.rounds(),
                 "evaluate_packed: need 2p angles (betas then gammas)");
  const std::size_t p = static_cast<std::size_t>(plan.rounds());
  return evaluate(plan, ws, angles.subspan(0, p), angles.subspan(p, p));
}

void evaluate_batch(const QaoaPlan& plan, EvalWorkspace& ws,
                    std::span<const double> betas,
                    std::span<const double> gammas, std::span<double> out) {
  const std::size_t b_count = out.size();
  FASTQAOA_CHECK(b_count >= 1, "evaluate_batch: empty output span");
  const std::size_t nb = static_cast<std::size_t>(plan.num_betas());
  const std::size_t ng = static_cast<std::size_t>(plan.num_gammas());
  FASTQAOA_CHECK(betas.size() == nb * b_count,
                 "evaluate_batch: wrong number of beta angles");
  FASTQAOA_CHECK(gammas.size() == ng * b_count,
                 "evaluate_batch: wrong number of gamma angles");
  obs::SinkScope metrics_scope(ws.metrics);
  FASTQAOA_OBS_HIST_TIMED("core.evaluate_batch.latency_seconds");
  FASTQAOA_OBS_HIST("core.evaluate_batch.width", b_count);
  FASTQAOA_TRACE_SPAN("evaluate_batch");
  for (std::size_t l = 0; l < b_count; ++l) {
    out[l] = evaluate(plan, ws, betas.subspan(l * nb, nb),
                      gammas.subspan(l * ng, ng));
  }
}

void evaluate_batch_packed(const QaoaPlan& plan, EvalWorkspace& ws,
                           std::span<const double> angles,
                           std::span<double> out) {
  FASTQAOA_CHECK(plan.num_betas() == plan.rounds(),
                 "evaluate_batch_packed: only valid for single-mixer rounds");
  const std::size_t p = static_cast<std::size_t>(plan.rounds());
  const std::size_t b_count = out.size();
  FASTQAOA_CHECK(angles.size() == 2 * p * b_count,
                 "evaluate_batch_packed: need 2p angles per lane");
  // De-interleave the per-lane (betas, gammas) packing into the lane-major
  // layout of evaluate_batch; angle arrays are tiny next to statevectors.
  std::vector<double> betas(p * b_count);
  std::vector<double> gammas(p * b_count);
  for (std::size_t l = 0; l < b_count; ++l) {
    for (std::size_t k = 0; k < p; ++k) {
      betas[l * p + k] = angles[l * 2 * p + k];
      gammas[l * p + k] = angles[l * 2 * p + p + k];
    }
  }
  evaluate_batch(plan, ws, betas, gammas, out);
}

}  // namespace fastqaoa
