// Batched multi-angle evaluation suite (core/plan.hpp evaluate_batch).
//
// The contract under test is bit-identity: evaluate_batch must produce, lane
// for lane, the exact doubles of B sequential evaluate() calls, and leave
// the last lane's exact final statevector in ws.psi — on every kernel
// backend this CPU supports, at any thread count, at any batch width.
// Comparisons below use memcmp, not tolerances.

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/threading.hpp"
#include "core/plan.hpp"
#include "linalg/kernels/kernels.hpp"
#include "mixers/grover_mixer.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"

namespace fastqaoa {
namespace {

namespace kn = linalg::kernels;

/// RAII: pin a backend for one test, restore auto-detection after.
class BackendGuard {
 public:
  explicit BackendGuard(const std::string& name) { ok_ = kn::select(name); }
  ~BackendGuard() { kn::select("auto"); }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

/// MaxCut objective on a random graph — integer-valued, so the plan's
/// phase dictionary is valid and the quantized phase route engages.
dvec maxcut_objective(int n, std::uint64_t seed) {
  Rng rng(seed);
  Graph g = erdos_renyi(n, 0.5, rng);
  return tabulate(StateSpace::full(n),
                  [&g](state_t x) { return maxcut(g, x); });
}

/// Lane-major random angle draws for B lanes of (nb betas, ng gammas).
struct AngleSet {
  std::vector<double> betas;
  std::vector<double> gammas;
};

AngleSet random_angles(int lanes, int nb, int ng, std::uint64_t seed) {
  Rng rng(seed);
  AngleSet a;
  a.betas.resize(static_cast<std::size_t>(lanes) * nb);
  a.gammas.resize(static_cast<std::size_t>(lanes) * ng);
  for (double& b : a.betas) b = rng.uniform(0.0, 2.0 * kPi);
  for (double& g : a.gammas) g = rng.uniform(0.0, 2.0 * kPi);
  return a;
}

/// Core bit-identity check: evaluate_batch vs lane-by-lane evaluate() on
/// the given plan — every lane's expectation, and the last lane's final
/// statevector (the one the batch leaves in ws.psi), compared bytewise.
void expect_batch_bitwise(const QaoaPlan& plan, int lanes,
                          std::uint64_t angle_seed) {
  const int nb = plan.num_betas();
  const int ng = plan.num_gammas();
  const AngleSet a = random_angles(lanes, nb, ng, angle_seed);

  EvalWorkspace ws_batch;
  std::vector<double> got(static_cast<std::size_t>(lanes));
  evaluate_batch(plan, ws_batch, a.betas, a.gammas, got);

  EvalWorkspace ws_seq;
  for (int l = 0; l < lanes; ++l) {
    const double want = evaluate(
        plan, ws_seq,
        std::span<const double>(a.betas.data() + static_cast<std::size_t>(l) * nb,
                                static_cast<std::size_t>(nb)),
        std::span<const double>(a.gammas.data() + static_cast<std::size_t>(l) * ng,
                                static_cast<std::size_t>(ng)));
    EXPECT_EQ(0, std::memcmp(&want, &got[static_cast<std::size_t>(l)],
                             sizeof(double)))
        << "lane " << l << ": batch " << got[static_cast<std::size_t>(l)]
        << " vs sequential " << want;
  }
  ASSERT_EQ(ws_batch.psi.size(), ws_seq.psi.size());
  EXPECT_EQ(0, std::memcmp(ws_seq.psi.data(), ws_batch.psi.data(),
                           plan.work_dim() * sizeof(cplx)))
      << "last lane's final state differs from sequential evaluate()";
  EXPECT_EQ(0, std::memcmp(&ws_seq.expectation, &ws_batch.expectation,
                           sizeof(double)));
}

class BatchBackendTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchBackendTest, BitIdenticalToSequentialAcrossWidthsAndThreads) {
  BackendGuard guard(GetParam());
  if (!guard.ok()) GTEST_SKIP() << "backend unavailable: " << GetParam();

  const dvec obj = maxcut_objective(8, 42);
  const XMixer mixer = XMixer::transverse_field(8);
  const QaoaPlan plan(mixer, obj, 2);

  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const int lanes : {1, 3, 9, 16}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " lanes=" + std::to_string(lanes));
      expect_batch_bitwise(plan, lanes, 1234);
    }
  }
  set_num_threads(0);
}

TEST_P(BatchBackendTest, BlockedDriverBitIdentity) {
  BackendGuard guard(GetParam());
  if (!guard.ok()) GTEST_SKIP() << "backend unavailable: " << GetParam();
  // The MaxCut plans fold to working lengths 2^13, 2^14 and 2^15, above the
  // serial-transform threshold (2^12), so the blocked WHT driver runs. Over
  // its 2^10 bottom block they leave 3, 4 and 5 top stages: the fused
  // expectation lands in a final radix-8, radix-2 and radix-4 pass. The
  // small-dim tests above cover the serial path; this pins the other regime.
  for (const int n : {14, 15, 16}) {
    const dvec obj = maxcut_objective(n, 19);
    const XMixer mixer = XMixer::transverse_field(n);
    const QaoaPlan plan(mixer, obj, 2);
    ASSERT_TRUE(plan.folded());
    ASSERT_EQ(plan.work_dim(), index_t{1} << (n - 1));
    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      expect_batch_bitwise(plan, 4, 271);
    }
  }
  set_num_threads(0);
}

TEST_P(BatchBackendTest, DeepCircuitBitIdentity) {
  BackendGuard guard(GetParam());
  if (!guard.ok()) GTEST_SKIP() << "backend unavailable: " << GetParam();
  const dvec obj = maxcut_objective(7, 7);
  const XMixer mixer = XMixer::transverse_field(7);
  const QaoaPlan plan(mixer, obj, 5);  // p > 1: interior fused rounds
  expect_batch_bitwise(plan, 8, 99);
}

TEST_P(BatchBackendTest, MultiMixerLayersUseExtraBetaPath) {
  BackendGuard guard(GetParam());
  if (!guard.ok()) GTEST_SKIP() << "backend unavailable: " << GetParam();
  // Two mixers per round: num_betas = 2p, so rounds take the apply_exp
  // (plain-WHT) continuation instead of the fused tail.
  const dvec obj = maxcut_objective(6, 11);
  const XMixer mixer = XMixer::transverse_field(6);
  std::vector<MixerLayer> layers(2);
  for (MixerLayer& layer : layers) layer.mixers = {&mixer, &mixer};
  const QaoaPlan plan(std::move(layers), obj);
  ASSERT_EQ(plan.num_betas(), 4);
  expect_batch_bitwise(plan, 5, 17);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BatchBackendTest,
                         ::testing::ValuesIn(kn::available()));

TEST(BatchEvaluate, GroverMixerFallbackIsBitIdentical) {
  // GroverMixer takes the Mixer base-class round (unfused phase sweep, then
  // apply_exp). Same bit-identity contract.
  const dvec obj = maxcut_objective(6, 3);
  const GroverMixer mixer(obj.size());
  const QaoaPlan plan(mixer, obj, 2);
  expect_batch_bitwise(plan, 4, 55);
}

TEST(BatchEvaluate, PackedLanesMatchUnpacked) {
  const dvec obj = maxcut_objective(8, 21);
  const XMixer mixer = XMixer::transverse_field(8);
  const QaoaPlan plan(mixer, obj, 3);
  const int p = plan.rounds();
  const int lanes = 6;
  const AngleSet a = random_angles(lanes, p, p, 777);

  // Interleave into packed lanes: [betas_l..., gammas_l...] per lane.
  std::vector<double> packed(static_cast<std::size_t>(lanes) * 2 * p);
  for (int l = 0; l < lanes; ++l) {
    for (int i = 0; i < p; ++i) {
      packed[static_cast<std::size_t>(l * 2 * p + i)] =
          a.betas[static_cast<std::size_t>(l * p + i)];
      packed[static_cast<std::size_t>(l * 2 * p + p + i)] =
          a.gammas[static_cast<std::size_t>(l * p + i)];
    }
  }

  EvalWorkspace ws1;
  std::vector<double> unpacked_out(static_cast<std::size_t>(lanes));
  evaluate_batch(plan, ws1, a.betas, a.gammas, unpacked_out);
  EvalWorkspace ws2;
  std::vector<double> packed_out(static_cast<std::size_t>(lanes));
  evaluate_batch_packed(plan, ws2, packed, packed_out);

  EXPECT_EQ(0, std::memcmp(unpacked_out.data(), packed_out.data(),
                           static_cast<std::size_t>(lanes) * sizeof(double)));
}

TEST(BatchEvaluate, SingleLaneSharesSinglePointBuffers) {
  const dvec obj = maxcut_objective(6, 5);
  const XMixer mixer = XMixer::transverse_field(6);
  const QaoaPlan plan(mixer, obj, 1);
  const AngleSet a = random_angles(1, 1, 1, 31);
  EvalWorkspace ws;
  std::vector<double> out(1);
  evaluate_batch(plan, ws, a.betas, a.gammas, out);
  // A one-lane batch is one evaluate(): its state and <C> sit in the
  // single-point buffers.
  EvalWorkspace ws_single;
  const double want = evaluate(plan, ws_single, a.betas, a.gammas);
  EXPECT_EQ(0, std::memcmp(&want, out.data(), sizeof(double)));
  EXPECT_EQ(0, std::memcmp(&ws.expectation, out.data(), sizeof(double)));
  EXPECT_EQ(0, std::memcmp(ws.psi.data(), ws_single.psi.data(),
                           plan.work_dim() * sizeof(cplx)));
}

TEST(BatchEvaluate, CustomPhaseTableBitIdentity) {
  // Threshold-style custom phase separator: the phase dictionary comes from
  // the phase table, not the objective — both dictionaries must engage
  // without breaking bit-identity.
  const dvec obj = maxcut_objective(7, 61);
  dvec phase(obj.size());
  for (std::size_t i = 0; i < obj.size(); ++i) {
    phase[i] = obj[i] >= 4.0 ? 1.0 : 0.0;
  }
  QaoaPlanOptions options;
  options.phase_values = phase;
  const XMixer mixer = XMixer::transverse_field(7);
  const QaoaPlan plan(mixer, obj, 2, std::move(options));
  expect_batch_bitwise(plan, 6, 91);
}

}  // namespace
}  // namespace fastqaoa
