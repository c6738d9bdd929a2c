#include <algorithm>
#include <map>
#include <memory>

#include "core/plan.hpp"
#include "e2e.hpp"
#include "mps/mps_plan.hpp"
#include "service/workload.hpp"

namespace e2e {

namespace svc = fastqaoa::service;
using fastqaoa::EvalWorkspace;
using fastqaoa::QaoaPlan;
using fastqaoa::service::JobKind;

namespace {

std::vector<double> doubles(const Json& array) {
  std::vector<double> out;
  for (const Json& v : array.as_array()) out.push_back(v.as_double());
  return out;
}

std::string instance_key(const svc::ProblemSpec& p) {
  return p.problem + '|' + p.mixer + '|' + std::to_string(p.n) + '|' +
         std::to_string(p.effective_k()) + '|' +
         std::to_string(p.instance_seed);
}

/// In-process rebuilds, one per instance and round count.
class Rebuilds {
 public:
  /// Brute-force optimum of the instance's objective table; for the MPS
  /// engine (no table at n = 30) the total edge weight, an upper bound on
  /// the cut.
  double reference(const svc::ProblemSpec& p) {
    if (p.uses_mps()) return svc::build_graph(p).total_weight();
    auto [it, fresh] = maxima_.try_emplace(instance_key(p), 0.0);
    if (fresh) {
      const fastqaoa::dvec obj =
          svc::build_objective(p, svc::problem_space(p));
      it->second = *std::max_element(obj.begin(), obj.end());
    }
    return it->second;
  }

  const QaoaPlan& plan(const svc::ProblemSpec& p, int rounds) {
    auto [it, fresh] =
        plans_.try_emplace(instance_key(p) + '|' + std::to_string(rounds));
    if (fresh) {
      const fastqaoa::StateSpace space = svc::problem_space(p);
      it->second.mixer = svc::build_mixer(p, space);
      it->second.plan = std::make_unique<QaoaPlan>(
          *it->second.mixer, svc::build_objective(p, space), rounds);
    }
    return *it->second.plan;
  }

 private:
  struct Entry {
    std::unique_ptr<const fastqaoa::Mixer> mixer;
    std::unique_ptr<QaoaPlan> plan;
  };
  std::map<std::string, double> maxima_;
  std::map<std::string, Entry> plans_;
};

}  // namespace

OracleResult run_oracles(const Workload& w, std::uint64_t seed,
                         const std::vector<Sample>& samples) {
  OracleResult r;
  Rebuilds rebuilds;
  EvalWorkspace ws;
  fastqaoa::mps::MpsWorkspace mws;
  const auto stride = static_cast<std::uint64_t>(w.oracle_stride);
  const auto cap = static_cast<std::uint64_t>(w.oracle_cap);

  for (const Sample& s : samples) {
    if (!s.ok || s.response.is_null()) continue;
    const JobSpec spec = window_request(w, seed, s.index);
    const Json& res = s.response.at("result");
    const double served = res.at("expectation").as_double();
    const std::string where = w.name + " request " + std::to_string(s.index);

    if (s.index < static_cast<std::uint64_t>(w.ratio_prefix)) {
      const double ratio = served / rebuilds.reference(spec.problem);
      r.ratios.push_back(ratio);
      if (!(ratio <= 1.0)) {
        ++r.mismatched;
        r.notes.push_back(where + ": approximation ratio " +
                          std::to_string(ratio) + " > 1");
      }
    }
    if (s.index % stride != 0 || s.index / stride >= cap) continue;

    ++r.checked;
    bool match = true;
    if (spec.problem.uses_mps()) {
      const fastqaoa::mps::MpsPlan plan(
          svc::build_mps_hamiltonian(spec.problem),
          svc::mps_options(spec.problem));
      const double e =
          fastqaoa::mps::evaluate(plan, mws, spec.betas, spec.gammas);
      match = e == served &&
              mws.stats.truncations == res.at("truncations").as_uint64() &&
              mws.stats.discarded_weight ==
                  res.at("discarded_weight").as_double() &&
              static_cast<std::uint64_t>(mws.stats.max_bond_reached) ==
                  res.at("max_bond_reached").as_uint64();
    } else if (spec.kind == JobKind::Evaluate) {
      match = fastqaoa::evaluate(rebuilds.plan(spec.problem, spec.p), ws,
                                 spec.betas, spec.gammas) == served;
    } else if (spec.kind == JobKind::BatchEvaluate) {
      std::vector<double> lanes(static_cast<std::size_t>(spec.lanes));
      fastqaoa::evaluate_batch(rebuilds.plan(spec.problem, spec.p), ws,
                               spec.betas, spec.gammas, lanes);
      match = lanes == doubles(res.at("expectations"));
    } else {
      // find_angles: re-evaluate the final schedule the daemon returned.
      const Json& last = res.at("schedules").as_array().back();
      const int p = static_cast<int>(last.at("p").as_int64());
      const double e = fastqaoa::evaluate(rebuilds.plan(spec.problem, p), ws,
                                          doubles(last.at("betas")),
                                          doubles(last.at("gammas")));
      match = e == last.at("expectation").as_double() && e == served;
    }
    if (!match) {
      ++r.mismatched;
      r.notes.push_back(where + ": served result differs from the in-process "
                                "rebuild");
    }
  }
  return r;
}

}  // namespace e2e
