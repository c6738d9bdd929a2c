#include "mps/mps_strategies.hpp"

#include <sstream>

namespace fastqaoa::mps {

std::string fingerprint_tag(const MpsPlan& plan) {
  std::ostringstream out;
  out.precision(17);
  out << "mps:tf chi=" << plan.options().max_bond
      << " tol=" << plan.options().trunc_tol
      << " budget=" << plan.options().fidelity_budget;
  return out.str();
}

std::vector<AngleSchedule> find_angles_mps(const MpsPlan& plan,
                                           int max_rounds,
                                           const FindAnglesOptions& options) {
  return find_angles(MpsAngleEngine(plan), max_rounds, options);
}

AngleSchedule find_angles_at_mps(const MpsPlan& plan, int p,
                                 const std::vector<double>& initial_packed,
                                 const FindAnglesOptions& options) {
  return find_angles_at(MpsAngleEngine(plan), p, initial_packed, options);
}

AngleSchedule find_angles_grid_mps(const MpsPlan& plan, int p,
                                   int points_per_axis,
                                   const FindAnglesOptions& options,
                                   bool polish) {
  return find_angles_grid(MpsAngleEngine(plan), p, points_per_axis, options,
                          polish);
}

double evaluate_angles_mps(const MpsPlan& plan,
                           const std::vector<double>& packed) {
  return evaluate_angles(MpsAngleEngine(plan), packed);
}

}  // namespace fastqaoa::mps
