#pragma once
// Placement evaluation & report formatting.
//
// evaluate_placement() is the single scoring entry point used by tests,
// examples and every bench table: it runs the global router on the finished
// placement and bundles the contest metrics (HPWL, routed WL, overflow,
// ACE/RC, scaled HPWL) together with a legality check.

#include <string>
#include <vector>

#include "db/design.hpp"
#include "db/validate.hpp"
#include "route/metrics.hpp"
#include "route/router.hpp"

namespace rp {

struct EvalResult {
  double hpwl = 0.0;
  double scaled_hpwl = 0.0;       ///< HPWL × RC penalty (contest objective).
  CongestionMetrics congestion;   ///< From routed usage.
  RouteStats route;
  LegalityReport legality;
};

struct EvalOptions {
  bool run_router = true;        ///< false: probabilistic estimate only.
  bool check_legal = true;
  RouterOptions router;
};

EvalResult evaluate_placement(const Design& d, const EvalOptions& opt = {});

/// Same, but routes on the caller's grid (freshly built from `d`) so the
/// routed usage/congestion maps survive for snapshot capture.
EvalResult evaluate_placement(const Design& d, const EvalOptions& opt,
                              RoutingGrid& grid);

/// Render the congestion heat map of a routed `grid` (FlowResult::eval_grid,
/// or any grid a GlobalRouter routed for `d`) as ASCII art, for Fig-6 style
/// output. Characters: ' ' <50%, '.' <80%, ':' <95%, '+' <105%, '#' ≥105%,
/// 'M' fixed macro.
std::string congestion_ascii(const Design& d, const RoutingGrid& grid, int max_cols = 64);

// ---- tiny fixed-width table writer used by the bench binaries ----
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers);
  void row(const std::vector<std::string>& cells);
  /// Render with aligned columns, header rule, and footer rule.
  std::string str() const;

  static std::string num(double v, int prec = 2);
  static std::string eng(double v);  ///< 1.23e+06 style for wirelengths.

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rp
