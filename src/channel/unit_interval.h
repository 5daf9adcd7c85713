// The one range test for values that must lie in [0, 1]:
// probabilities, mixture weights, quantile levels.
#pragma once

namespace crp::channel {

/// True iff x lies in [0, 1]; false for NaN. Reject out-of-range
/// values with `if (!in_unit_interval(x))`: the spelled-out
/// `x < 0 || x > 1` is false for NaN and lets it through (crp_lint's
/// nan-range-check rule flags that form).
inline bool in_unit_interval(double x) { return x >= 0.0 && x <= 1.0; }

}  // namespace crp::channel
