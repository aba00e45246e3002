"""An econometric scenario: a nonparametric Engel-curve-style analysis.

The paper's introduction motivates kernel regression as the economist's
tool for summarising relationships "with simple graphs" free of
functional-form assumptions.  This example plays that scenario out on a
synthetic household-expenditure relationship with rising dispersion
(heteroskedasticity), the typical shape of expenditure data:

* CV-optimal bandwidth (fast grid) vs the rule of thumb vs numerical
  optimisation — and what each choice does to the fitted curve;
* the Nadaraya–Watson fit at the CV-optimal bandwidth against the truth.

Run:  python examples/engel_curve_study.py
"""

import numpy as np

from repro import NadarayaWatson
from repro.core import (
    GridSearchSelector,
    NumericalOptimizationSelector,
    RuleOfThumbSelector,
)
from repro.data import heteroskedastic_dgp


def main() -> None:
    sample = heteroskedastic_dgp(n=1500, seed=11)
    x, y = sample.x, sample.y
    print(f"synthetic expenditure data: n={sample.n} (noise grows with x)")

    # -- bandwidth selection, three ways ---------------------------------
    selectors = {
        "fast grid search": GridSearchSelector(n_bandwidths=100),
        "numerical optimisation": NumericalOptimizationSelector(
            n_restarts=3, seed=0, maxiter=80
        ),
        "rule of thumb": RuleOfThumbSelector(),
    }
    at = np.linspace(0.05, 0.95, 19)
    truth = sample.true_mean(at)
    results = {}
    print(
        f"\n{'selector':<26} {'h':>10} {'CV(h)':>12} {'evals':>7} "
        f"{'secs':>8} {'RMSE':>8}"
    )
    for name, sel in selectors.items():
        res = sel.select(x, y)
        results[name] = res
        fit = NadarayaWatson(bandwidth=res.bandwidth).fit(x, y).predict(at)
        rmse = float(np.sqrt(np.mean((fit - truth) ** 2)))
        print(
            f"{name:<26} {res.bandwidth:>10.4f} {res.score:>12.6f} "
            f"{res.n_evaluations:>7d} {res.wall_seconds:>8.3f} {rmse:>8.4f}"
        )
    print("(RMSE of each fit against the true mean on an interior grid)")

    # -- the NW fit at the CV-optimal bandwidth ---------------------------
    h_star = results["fast grid search"].bandwidth
    model = NadarayaWatson(bandwidth=h_star).fit(x, y)
    fit = model.predict(at)
    print(f"\nNadaraya–Watson fit at h*={h_star:.4f} (R²={model.r_squared():.3f}):")
    print(f"{'x':>6} {'fit':>9} {'truth':>9} {'error':>9}")
    for i in range(0, len(at), 3):
        print(
            f"{at[i]:>6.2f} {fit[i]:>9.4f} {truth[i]:>9.4f} "
            f"{fit[i] - truth[i]:>9.4f}"
        )


if __name__ == "__main__":
    main()
