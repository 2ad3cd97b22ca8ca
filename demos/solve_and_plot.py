"""Solve the reference instance and look at the value function.

Builds the symmetric five-step instance, solves it in closed form, prints the
policy regions and selected values, and (if matplotlib is importable) draws
the step payoff, its concave envelope, and the optimal value with the slide
regions shaded.

Run from the repository root:

    python3 demos/solve_and_plot.py [--plot out.png]
"""

from __future__ import annotations

import argparse

import numpy as np

from persuade.model import parse_problem
from persuade.solver import solve, verify_solution

RAW = {
    "lambda0": 1.0,
    "lambda1": 1.0,
    "r": 1.0,
    "cuts": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    "levels": [0.0, 0.5, 0.8, 0.95, 1.0],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plot", default=None, help="write a PNG instead of just printing")
    args = parser.parse_args()

    problem = parse_problem(RAW)
    print(f"stationary belief p* = {problem.stationary_belief}, "
          f"mu = {problem.discount_ratio}")

    solution = solve(problem)
    print(f"\npasting cutoffs: {[round(q, 6) for q in solution.cutoffs]}")
    print("\npolicy regions:")
    for region in solution.policy.regions:
        if region.action == "split":
            print(f"  [{region.lo:.6f}, {region.hi:.6f})  split to "
                  f"{{{region.low_target}, {region.high_target}}}")
        else:
            print(f"  [{region.lo:.6f}, {region.hi:.6f})  slide")

    print("\nvalue at selected beliefs:")
    for p in (0.0, 0.2, 0.4, 0.5, 0.6, 0.65, 0.8, 1.0):
        print(f"  v({p:4.2f}) = {float(solution.value.value(p)):.6f}")

    report = verify_solution(problem, solution)
    print(f"\nverification: {len(report.violations)} violations over "
          f"{report.checked_points} checked beliefs "
          f"(worst binding gap {report.max_binding_gap:.2e})")

    if args.plot is None:
        return
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the plot")
        return

    ps = np.linspace(0.0, 1.0, 2001)
    fig, ax = plt.subplots(figsize=(8, 5))
    ax.plot(ps, problem.payoff.value(ps), drawstyle="steps-post", lw=1.0,
            color="gray", label="step payoff u")
    ax.plot(ps, problem.payoff.envelope(ps), ls="--", lw=1.0, color="tab:orange",
            label="cav u")
    ax.plot(ps, solution.value.value(ps), lw=2.0, color="tab:blue", label="value v")
    for region in solution.policy.regions:
        if region.action == "slide":
            ax.axvspan(region.lo, region.hi, color="tab:blue", alpha=0.08)
    ax.axvline(problem.stationary_belief, color="black", lw=0.8, ls=":")
    ax.set_xlabel("belief p")
    ax.set_ylabel("discounted payoff")
    ax.legend(loc="lower right")
    ax.set_title("closed-form value; shaded spans are slide regions")
    fig.tight_layout()
    fig.savefig(args.plot, dpi=150)
    print(f"wrote {args.plot}")


if __name__ == "__main__":
    main()
