"""All selection policies racing on one synthetic cold-start environment.

Prints a cumulative-regret table in the usual benchmark layout and, when
matplotlib is importable, saves the regret curves next to this script.
"""

import os

import numpy as np

from coldrec import fill, linear_environment, make_policy, run_replay
from coldrec.impute import Zero
from coldrec.policies import OraclePolicy

SEEDS = (0, 1, 2)
T = 2000

finals = {}
curves = {}
for name in ("random", "aver", "egreedy", "ucb", "exp3", "thompson", "linucb", "linucb-cf", "alinucb", "oracle"):
    finals[name] = []
    for seed in SEEDS:
        streams = np.random.SeedSequence([17, seed]).spawn(3)
        base, evaluation = linear_environment(20, 100, 400, noise=0.05, seed=streams[0])
        X = fill(base, Zero())
        if name == "oracle":
            policy = OraclePolicy(evaluation)
        else:
            policy = make_policy(name, X=X, alpha=0.001, seed=streams[2])
        trace = run_replay(policy, evaluation, T=T, seed=streams[1])
        finals[name].append(trace.final_regret)
        if seed == 0:
            curves[name] = trace.cumulative

print(f"cumulative regret after T={T} steps (mean ± std over {len(SEEDS)} seeds)")
print(f"{'policy':<10} {'regret':>10}")
for name, values in sorted(finals.items(), key=lambda kv: np.mean(kv[1])):
    print(f"{name:<10} {np.mean(values):>10.1f} ± {np.std(values):.1f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4.5))
    for name, curve in curves.items():
        ax.plot(np.arange(1, len(curve) + 1), curve, label=name, lw=1.2)
    ax.set_xlabel("step")
    ax.set_ylabel("cumulative regret")
    ax.set_title("cold-start policy race (synthetic, seed 0)")
    ax.legend(fontsize=8)
    out = os.path.join(os.path.dirname(__file__), "policy_race.png")
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    print(f"\nregret curves saved to {out}")
except ImportError:
    print("\n(matplotlib not installed; skipping the curve plot)")
