"""Driving the experiment-matrix runner from Python (same engine as the
``coldrec`` command line) and proving a rerun is bit-reproducible.

Builds a throwaway corpus file, runs a 2-policy × 2-imputation × 2-seed
grid twice, and diffs the outputs.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from coldrec import linear_environment, save_csv_triples
from coldrec.cli import parse_config, run_matrix
from coldrec.data import RatingDataset

workdir = tempfile.mkdtemp(prefix="coldrec_demo_")

base, evaluation = linear_environment(15, 30, 80, noise=0.05, seed=42)
users = np.concatenate([base.users, evaluation.users + base.n_users])
items = np.concatenate([base.items, evaluation.items])
values = np.concatenate([base.ratings, evaluation.ratings])
corpus = RatingDataset(users, items, values, base.n_users + evaluation.n_users, base.n_items, 1.0)
corpus_path = os.path.join(workdir, "ratings.csv")
save_csv_triples(corpus, corpus_path)


def run(out):
    cfg = parse_config(
        ["--dataset", corpus_path, "--format", "csv", "--scale-max", "1",
         "--policy", "alinucb,egreedy", "--impute", "zero,average",
         "--base-k", "15", "--t", "150", "--seeds", "0,1", "--out", out]
    )
    assert run_matrix(cfg) == 0
    return out


first = run(os.path.join(workdir, "run_a"))
second = run(os.path.join(workdir, "run_b"))

print("\nrerun comparison:")
for name in sorted(os.listdir(first)):
    if not name.startswith("trace__"):
        continue
    a = Path(first, name).read_bytes()
    b = Path(second, name).read_bytes()
    print(f"  {name}: {'identical' if a == b else 'DIFFERENT'}")

print(f"\noutputs in {workdir} — the equivalent shell command is:")
print(f"  coldrec --dataset {corpus_path} --format csv --scale-max 1 \\")
print("          --policy alinucb,egreedy --impute zero,average \\")
print("          --base-k 15 --t 150 --seeds 0,1 --out <dir>")
