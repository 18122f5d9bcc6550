"""Config resolution, matrix orchestration, output determinism, exit codes."""

import codecs
import collections
import concurrent.futures
import csv
import dataclasses
import hashlib
import inspect
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import remade

import coldrec
from coldrec import cli, impute
from coldrec.cli import ConfigError, ExperimentConfig, main, parse_config, run_matrix
from coldrec.data import RatingDataset, dataset_from_dense, save_csv_triples
from coldrec.impute import AlsWr, ImputedSvd, fill
from coldrec.policies import HYPER_RULES, POLICIES, policy_params
from coldrec.replay import read_trace_csv
from coldrec.synthetic import linear_environment


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small synthetic corpus saved in the generic triple format."""
    base, evaluation = linear_environment(15, 25, 60, noise=0.05, seed=99)
    users = np.concatenate([base.users, evaluation.users + base.n_users])
    items = np.concatenate([base.items, evaluation.items])
    ratings = np.concatenate([base.ratings, evaluation.ratings])
    ds = RatingDataset(users, items, ratings, base.n_users + evaluation.n_users, base.n_items, 1.0)
    path = tmp_path_factory.mktemp("corpus") / "ratings.csv"
    save_csv_triples(ds, path)
    return str(path)


def base_args(corpus, out, extra=()):
    return [
        "--dataset", corpus,
        "--format", "csv",
        "--scale-max", "1",
        "--base-k", "15",
        "--t", "120",
        "--out", out,
        *extra,
    ]


def read_summary(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def mask_seconds(text: str) -> str:
    """Summary bytes with the wall-clock column blanked (never reproducible)."""
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[-2] = "X"
        out.append(",".join(cells))
    return "\n".join(out)


class TestParseConfig:
    def test_policy_and_alpha_flags(self, corpus):
        cfg = parse_config(["--dataset", corpus, "--policy", "alinucb", "--alpha", "0.001"])
        assert cfg.policy == ("alinucb",)
        assert cfg.alpha == 0.001

    def test_negative_alpha_rejected(self, corpus):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(["--dataset", corpus, "--policy", "alinucb", "--alpha", "-1"])

    def test_no_args_usage_error(self):
        with pytest.raises(ConfigError, match="dataset"):
            parse_config([])

    def test_unknown_policy_named(self, corpus):
        with pytest.raises(ConfigError, match="policy"):
            parse_config(["--dataset", corpus, "--policy", "sarsa"])

    def test_nonpositive_t_rejected(self, corpus):
        with pytest.raises(ConfigError, match="t:"):
            parse_config(["--dataset", corpus, "--t", "0"])

    def test_config_file_and_flag_precedence(self, corpus, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"# a comment\ndataset={corpus}\n\n  # indented\npolicy=random,ucb\nalpha=0.5\nseeds=1,2\n")
        cfg = parse_config(["--config", str(cfg_file), "--alpha", "0.125"])
        assert cfg.policy == ("random", "ucb")
        assert cfg.seeds == (1, 2)
        assert cfg.alpha == 0.125  # flag wins over file

    def test_config_file_may_start_with_a_byte_order_mark(self, corpus, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(codecs.BOM_UTF8 + f"dataset={corpus}\npolicy=random\n".encode())
        cfg = parse_config(["--config", str(cfg_file)])
        assert (cfg.dataset, cfg.policy) == (corpus, ("random",))

    def test_unknown_config_key_rejected(self, corpus, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"dataset={corpus}\nlearning-rate=0.1\n")
        with pytest.raises(ConfigError, match="learning-rate"):
            parse_config(["--config", str(cfg_file)])

    @pytest.mark.parametrize("line", ["als_lambda=0.2", "dump_base=true"])
    def test_config_key_spelled_with_an_underscore_rejected(self, corpus, tmp_path, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"dataset={corpus}\n{line}\n")
        key = line.split("=")[0]
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{cfg_file}, line 2: ')}unknown key '{key}'$"):
            parse_config(["--config", str(cfg_file)])

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--work", "2"], ["--dump"]], ids=["seed", "work", "dump"])
    def test_abbreviated_flag_rejected(self, corpus, flag, capsys):
        """argparse would read a prefix as the one flag it starts; each key
        has one spelling, so the prefix is an unrecognized argument."""
        with pytest.raises(SystemExit) as exit_info:
            parse_config(["--dataset", corpus, *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_config_key_set_twice_rejected(self, corpus, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"dataset={corpus}\nalpha=0.1\n# a comment\nalpha=0.5\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{cfg_file}, line 4: ')}'alpha' is already set on line 2$"):
            parse_config(["--config", str(cfg_file)])

    @pytest.mark.parametrize("line,message", [
        ("alpha 0.5", "expected key=value"),
        ("alpha=lots", "bad value for 'alpha': could not convert string to float: 'lots'"),
        ("dump-base=maybe", "bad value for 'dump-base': expected a boolean, got 'maybe'"),
    ], ids=["no-equals", "unconvertible", "bad-boolean"])
    def test_bad_config_line_names_its_line(self, corpus, tmp_path, line, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"dataset={corpus}\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{cfg_file}, line 2: {message}')}$"):
            parse_config(["--config", str(cfg_file)])

    def test_main_returns_usage_code(self):
        assert main([]) == 2

    # the flags README lists; the parser must offer exactly these plus --config
    FLAGS = (
        "--dataset --format --scale-max --problem --base-k --impute --rank --als-lambda --als-iters --policy "
        "--alpha --c --d --gamma --v --t --seeds --max-users --max-items --min-ratings --workers --out --dump-base"
    ).split()

    def test_parser_offers_exactly_the_documented_flags(self):
        parser = cli._build_parser()
        options = {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}
        assert len(self.FLAGS) == 23
        assert options == {*self.FLAGS, "--config"}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"^Flags: (.*?), plus$", readme, flags=re.MULTILINE | re.DOTALL).group(1)
        assert listed.replace("`", "").split() == self.FLAGS

    @pytest.mark.parametrize("key,bad", [
        ("format", "xml"), ("scale-max", "0"), ("problem", "old-user"), ("base-k", "0"),
        ("impute", "knn"), ("rank", "0"), ("als-lambda", "0"), ("als-iters", "0"), ("policy", "sarsa"),
        ("alpha", "-1"), ("c", "0"), ("d", "-0.5"), ("gamma", "1.5"), ("v", "-1"), ("t", "0"),
        ("seeds", "1,-2"), ("max-users", "0"), ("max-items", "0"), ("min-ratings", "0"), ("workers", "-1"),
    ])
    def test_invalid_value_names_its_key(self, corpus, key, bad):
        with pytest.raises(ConfigError) as err:
            parse_config(["--dataset", corpus, f"--{key}={bad}"])
        assert str(err.value).startswith(f"{key}:"), str(err.value)

    def test_empty_dataset_names_its_key(self):
        with pytest.raises(ConfigError, match="^dataset:"):
            ExperimentConfig(dataset="")

    def test_config_built_in_code_is_checked(self, corpus):
        cfg = parse_config(["--dataset", corpus])
        with pytest.raises(ConfigError, match="^alpha: must be nonnegative, got -1.0$"):
            dataclasses.replace(cfg, alpha=-1.0)

    @pytest.mark.parametrize("name,value", [
        ("min_ratings", 1.5), ("t", 2.5), ("rank", True), ("rank", None), ("alpha", "0.1"), ("seeds", [0, 1]),
        ("dump_base", "no"), ("out", "runs "), ("out", "runs\nx"),
    ])
    def test_config_built_in_code_must_read_back(self, corpus, name, value):
        """A value its resolved_config.txt line cannot reproduce is refused,
        as the flag or config-file line that would be needed is."""
        cfg = parse_config(["--dataset", corpus])
        with pytest.raises(ConfigError, match=f"^{cli._key(name)}: "):
            dataclasses.replace(cfg, **{name: value})

    def test_a_value_that_neither_reads_back_nor_is_in_range_reports_the_read_back(self, corpus):
        cfg = parse_config(["--dataset", corpus])
        with pytest.raises(ConfigError, match=r"^rank: -1\.5 does not read back from its config line 'rank=-1\.5'$"):
            dataclasses.replace(cfg, rank=-1.5)

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_empty_dataset_exits_before_touching_out(self, tmp_path, capsys, source):
        out = tmp_path / "out"
        out.mkdir()
        (out / "trace__random__zero__seed0.csv").write_text("from an earlier run\n")
        if source == "flag":
            argv = ["--dataset", "", "--out", str(out)]
        else:
            (tmp_path / "run.cfg").write_text(f"dataset=\nout={out}\n")
            argv = ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: dataset: must be non-empty")
        assert [p.name for p in out.iterdir()] == ["trace__random__zero__seed0.csv"]
        assert (out / "trace__random__zero__seed0.csv").read_text() == "from an earlier run\n"

    @pytest.mark.parametrize("dataset", ["missing", "directory", "malformed", "id-too-wide"])
    def test_unreadable_dataset_keeps_the_last_run(self, tmp_path, capsys, dataset):
        out = tmp_path / "out"
        out.mkdir()
        earlier = {
            name: f"{name} from an earlier run\n"
            for name in ("trace__random__zero__seed0.csv", "base__zero__seed0.csv", "failures.txt",
                         "resolved_config.txt", "summary.csv")
        }
        for name, text in earlier.items():
            (out / name).write_text(text)
        path = tmp_path / dataset
        if dataset == "directory":
            path.mkdir()
        elif dataset == "malformed":
            path.write_text("1::2::5::978300760\n1::3\n")
        elif dataset == "id-too-wide":
            path.write_text("1::2::5::978300760\n99999999999999999999::3::5::0\n")
        assert main(["--dataset", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: dataset: ")
        assert {p.name: p.read_text() for p in out.iterdir()} == earlier

    def test_format_choices_are_the_loaders(self, corpus):
        """--format takes exactly coldrec.LOADERS' ids, and its help and its error list them."""
        for name in coldrec.LOADERS:
            assert parse_config(["--dataset", corpus, "--format", name]).format == name
        with pytest.raises(ConfigError, match=re.escape(f"format: must be one of {tuple(coldrec.LOADERS)}, got")):
            parse_config(["--dataset", corpus, "--format", "xml"])
        assert f"one of {'|'.join(coldrec.LOADERS)}" in " ".join(cli._build_parser().format_help().split())

    @pytest.mark.parametrize("config", ["missing", "directory", "not-utf-8"])
    def test_unreadable_config_names_its_key(self, corpus, tmp_path, capsys, config):
        path = tmp_path / config
        if config == "directory":
            path.mkdir()
        elif config == "not-utf-8":
            path.write_bytes(b"\xff")
        assert main(["--dataset", corpus, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")

    def test_out_that_is_a_file_names_its_key(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_bytes(b"not a directory\n")
        assert main(base_args(corpus, str(out))) == 2
        assert capsys.readouterr().err.startswith("error: out: ")
        assert out.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize(
        "key,repeated", [("seeds", "1,1,2"), ("policy", "random,random"), ("impute", "zero,svd,zero")]
    )
    def test_repeated_list_value_rejected(self, corpus, key, repeated):
        with pytest.raises(ConfigError, match=f"^{key}: must be a non-empty list of distinct "):
            parse_config(["--dataset", corpus, f"--{key}={repeated}"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["scale-max", "als-lambda", "alpha", "c", "d", "gamma", "v"])
    def test_non_finite_float_rejected(self, corpus, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: must be finite$"):
            parse_config(["--dataset", corpus, f"--{key}={value}"])

    def test_float_keys_all_checked_for_finiteness(self):
        float_keys = {cli._key(f.name) for f in dataclasses.fields(ExperimentConfig) if isinstance(f.default, float)}
        assert float_keys == {"scale-max", "als-lambda", "alpha", "c", "d", "gamma", "v"}

    def test_every_key_round_trips_through_flags_file_and_resolved_config(self, corpus, tmp_path):
        out = str(tmp_path / "rt")
        values = {
            "dataset": corpus, "format": "csv", "scale-max": "1", "problem": "new-item", "base-k": "8",
            "impute": "average,svd", "rank": "3", "als-lambda": "0.125", "als-iters": "2",
            "policy": "egreedy,exp3", "alpha": "0.25", "c": "0.2", "d": "0.75", "gamma": "0.5", "v": "0.3",
            "t": "30", "seeds": "3,4", "max-users": "70", "max-items": "20", "min-ratings": "2",
            "workers": "1", "out": out, "dump-base": "true",
        }
        assert set(values) == {cli._key(f.name) for f in dataclasses.fields(ExperimentConfig)}
        argv = []
        for key, raw in values.items():
            argv += [f"--{key}"] if key == "dump-base" else [f"--{key}", raw]
        by_flags = parse_config(argv)
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(by_flags, f.name) != f.default, f.name  # every key really is set
        cfg_file = tmp_path / "every_key.cfg"
        cfg_file.write_text("".join(f"{key}={raw}\n" for key, raw in values.items()))
        by_file = parse_config(["--config", str(cfg_file)])
        assert run_matrix(by_flags) == 0
        resolved = os.path.join(out, "resolved_config.txt")
        assert by_flags == by_file == parse_config(["--config", resolved])
        assert "als-lambda=0.125\n" in Path(resolved).read_text()


_FILL_BASE = dataset_from_dense(np.full((3, 4), 0.5))

# each range-checked key the config shares with the library, and a build that
# applies the library's own check to a value of it; there is one per owner.
# The policy hyper-parameters are not here: the config checks them with the
# library's own HYPER_RULES entry (TestPolicyConvention).
LIBRARY_RULES = [
    ("rank", "svd", lambda rank: fill(_FILL_BASE, ImputedSvd(rank=rank))),
    ("rank", "alswr", lambda rank: fill(_FILL_BASE, AlsWr(rank=rank))),
    ("als_lambda", "alswr", lambda lam: fill(_FILL_BASE, AlsWr(lam=lam))),
    ("als_iters", "alswr", lambda iters: fill(_FILL_BASE, AlsWr(iters=iters))),
    ("scale_max", "RatingDataset", lambda scale: remade(_FILL_BASE, scale_max=scale)),
]


class TestConfigAgreesWithTheLibrary:
    """The config restates ranges and defaults that the library owns; the
    two statements must not drift apart."""

    @pytest.mark.parametrize("policy_id", POLICIES)
    def test_policy_params_are_keys_with_the_constructor_defaults(self, policy_id):
        signature = inspect.signature(POLICIES[policy_id])
        for name in policy_params(policy_id):
            assert name in cli._FIELDS, name
            assert cli._FIELDS[name].default == signature.parameters[name].default, name

    @pytest.mark.parametrize("name,owner,build", LIBRARY_RULES, ids=[f"{n}-{o}" for n, o, _ in LIBRARY_RULES])
    def test_the_config_accepts_exactly_what_the_library_accepts(self, name, owner, build):
        def accepts(check, value):
            try:
                check(value)
            except ValueError:  # a ConfigError too
                return False
            return True

        is_int = cli._FIELDS[name].metadata["convert"] is int
        for value in (-1, 0, 1, 2, 1.5, True) if is_int else (-1.0, 0.0, 0.5, 1.0, 1.5):
            in_config = accepts(lambda v: ExperimentConfig(dataset="ratings.csv", **{name: v}), value)
            assert in_config == accepts(build, value), (name, value)


class TestPolicyConvention:
    """make_policy reads each registered constructor, so every constructor
    must follow the convention Policy's docstring states."""

    @pytest.mark.parametrize("policy_id", POLICIES)
    def test_constructor_takes_only_what_make_policy_passes(self, policy_id):
        first, *rest = inspect.signature(POLICIES[policy_id]).parameters
        assert first in ("X", "n_arms")
        assert set(rest) <= {"seed", *HYPER_RULES}, rest

    @pytest.mark.parametrize("name", HYPER_RULES)
    def test_each_hyper_parameter_is_a_config_key_with_the_library_rule(self, name):
        assert cli._FIELDS[name].metadata["check"] is HYPER_RULES[name]


# sha256 of each trace of the new-item grid in TestRunMatrix.test_new_item_problem_runs
PINNED_NEW_ITEM_SHA256 = {
    "trace__alinucb__alswr__seed0.csv": "5b80923e0d1b63bd07d59b71067caddcd224726d3ba61851fb3f88afc6ef9e2a",
    "trace__alinucb__average__seed0.csv": "10a4816d53198e0aed1670ecb06148cbc10034a0d21376834a28666632a6e17d",
    "trace__alinucb__svd__seed0.csv": "b0b311918d4bc6e4c8adab6ae34c014b8b07c7cd078cef3d5744e9d5f63fbc60",
    "trace__alinucb__zero__seed0.csv": "10a4816d53198e0aed1670ecb06148cbc10034a0d21376834a28666632a6e17d",
    "trace__random__alswr__seed0.csv": "9610f68b7ffc460b2c1a11367575990a8a775aa5532294c3b7db846601f3cec0",
    "trace__random__average__seed0.csv": "9610f68b7ffc460b2c1a11367575990a8a775aa5532294c3b7db846601f3cec0",
    "trace__random__svd__seed0.csv": "9610f68b7ffc460b2c1a11367575990a8a775aa5532294c3b7db846601f3cec0",
    "trace__random__zero__seed0.csv": "9610f68b7ffc460b2c1a11367575990a8a775aa5532294c3b7db846601f3cec0",
    "trace__thompson__alswr__seed0.csv": "27f9b8fe54ecf52b2f885bb9dfcfc70295cd8bd967f6f087d808f19d4d5b199e",
    "trace__thompson__average__seed0.csv": "d7bafd93e35b3c8d49bcbd7078c39d6da9d9f5944aeb6493b65a0eac1c630265",
    "trace__thompson__svd__seed0.csv": "2749a18fb10da33b7b2ef6dede6529369ca63a1c10b93c25d0b4239c06d27f80",
    "trace__thompson__zero__seed0.csv": "d7bafd93e35b3c8d49bcbd7078c39d6da9d9f5944aeb6493b65a0eac1c630265",
}


class TestRunMatrix:
    def test_cell_counting(self, corpus, tmp_path):
        out = str(tmp_path / "m1")
        cfg = parse_config(base_args(corpus, out, ["--policy", "alinucb,random", "--seeds", "0,1,2"]))
        assert run_matrix(cfg) == 0
        traces = [f for f in os.listdir(out) if f.startswith("trace__")]
        assert len(traces) == 6
        rows = read_summary(os.path.join(out, "summary.csv"))
        assert [r["policy"] for r in rows] == ["alinucb", "random"]
        assert all(r["cells"] == "3" for r in rows)

    def test_imputation_grid_rows(self, corpus, tmp_path):
        out = str(tmp_path / "m2")
        cfg = parse_config(
            base_args(corpus, out, ["--policy", "alinucb", "--impute", "zero,average,svd,alswr",
                                    "--rank", "4", "--seeds", "0"])
        )
        assert run_matrix(cfg) == 0
        rows = read_summary(os.path.join(out, "summary.csv"))
        assert len(rows) == 4
        assert [r["params"].split(";")[-1] for r in rows] == [
            "impute=zero", "impute=average", "impute=svd4", "impute=alswr4",
        ]

    def test_rerun_byte_identical(self, corpus, tmp_path):
        args = ["--policy", "alinucb,egreedy", "--seeds", "3,4"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_matrix(parse_config(base_args(corpus, out_a, args))) == 0
        assert run_matrix(parse_config(base_args(corpus, out_b, args))) == 0
        traces = sorted(f for f in os.listdir(out_a) if f.startswith("trace__"))
        assert len(traces) == 4  # 2 policies x 2 seeds; an empty run must not pass
        for name in traces:
            with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name
        assert len(read_summary(os.path.join(out_a, "summary.csv"))) == 2
        summary_a = Path(os.path.join(out_a, "summary.csv")).read_text()
        summary_b = Path(os.path.join(out_b, "summary.csv")).read_text()
        assert mask_seconds(summary_a) == mask_seconds(summary_b)

    def test_linucb_closed_form_runs_in_the_grid(self, corpus, tmp_path):
        """linucb-cf runs from the CLI beside dense linucb and alinucb: one
        summary row per (policy, fill) in grid order, and a rerun writes the
        same trace bytes."""
        args = ["--policy", "linucb,linucb-cf,alinucb", "--impute", "zero,svd", "--rank", "4", "--seeds", "0,1"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_matrix(parse_config(base_args(corpus, out_a, args))) == 0
        assert run_matrix(parse_config(base_args(corpus, out_b, args))) == 0
        rows = read_summary(os.path.join(out_a, "summary.csv"))
        assert [(r["policy"], r["params"]) for r in rows] == [
            (policy, f"alpha=0.001;impute={fill}")
            for policy in ("linucb", "linucb-cf", "alinucb")
            for fill in ("zero", "svd4")
        ]
        traces = sorted(f for f in os.listdir(out_a) if f.startswith("trace__"))
        assert len(traces) == 12  # 3 policies x 2 fills x 2 seeds
        for name in traces:
            assert Path(out_a, name).read_bytes() == Path(out_b, name).read_bytes(), name

    def test_every_policy_of_a_seed_meets_the_same_users(self, corpus, tmp_path):
        """linucb and its closed form pick the same arms on the same draws, so
        in one matrix they write the same trace; random never reads the fill,
        so it writes the same trace under both; and all traces of one seed
        share one user column."""
        policies, fills = ("linucb", "linucb-cf", "random", "alinucb"), ("zero", "svd")
        args = ["--policy", ",".join(policies), "--impute", ",".join(fills), "--rank", "4", "--seeds", "0,1"]
        out = tmp_path / "paired"
        assert run_matrix(parse_config(base_args(corpus, str(out), args))) == 0
        for seed in (0, 1):
            traces = {(p, m): out / f"trace__{p}__{m}__seed{seed}.csv" for p in policies for m in fills}
            for m in fills:
                assert traces["linucb", m].read_bytes() == traces["linucb-cf", m].read_bytes(), (m, seed)
            assert traces["random", "zero"].read_bytes() == traces["random", "svd"].read_bytes(), seed
            users = {read_trace_csv(path).user.tobytes() for path in traces.values()}
            assert len(users) == 1, seed

    def test_preparation_runs_once_per_group(self, corpus, tmp_path, monkeypatch):
        """Each (seed, fill) group splits and fills once for all its policies,
        its first contextual policy builds the fill, and a group whose
        policies never read the context never builds it."""
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((cli, "split_base_eval"), (cli, "fill"), (impute, "_build")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for policies, builds in (("random,ucb,alinucb", 4), ("random,ucb,egreedy", 0)):
            calls.clear()
            args = ["--policy", policies, "--impute", "zero,svd", "--rank", "4", "--seeds", "0,1", "--workers", "1"]
            assert run_matrix(parse_config(base_args(corpus, str(tmp_path / policies), args))) == 0
            assert len(list((tmp_path / policies).glob("trace__*.csv"))) == 12
            assert calls == collections.Counter(split_base_eval=4, fill=4, _build=builds), policies

    def test_summary_recomputable_from_traces(self, corpus, tmp_path):
        out = str(tmp_path / "m3")
        cfg = parse_config(base_args(corpus, out, ["--policy", "ucb,random", "--seeds", "0,1,2,3"]))
        assert run_matrix(cfg) == 0
        rows = read_summary(os.path.join(out, "summary.csv"))
        assert [r["policy"] for r in rows] == ["ucb", "random"]  # an empty summary must not pass
        for row in rows:
            finals = []
            for seed in (0, 1, 2, 3):
                trace = os.path.join(out, f"trace__{row['policy']}__zero__seed{seed}.csv")
                data = np.loadtxt(trace, delimiter=",", skiprows=1)
                finals.append(data[-1, -1])
            finals = np.array(finals)
            assert abs(float(row["mean_regret"]) - finals.mean()) < 1e-9
            assert abs(float(row["std_regret"]) - finals.std()) < 1e-9

    def test_resolved_config_reproduces_run(self, corpus, tmp_path):
        out_a = str(tmp_path / "orig")
        run_matrix(parse_config(base_args(corpus, out_a, ["--policy", "alinucb", "--seeds", "5"])))
        out_b = str(tmp_path / "again")
        cfg = parse_config(["--config", os.path.join(out_a, "resolved_config.txt"), "--out", out_b])
        run_matrix(cfg)
        name = "trace__alinucb__zero__seed5.csv"
        assert Path(os.path.join(out_a, name)).read_text() == Path(os.path.join(out_b, name)).read_text()

    def test_failure_manifest_and_exit_code(self, corpus, tmp_path):
        out = str(tmp_path / "m4")
        # base-k equal to the user count makes every split fail
        cfg = parse_config(base_args(corpus, out, ["--policy", "random", "--seeds", "0,1"]))
        cfg = dataclasses.replace(cfg, base_k=75)
        assert run_matrix(cfg) == 1
        manifest = Path(os.path.join(out, "failures.txt")).read_text()
        # each cell must fail on the split itself, not on some earlier fault
        entries = re.split(r"^(?=policy=)", manifest, flags=re.MULTILINE)[1:]
        assert [e.partition(":")[0] for e in entries] == [  # in grid order
            "policy=random;impute=zero;seed=0", "policy=random;impute=zero;seed=1",
        ]
        for entry in entries:
            assert "ValueError: base size k must be in [1, n_users)" in entry, entry

    def test_clean_run_leaves_no_failure_manifest(self, corpus, tmp_path):
        out = str(tmp_path / "clean")
        cfg = parse_config(base_args(corpus, out, ["--policy", "random", "--seeds", "0,1"]))
        assert run_matrix(cfg) == 0
        assert not os.path.exists(os.path.join(out, "failures.txt"))
        # a failing run writes the manifest; a clean rerun into the same
        # directory must not leave it behind
        assert run_matrix(dataclasses.replace(cfg, base_k=75)) == 1
        assert os.path.exists(os.path.join(out, "failures.txt"))
        assert run_matrix(cfg) == 0
        assert not os.path.exists(os.path.join(out, "failures.txt"))

    def test_parallel_failure_manifest_lists_each_error_once(self, corpus, tmp_path):
        out = str(tmp_path / "m4p")
        cfg = parse_config(base_args(corpus, out, ["--policy", "random", "--seeds", "0,1", "--workers", "2"]))
        assert run_matrix(dataclasses.replace(cfg, base_k=75)) == 1
        manifest = Path(os.path.join(out, "failures.txt")).read_text()
        entries = re.split(r"^(?=policy=)", manifest, flags=re.MULTILINE)[1:]
        assert [e.partition(":")[0] for e in entries] == [  # in grid order
            "policy=random;impute=zero;seed=0", "policy=random;impute=zero;seed=1",
        ]
        for entry in entries:
            assert entry.count("ValueError: base size k must be in [1, n_users)") == 1, entry

    def test_parallel_failure_manifest_is_in_grid_order(self, corpus, tmp_path, monkeypatch):
        """The seed-1 cell fails first, yet its entry follows the seed-0 one."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched run_policy reaches pool workers only through fork")
        out = str(tmp_path / "order")

        def failing(prepared, cfg, policy_id, impute_id, seed):
            if seed == 0:
                time.sleep(0.5)
            raise RuntimeError(f"boom {seed}")

        monkeypatch.setattr(cli, "run_policy", failing)
        assert run_matrix(parse_config(base_args(corpus, out, ["--policy", "random", "--seeds", "0,1",
                                                               "--workers", "2"]))) == 1
        manifest = Path(os.path.join(out, "failures.txt")).read_text()
        entries = re.split(r"^(?=policy=)", manifest, flags=re.MULTILINE)[1:]
        assert [e.partition(":")[0] for e in entries] == [
            "policy=random;impute=zero;seed=0", "policy=random;impute=zero;seed=1",
        ]
        assert "RuntimeError: boom 0" in entries[0] and "RuntimeError: boom 1" in entries[1]

    def test_failure_manifest_bytes_do_not_depend_on_workers(self, corpus, tmp_path):
        manifests = []
        for workers in ("1", "2"):
            out = str(tmp_path / f"w{workers}")
            cfg = parse_config(base_args(corpus, out, ["--policy", "random,ucb", "--seeds", "0,1",
                                                       "--workers", workers]))
            assert run_matrix(dataclasses.replace(cfg, base_k=75)) == 1
            manifests.append(Path(os.path.join(out, "failures.txt")).read_bytes())
        assert manifests[0].count(b"\npolicy=") == 3  # all four cells fail; an empty manifest must not pass
        assert manifests[0] == manifests[1]

    def test_failing_rerun_leaves_no_stale_cell_files(self, corpus, tmp_path):
        out = str(tmp_path / "stale")
        cfg = parse_config(base_args(corpus, out, ["--policy", "random", "--seeds", "0,1", "--dump-base"]))
        assert run_matrix(cfg) == 0
        cell_files = [f for f in os.listdir(out) if f.startswith(("trace__", "base__"))]
        assert len(cell_files) == 4  # a trace and a base dump per seed: one policy, so one group per seed
        for name in ("notes.txt", "trace__notes.txt"):  # not per-cell outputs
            open(os.path.join(out, name), "w").close()
        # every cell of the rerun fails, so none of the earlier run's traces
        # may remain next to its empty summary
        assert run_matrix(dataclasses.replace(cfg, base_k=75)) == 1
        assert read_summary(os.path.join(out, "summary.csv")) == []
        assert sorted(f for f in os.listdir(out) if f.startswith(("trace__", "base__"))) == ["trace__notes.txt"]
        assert os.path.exists(os.path.join(out, "notes.txt"))

    def test_partial_failure_keeps_results(self, corpus, tmp_path, monkeypatch):
        out = str(tmp_path / "m5")
        real_run_policy = cli.run_policy

        def flaky(prepared, cfg, policy_id, impute_id, seed):
            if policy_id == "thompson":
                raise RuntimeError("boom")
            return real_run_policy(prepared, cfg, policy_id, impute_id, seed)

        monkeypatch.setattr(cli, "run_policy", flaky)
        cfg = parse_config(base_args(corpus, out, ["--policy", "random,thompson", "--seeds", "0"]))
        assert run_matrix(cfg) == 1
        rows = read_summary(os.path.join(out, "summary.csv"))
        assert [r["policy"] for r in rows] == ["random"]
        assert os.path.exists(os.path.join(out, "trace__random__zero__seed0.csv"))
        assert "boom" in Path(os.path.join(out, "failures.txt")).read_text()

    def test_inline_run_releases_the_dataset(self, corpus, tmp_path, monkeypatch):
        cfg = parse_config(base_args(corpus, str(tmp_path / "inline"), ["--policy", "random", "--workers", "1"]))
        assert run_matrix(cfg) == 0
        assert cli._WORKER_DATASET is None

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_policy", boom)
        assert run_matrix(cfg) == 1
        assert cli._WORKER_DATASET is None

    def test_parallel_matches_inline(self, corpus, tmp_path):
        args = ["--policy", "alinucb,ucb", "--seeds", "0,1"]
        out_inline = str(tmp_path / "inline")
        out_par = str(tmp_path / "par")
        assert run_matrix(parse_config(base_args(corpus, out_inline, args + ["--workers", "1"]))) == 0
        assert run_matrix(parse_config(base_args(corpus, out_par, args + ["--workers", "2"]))) == 0
        traces = sorted(f for f in os.listdir(out_inline) if f.startswith("trace__"))
        assert len(traces) == 4  # 2 policies x 2 seeds; an empty run must not pass
        assert sorted(f for f in os.listdir(out_par) if f.startswith("trace__")) == traces
        for name in traces:
            a = Path(os.path.join(out_inline, name)).read_text()
            b = Path(os.path.join(out_par, name)).read_text()
            assert a == b, name

    def test_dying_worker_fails_its_cells_once(self, corpus, tmp_path, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched run_policy reaches pool workers only through fork")
        out = str(tmp_path / "died")
        real_run_policy = cli.run_policy

        def dying(prepared, cfg, policy_id, impute_id, seed):
            if policy_id == "ucb":
                os._exit(3)
            return real_run_policy(prepared, cfg, policy_id, impute_id, seed)

        monkeypatch.setattr(cli, "run_policy", dying)
        cfg = parse_config(base_args(corpus, out, ["--policy", "random,ucb", "--seeds", "0,1", "--workers", "2"]))
        assert run_matrix(cfg) == 1
        manifest = Path(os.path.join(out, "failures.txt")).read_text()
        failed = [e.partition(":")[0] for e in re.split(r"^(?=policy=)", manifest, flags=re.MULTILINE)[1:]]
        assert len(failed) == len(set(failed))
        assert {"policy=ucb;impute=zero;seed=0", "policy=ucb;impute=zero;seed=1"} <= set(failed)
        counted = {r["policy"]: int(r["cells"]) for r in read_summary(os.path.join(out, "summary.csv"))}
        for policy in ("random", "ucb"):
            assert counted.get(policy, 0) + sum(f.startswith(f"policy={policy};") for f in failed) == 2

    def test_dying_worker_fails_only_its_own_cell(self, corpus, tmp_path, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched run_policy reaches pool workers only through fork")
        out = str(tmp_path / "died-once")
        real_run_policy = cli.run_policy

        def dying(prepared, cfg, policy_id, impute_id, seed):
            if (policy_id, seed) == ("ucb", 0):
                os._exit(3)
            return real_run_policy(prepared, cfg, policy_id, impute_id, seed)

        monkeypatch.setattr(cli, "run_policy", dying)
        extra = ["--policy", "random,ucb,egreedy,aver", "--seeds", "0,1,2", "--workers", "2", "--t", "200"]
        assert run_matrix(parse_config(base_args(corpus, out, extra))) == 1
        manifest = Path(os.path.join(out, "failures.txt")).read_text()
        entries = re.split(r"^(?=policy=)", manifest, flags=re.MULTILINE)[1:]
        assert [e.partition(":")[0] for e in entries] == ["policy=ucb;impute=zero;seed=0"]
        assert "BrokenProcessPool" in entries[0]
        counted = {r["policy"]: int(r["cells"]) for r in read_summary(os.path.join(out, "summary.csv"))}
        assert counted == {"random": 3, "ucb": 2, "egreedy": 3, "aver": 3}

    def test_unpicklable_result_fails_only_its_own_cell(self, corpus, tmp_path, monkeypatch):
        """A cell whose result cannot be sent back leaves its group with no
        outcomes; each cell of that group runs again alone, and only the one
        whose result still cannot come back fails."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched run_policy reaches pool workers only through fork")
        out = str(tmp_path / "unpicklable")
        real_run_policy = cli.run_policy

        def unpicklable(prepared, cfg, policy_id, impute_id, seed):
            if (policy_id, seed) == ("ucb", 0):
                return lambda: None
            return real_run_policy(prepared, cfg, policy_id, impute_id, seed)

        monkeypatch.setattr(cli, "run_policy", unpicklable)
        extra = ["--policy", "random,ucb", "--seeds", "0,1", "--workers", "2"]
        assert run_matrix(parse_config(base_args(corpus, out, extra))) == 1
        manifest = Path(os.path.join(out, "failures.txt")).read_text()
        entries = re.split(r"^(?=policy=)", manifest, flags=re.MULTILINE)[1:]
        assert [e.partition(":")[0] for e in entries] == ["policy=ucb;impute=zero;seed=0"]
        assert "BrokenProcessPool" not in entries[0]
        counted = {r["policy"]: int(r["cells"]) for r in read_summary(os.path.join(out, "summary.csv"))}
        assert counted == {"random": 2, "ucb": 1}

    @pytest.mark.parametrize("policy,impute,rows", [("random", "zero", 15), ("alinucb", "svd", 3), ("alinucb", "alswr", 3)])
    def test_dump_base_flag(self, corpus, tmp_path, policy, impute, rows):
        """The dump is the context the policy reads: the 15 × 25 base for
        the zero fill, the rank-3 factor for a factorization."""
        out = str(tmp_path / "m6")
        extra = ["--policy", policy, "--impute", impute, "--rank", "3", "--seeds", "0", "--dump-base"]
        assert run_matrix(parse_config(base_args(corpus, out, extra))) == 0
        dumps = [f for f in os.listdir(out) if f.startswith("base__")]
        assert dumps == [f"base__{impute}__seed0.csv"]
        grid = np.loadtxt(os.path.join(out, dumps[0]), delimiter=",")
        assert grid.shape == (rows, 25)

    def test_dump_base_is_formatted_once_per_group(self, corpus, tmp_path, monkeypatch):
        """A (seed, fill) group formats its context once, into one file whose
        bytes are the ones a lone policy's group dumps."""
        calls = collections.Counter()
        real_write_csv = cli.write_csv

        def counted(path, header, columns):
            calls[os.path.basename(path).split("__")[0]] += 1
            return real_write_csv(path, header, columns)

        monkeypatch.setattr(cli, "write_csv", counted)
        extra = ["--impute", "zero,svd", "--rank", "3", "--seeds", "0,1", "--workers", "1", "--dump-base"]
        out, alone = tmp_path / "three", tmp_path / "alone"
        assert run_matrix(parse_config(base_args(corpus, str(out), ["--policy", "random,alinucb,thompson", *extra]))) == 0
        assert calls["base"] == 4  # one per (seed, fill) group
        assert run_matrix(parse_config(base_args(corpus, str(alone), ["--policy", "thompson", *extra]))) == 0
        groups = ("zero__seed0", "zero__seed1", "svd__seed0", "svd__seed1")
        assert sorted(p.name for p in out.glob("base__*")) == sorted(f"base__{group}.csv" for group in groups)
        for group in groups:
            assert (out / f"base__{group}.csv").read_bytes() == (alone / f"base__{group}.csv").read_bytes(), group

    def test_dump_base_is_written_when_its_group_is_prepared(self, corpus, tmp_path, monkeypatch):
        """A group whose every policy fails still leaves its dump, and a dump
        that cannot be written fails each cell of its group, as a failed
        preparation does."""
        extra = ["--policy", "random,alinucb", "--seeds", "0", "--workers", "1", "--dump-base"]

        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_policy", boom)
        out = tmp_path / "policies-fail"
        assert run_matrix(parse_config(base_args(corpus, str(out), extra))) == 1
        assert sorted(p.name for p in out.glob("base__*")) == ["base__zero__seed0.csv"]
        monkeypatch.undo()

        real_write_csv = cli.write_csv

        def unwritable(path, header, columns):
            if os.path.basename(path).startswith("base__"):
                raise OSError("disk full")
            return real_write_csv(path, header, columns)

        monkeypatch.setattr(cli, "write_csv", unwritable)
        out = tmp_path / "dump-fails"
        assert run_matrix(parse_config(base_args(corpus, str(out), extra))) == 1
        manifest = (out / "failures.txt").read_text()
        entries = re.split(r"^(?=policy=)", manifest, flags=re.MULTILINE)[1:]
        assert [e.partition(":")[0] for e in entries] == ["policy=random;impute=zero;seed=0",
                                                          "policy=alinucb;impute=zero;seed=0"]
        assert all("OSError: disk full" in e for e in entries)
        assert not list(out.glob("trace__*")) and not list(out.glob("base__*"))

    def test_new_item_problem_runs(self, corpus, tmp_path):
        """The transposed corpus replays to the pinned trace bytes under every
        fill: the transpose's (user, item) order and the evaluator's grouping
        are the ones each digest was recorded with.  random never reads the
        fill, so its four traces are the same bytes."""
        out = str(tmp_path / "m7")
        cfg = parse_config(
            ["--dataset", corpus, "--format", "csv", "--scale-max", "1",
             "--problem", "new-item", "--policy", "random,alinucb,thompson", "--impute", "zero,average,svd,alswr",
             "--rank", "4", "--seeds", "0", "--base-k", "10", "--t", "60", "--out", out]
        )
        assert run_matrix(cfg) == 0
        digests = {name: hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
                   for name in os.listdir(out) if name.startswith("trace__")}
        assert digests == PINNED_NEW_ITEM_SHA256
        assert len({digests[f"trace__random__{m}__seed0.csv"] for m in ("zero", "average", "svd", "alswr")}) == 1


class TestAvailableCpus:
    def test_affinity_mask_wins_over_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._available_cpus() == 3

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cli._available_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._available_cpus() == 1


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the workers asked for and
    runs each task at submit, in this process."""

    def __init__(self, requested, max_workers, initializer, initargs):
        requested.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestWorkerCount:
    def run(self, corpus, tmp_path, monkeypatch, extra):
        requested = []
        monkeypatch.setattr(cli, "_WORKER_DATASET", None)  # the stand-in's initializer sets it here
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: _InlinePool(requested, **kw))
        assert run_matrix(parse_config(base_args(corpus, str(tmp_path / "out"), extra))) == 0
        return requested

    def test_pool_has_no_more_workers_than_groups(self, corpus, tmp_path, monkeypatch):
        extra = ["--policy", "random,ucb", "--seeds", "0,1", "--workers", "8"]  # 4 cells in 2 (seed, fill) groups
        assert self.run(corpus, tmp_path, monkeypatch, extra) == [2]

    def test_one_group_runs_inline_whatever_the_cpus(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 8)
        extra = ["--policy", "random,ucb", "--seeds", "0", "--workers", "0"]  # 2 cells in 1 group
        assert self.run(corpus, tmp_path, monkeypatch, extra) == []


class TestConsoleEntry:
    def test_module_invocation(self, corpus, tmp_path):
        out = str(tmp_path / "cli")
        proc = subprocess.run(
            [sys.executable, "-m", "coldrec", *base_args(corpus, out, ["--policy", "random", "--seeds", "0"])],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "summary written" in proc.stdout
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_module_help(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "coldrec", "--help"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: ") and "--dataset" in proc.stdout
