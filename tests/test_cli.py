"""Config resolution, matrix orchestration, output determinism, exit codes."""

import concurrent.futures
import csv
import dataclasses
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coldrec import cli
from coldrec.cli import ConfigError, ExperimentConfig, main, parse_config, run_matrix
from coldrec.data import RatingDataset, save_csv_triples
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

    def test_unknown_config_key_rejected(self, corpus, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"dataset={corpus}\nlearning-rate=0.1\n")
        with pytest.raises(ConfigError, match="learning-rate"):
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

    @pytest.mark.parametrize("dataset", ["missing", "directory", "malformed"])
    def test_unreadable_dataset_keeps_the_last_run(self, tmp_path, capsys, dataset):
        out = tmp_path / "out"
        out.mkdir()
        earlier = {
            name: f"{name} from an earlier run\n"
            for name in ("trace__random__zero__seed0.csv", "base__random__zero__seed0.csv", "failures.txt",
                         "resolved_config.txt", "summary.csv")
        }
        for name, text in earlier.items():
            (out / name).write_text(text)
        path = tmp_path / dataset
        if dataset == "directory":
            path.mkdir()
        elif dataset == "malformed":
            path.write_text("1::2::5::978300760\n1::3\n")
        assert main(["--dataset", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: dataset: ")
        assert {p.name: p.read_text() for p in out.iterdir()} == earlier

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
        assert sorted(e.partition(":")[0] for e in entries) == [
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
        assert sorted(e.partition(":")[0] for e in entries) == [
            "policy=random;impute=zero;seed=0", "policy=random;impute=zero;seed=1",
        ]
        for entry in entries:
            assert entry.count("ValueError: base size k must be in [1, n_users)") == 1, entry

    def test_failing_rerun_leaves_no_stale_cell_files(self, corpus, tmp_path):
        out = str(tmp_path / "stale")
        cfg = parse_config(base_args(corpus, out, ["--policy", "random", "--seeds", "0,1", "--dump-base"]))
        assert run_matrix(cfg) == 0
        cell_files = [f for f in os.listdir(out) if f.startswith(("trace__", "base__"))]
        assert len(cell_files) == 4  # a trace and a base dump per seed
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
        real_run_cell = cli.run_cell

        def flaky(ds, cfg, policy_id, impute_id, seed):
            if policy_id == "thompson":
                raise RuntimeError("boom")
            return real_run_cell(ds, cfg, policy_id, impute_id, seed)

        monkeypatch.setattr(cli, "run_cell", flaky)
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

        monkeypatch.setattr(cli, "run_cell", boom)
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
            pytest.skip("the patched run_cell reaches pool workers only through fork")
        out = str(tmp_path / "died")
        real_run_cell = cli.run_cell

        def dying(ds, cfg, policy_id, impute_id, seed):
            if policy_id == "ucb":
                os._exit(3)
            return real_run_cell(ds, cfg, policy_id, impute_id, seed)

        monkeypatch.setattr(cli, "run_cell", dying)
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
            pytest.skip("the patched run_cell reaches pool workers only through fork")
        out = str(tmp_path / "died-once")
        real_run_cell = cli.run_cell

        def dying(ds, cfg, policy_id, impute_id, seed):
            if (policy_id, seed) == ("ucb", 0):
                os._exit(3)
            return real_run_cell(ds, cfg, policy_id, impute_id, seed)

        monkeypatch.setattr(cli, "run_cell", dying)
        extra = ["--policy", "random,ucb,egreedy,aver", "--seeds", "0,1,2", "--workers", "2", "--t", "200"]
        assert run_matrix(parse_config(base_args(corpus, out, extra))) == 1
        manifest = Path(os.path.join(out, "failures.txt")).read_text()
        entries = re.split(r"^(?=policy=)", manifest, flags=re.MULTILINE)[1:]
        assert [e.partition(":")[0] for e in entries] == ["policy=ucb;impute=zero;seed=0"]
        assert "BrokenProcessPool" in entries[0]
        counted = {r["policy"]: int(r["cells"]) for r in read_summary(os.path.join(out, "summary.csv"))}
        assert counted == {"random": 3, "ucb": 2, "egreedy": 3, "aver": 3}

    def test_dump_base_flag(self, corpus, tmp_path):
        out = str(tmp_path / "m6")
        cfg = parse_config(base_args(corpus, out, ["--policy", "random", "--seeds", "0", "--dump-base"]))
        run_matrix(cfg)
        dumps = [f for f in os.listdir(out) if f.startswith("base__")]
        assert len(dumps) == 1
        grid = np.loadtxt(os.path.join(out, dumps[0]), delimiter=",")
        assert grid.shape == (15, 25)

    def test_new_item_problem_runs(self, corpus, tmp_path):
        out = str(tmp_path / "m7")
        cfg = parse_config(
            ["--dataset", corpus, "--format", "csv", "--scale-max", "1",
             "--problem", "new-item", "--policy", "alinucb", "--seeds", "0",
             "--base-k", "10", "--t", "60", "--out", out]
        )
        assert run_matrix(cfg) == 0


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

    def test_pool_has_no_more_workers_than_cells(self, corpus, tmp_path, monkeypatch):
        extra = ["--policy", "random", "--seeds", "0,1", "--workers", "8"]
        assert self.run(corpus, tmp_path, monkeypatch, extra) == [2]

    def test_one_cell_runs_inline_whatever_the_cpus(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 8)
        extra = ["--policy", "random", "--seeds", "0", "--workers", "0"]
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
