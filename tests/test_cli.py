"""Config grammar, commands, persistence round-trips, determinism."""

import filecmp
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pacgibbs import cli
from pacgibbs.bounds import grad_C, grad_u
from pacgibbs.cli import main
from pacgibbs.config import load_config
from pacgibbs.errors import ConfigError
from pacgibbs.gmm import GmmBackend
from pacgibbs.modelio import load_model, save_model
from pacgibbs.trainer import TrainConfig, train
from pacgibbs import selftest as selftest_mod
from conftest import tiny_hmm_pair, two_cluster_data


def write_vector_file(path, n_per_class=16, seed=0, unlabeled=0):
    rng = np.random.default_rng(seed)
    X_pos, X_neg = two_cluster_data(n_per_class, rng)
    lines = [",".join(f"{v:.6f}" for v in x) + ",pos" for x in X_pos]
    lines += [",".join(f"{v:.6f}" for v in x) + ",neg" for x in X_neg]
    for i in range(unlabeled):
        x = rng.normal(size=2) * 2.0
        lines.append(",".join(f"{v:.6f}" for v in x) + ",?")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_sequence_file(path, seed=6):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(14):
        lines.append("fam1," + "".join(rng.choice(list("AB"), size=12)) + "AA")
    for _ in range(14):
        lines.append("fam2," + "".join(rng.choice(list("CD"), size=12)) + "CC")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


HMM_OVERRIDES = [
    "run.backend=hmm", "hmm.states=2", "hmm.symbols=0",
    "trainer.max_outer_iters=3", "trainer.restarts=1",
    "trainer.c_update=fixed", "tilt.n_draws=3",
]


FAST_OVERRIDES = [
    "trainer.max_outer_iters=3",
    "trainer.restarts=1",
    "trainer.c_update=fixed",
    "gmm.components=2",
    "tilt.n_draws=3",
]


def small_task(tmp_path, backend):
    """(data file, fast training overrides) for a small task of ``backend``."""
    if backend == "hmm":
        return write_sequence_file(tmp_path / "s.csv"), HMM_OVERRIDES
    return write_vector_file(tmp_path / "d.csv"), FAST_OVERRIDES


def run_cli(*args):
    return main(list(args))


class TestConfig:
    def test_defaults_complete_and_typed(self):
        cfg = load_config(None)
        assert cfg["run.backend"] == "gmm"
        assert isinstance(cfg["trainer.gamma_u"], float)
        assert isinstance(cfg["data.header"], bool)

    def test_file_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\ntrainer.seed = 9\nrun.mode = semi\n")
        cfg = load_config(str(p), ["trainer.seed=11"])
        assert cfg["trainer.seed"] == 11
        assert cfg["run.mode"] == "semi"

    # tilt.weight_scale and predict.normalized are not options: a config setting them fails.
    @pytest.mark.parametrize("key", ["trainer.bogus", "tilt.weight_scale", "predict.normalized"])
    def test_unknown_key_rejected(self, tmp_path, key):
        p = tmp_path / "run.cfg"
        p.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match=re.escape(f"run.cfg:1: unknown config key {key!r}")):
            load_config(str(p))

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="trainer.seed"):
            load_config(None, ["trainer.seed=abc"])

    def test_enum_validated(self):
        cfg = load_config(None, ["run.backend=foo", "data.path=x"])
        with pytest.raises(ConfigError, match="run.backend"):
            cfg.validate(require_data=False)

    def test_dump_round_trips(self, tmp_path):
        cfg = load_config(None, ["trainer.gamma_u=0.125", "run.mode=semi"])
        p = tmp_path / "dumped.cfg"
        p.write_text(cfg.dump() + "\n")
        cfg2 = load_config(str(p))
        assert cfg2.values == cfg.values

    def test_missing_data_path_mentions_it(self, tmp_path, capsys):
        code = run_cli("train", "--set", f"run.output_dir={tmp_path}")
        assert code == 2
        assert "data.path" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("key", ["gmm.components", "hmm.states"])
    def test_count_below_one_names_key(self, tmp_path, capsys, key, value):
        data, overrides = small_task(tmp_path, key.split(".")[0])
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={tmp_path}",
            *[f"--set={o}" for o in overrides], "--set", f"{key}={value}",
        )
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_no_votes_rejected_before_training(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "multi_restart_train", lambda *a: pytest.fail("trained"))
        data = write_vector_file(tmp_path / "d.csv")
        out = tmp_path / "out"
        code = run_cli(
            command, "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            *[f"--set={o}" for o in FAST_OVERRIDES], "--set", "predict.n=0",
        )
        assert code == 2
        assert "predict.n must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("column", ["7", "-7"])
    def test_label_column_outside_row_names_key_and_line(self, tmp_path, capsys, column):
        data = tmp_path / "d.csv"
        data.write_text("0.5,1.5,pos\n-0.5,-1.5,neg\n")
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={tmp_path}",
            "--set", f"data.label_column={column}",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"data.label_column={column}" in err
        assert "line 1" in err

    @pytest.mark.parametrize("backend", ["gmm", "hmm"])
    def test_empty_delimiter_names_key(self, tmp_path, capsys, backend):
        data, overrides = small_task(tmp_path, backend)
        out = tmp_path / "out"
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            *[f"--set={o}" for o in overrides], "--set", "data.delimiter=",
        )
        assert code == 2
        assert "data.delimiter" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting,field", [("trainer.c_init=nan", "C_init"), ("trainer.init_range=1e308", "init_range")]
    )
    def test_non_finite_trainer_value_names_field(self, tmp_path, capsys, setting, field):
        data = write_vector_file(tmp_path / "d.csv")
        out = tmp_path / "out"
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            *[f"--set={o}" for o in FAST_OVERRIDES], "--set", setting,
        )
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_init_range_trains_without_overflow(self, tmp_path):
        # 2 * 8e307 is finite, but the initial margins square past the double range
        # inside gauss_pdf unless it caps them first.
        data = write_vector_file(tmp_path / "d.csv")
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={tmp_path / 'out'}",
            *[f"--set={o}" for o in FAST_OVERRIDES], "--set", "trainer.init_range=8e307",
        )
        assert code == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_gamma_u_diverges_without_overflow(self, tmp_path, capsys):
        # The prior-mean fit lands near 1e306: finite, but its squared norm is not.
        data = write_vector_file(tmp_path / "d.csv")
        fast = [o for o in FAST_OVERRIDES if not o.startswith("gmm.")]
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={tmp_path / 'out'}",
            *[f"--set={o}" for o in fast], "--set", "trainer.gamma_u=1e308",
        )
        assert code == 2
        assert "||u|| exceeded" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_gamma_u_steps_are_rejected_without_overflow(self, tmp_path):
        # Here the u steps themselves overshoot: ||u - u0||^2 is inf, so the
        # backtracking guard rejects every rate and u stays put.
        data = write_vector_file(tmp_path / "d.csv")
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={tmp_path / 'out'}",
            *[f"--set={o}" for o in FAST_OVERRIDES], "--set", "trainer.gamma_u=1e308",
        )
        assert code == 0


class TestModelIo:
    def test_round_trip_gmm(self, tmp_path):
        rng = np.random.default_rng(0)
        X_pos, X_neg = two_cluster_data(12, rng)
        S_l = [(x, 1) for x in X_pos] + [(x, -1) for x in X_neg]
        bp = GmmBackend.from_data(X_pos, 2, np.random.default_rng(1))
        bm = GmmBackend.from_data(X_neg, 2, np.random.default_rng(2))
        cfg = TrainConfig(max_outer_iters=2, restarts=1, c_update="fixed", seed=5)
        task = train(S_l, [], bp, bm, cfg)
        path = str(tmp_path / "m.bin")
        save_model(path, task, "gmm", feat_mean=np.array([0.1, -0.2]), feat_std=np.array([1.0, 2.0]))
        loaded = load_model(path)
        assert loaded.backend_kind == "gmm"
        assert np.array_equal(loaded.task.u, task.u)
        assert np.array_equal(loaded.task.u0, task.u0)
        assert loaded.task.C == task.C
        assert np.array_equal(loaded.task.backend_plus.params.means, task.backend_plus.params.means)
        assert loaded.feat_mean == pytest.approx([0.1, -0.2])

    def test_round_trip_hmm(self, tmp_path):
        bp, bm = tiny_hmm_pair()
        from pacgibbs.trainer import TrainedTask

        dim = 2 * bp.block_dim() + 1
        task = TrainedTask(
            u0=np.zeros(dim), u=np.ones(dim), C=0.5, backend_plus=bp, backend_minus=bm, history=[]
        )
        path = str(tmp_path / "m.bin")
        save_model(path, task, "hmm", alphabet="xyz")
        loaded = load_model(path)
        assert loaded.alphabet == "xyz"
        assert np.array_equal(loaded.task.backend_minus.params.emission, bm.params.emission)

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOTAMODELFILE")
        from pacgibbs.errors import DataFormatError

        with pytest.raises(DataFormatError):
            load_model(str(p))


class TestTrainCommand:
    def test_tiny_run_writes_artifacts(self, tmp_path, capsys):
        data = write_vector_file(tmp_path / "d.csv")
        out = tmp_path / "out"
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={out}", *
            [f"--set={o}" for o in FAST_OVERRIDES]
        )
        assert code == 0
        assert (out / "model.bin").exists()
        telemetry = (out / "telemetry.csv").read_text().splitlines()
        assert telemetry[0] == "iteration,J,R_S,e_S,d_S,bound,acceptance_rate,C"
        assert len(telemetry) == 4  # header + 3 iterations
        assert "final J(u)" in capsys.readouterr().out

    def test_missing_file_fails_with_path(self, tmp_path, capsys):
        code = run_cli("train", "--set", "data.path=/nonexistent/file.csv")
        assert code == 2
        assert "/nonexistent/file.csv" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        data = write_vector_file(tmp_path / "d.csv")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                "train", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
                *[f"--set={o}" for o in FAST_OVERRIDES]
            ) == 0
            outs.append(out)
        assert filecmp.cmp(outs[0] / "model.bin", outs[1] / "model.bin", shallow=False)
        assert filecmp.cmp(outs[0] / "telemetry.csv", outs[1] / "telemetry.csv", shallow=False)

    def test_telemetry_floats_round_trip(self, tmp_path):
        data = write_vector_file(tmp_path / "d.csv")
        out = tmp_path / "out"
        run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            *[f"--set={o}" for o in FAST_OVERRIDES]
        )
        lines = (out / "telemetry.csv").read_text().splitlines()
        header = lines[0].split(",")
        parsed = [dict(zip(header, row.split(","))) for row in lines[1:]]
        # repr round-trip: reading the text back gives the exact float
        for row in parsed:
            assert float(row["J"]) == float(repr(float(row["J"])))

    def test_training_abort_exits_with_its_diagnostic(self, tmp_path, capsys):
        data = write_vector_file(tmp_path / "d.csv", n_per_class=15)
        out = tmp_path / "out"
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            "--set", "gmm.components=2", "--set", "trainer.restarts=1",
            "--set", "trainer.c_init=1000", "--set", "tilt.max_attempts_factor=1",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: iteration 0: \d+/30 examples exhausted the sampling budget \(>20%\); "
            r"lower C or raise max_attempts\n",
            err,
        ), err
        assert not out.exists()

    def test_constant_feature_column_trains(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = [f"{x:.5f},7.0,pos" for x in rng.normal(loc=2.0, size=10)]
        lines += [f"{x:.5f},7.0,neg" for x in rng.normal(loc=-2.0, size=6)]
        data = tmp_path / "const.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            *[f"--set={o}" for o in FAST_OVERRIDES]
        )
        assert code == 0
        assert (out / "model.bin").exists()

    def test_semi_mode_consumes_unlabeled(self, tmp_path, capsys):
        data = write_vector_file(tmp_path / "d.csv", unlabeled=8)
        out = tmp_path / "out"
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            "--set", "run.mode=semi", *[f"--set={o}" for o in FAST_OVERRIDES]
        )
        assert code == 0
        telemetry = (out / "telemetry.csv").read_text().splitlines()
        d_col = telemetry[0].split(",").index("d_S")
        assert float(telemetry[1].split(",")[d_col]) > 0.0


class TestPredictAndBoundReport:
    @pytest.fixture
    def trained(self, tmp_path):
        data = write_vector_file(tmp_path / "d.csv")
        out = tmp_path / "out"
        run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            *[f"--set={o}" for o in FAST_OVERRIDES]
        )
        return data, str(out / "model.bin"), out

    def test_predict_writes_rows_and_accuracy(self, trained, capsys):
        data, model, out = trained
        code = run_cli(
            "predict", "--model", model, "--set", f"data.path={data}",
            "--set", f"run.output_dir={out}",
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "accuracy" in captured
        rows = (out / "predictions.csv").read_text().splitlines()
        assert rows[0] == "index,score,label"
        assert len(rows) == 33  # header + 32 examples

    def test_bound_report_prints_components(self, trained, capsys):
        data, model, out = trained
        code = run_cli(
            "bound-report", "--model", model, "--set", f"data.path={data}",
            "--set", f"run.output_dir={out}",
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "R_S" in text and "KL(weights)" in text
        sup = [l for l in text.splitlines() if l.startswith("bound supervised")]
        semi = [l for l in text.splitlines() if l.startswith("bound semisupervised")]
        assert sup and semi
        # supervised data: the two bounds coincide
        assert sup[0].split("raw = ")[1] == semi[0].split("raw = ")[1]

    def test_truncated_model_fails_cleanly(self, trained, capsys):
        data, _, out = trained
        blob = (out / "model.bin").read_bytes()
        cut = out / "cut.bin"
        for size in (4, 100, len(blob) - 1):
            cut.write_bytes(blob[:size])
            code = run_cli(
                "predict", "--model", str(cut), "--set", f"data.path={data}",
                "--set", f"run.output_dir={out}",
            )
            assert code == 2
            assert f"{cut} is truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "bound-report"])
    def test_unnormalized_scoring_flag_fails_cleanly(self, trained, capsys, command):
        data, model, out = trained
        blob = bytearray((out / "model.bin").read_bytes())
        assert blob[13] == 1  # byte 13: the scoring flag
        blob[13] = 0
        old = out / "old.bin"
        old.write_bytes(bytes(blob))
        settings = ("--set", f"data.path={data}", "--set", f"run.output_dir={out}")
        code = run_cli(command, "--model", str(old), *settings)
        assert code == 2
        assert f"{old}: unsupported scoring flag 0 (byte 13)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "bound-report"])
    def test_feature_count_mismatch_fails_cleanly(self, trained, tmp_path, capsys, command):
        _, model, out = trained  # trained on 2 feature columns
        wide = tmp_path / "wide.csv"
        wide.write_text("".join(f"0.1,0.2,0.3,{label}\n" for label in ("pos", "neg") * 3))
        settings = ("--set", f"data.path={wide}", "--set", f"run.output_dir={out}")
        code = run_cli(command, "--model", model, *settings)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{wide} has 3 feature columns; the model was trained on 2" in err

    @pytest.mark.parametrize("command", ["predict", "bound-report"])
    def test_model_dimension_mismatch_fails_cleanly(self, trained, capsys, command):
        data, model, out = trained
        loaded = load_model(model)
        loaded.task.u = loaded.task.u0 = np.zeros(loaded.task.u.size + 1)
        bad = out / "bad.bin"
        save_model(str(bad), loaded.task, "gmm", loaded.feat_mean, loaded.feat_std)
        settings = ("--set", f"data.path={data}", "--set", f"run.output_dir={out}")
        code = run_cli(command, "--model", str(bad), *settings)
        assert code == 2
        assert f"{bad}: model dimension mismatch" in capsys.readouterr().err

    def test_bound_report_delta_sweep_monotone(self, trained, capsys):
        data, model, out = trained
        raws = []
        for delta in ("0.5", "0.05", "0.005"):
            run_cli(
                "bound-report", "--model", model, "--set", f"data.path={data}",
                "--set", f"run.output_dir={out}", "--set", f"trainer.delta={delta}",
            )
            text = capsys.readouterr().out
            line = [l for l in text.splitlines() if l.startswith("bound supervised")][0]
            raws.append(float(line.split("raw = ")[1].split(",")[0]))
        assert raws[0] <= raws[1] <= raws[2]


class TestBenchmarkCommand:
    def test_two_class_rows_and_macro(self, tmp_path, capsys):
        data = write_vector_file(tmp_path / "d.csv", n_per_class=20, seed=3)
        out = tmp_path / "out"
        code = run_cli(
            "benchmark", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            "--set", "data.n_partitions=2", *[f"--set={o}" for o in FAST_OVERRIDES]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "macro-average" in text
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[0] == "task,partition,mode,n_labeled,accuracy,bound_raw,bound_clamped,wall_seconds"
        assert len(rows) == 1 + 2 * 2  # two mirror tasks x two partitions

    def test_learning_curve_row_count(self, tmp_path):
        data = write_vector_file(tmp_path / "d.csv", n_per_class=20, seed=4)
        curves = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli(
                "benchmark", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
                "--set", "data.n_partitions=2", "--set", "benchmark.learning_curve_sizes=6,500",
                *[f"--set={o}" for o in FAST_OVERRIDES]
            )
            assert code == 0
            curves.append((out / "learning_curve.csv").read_bytes())
        assert curves[0] == curves[1]
        rows = curves[0].decode().splitlines()
        assert len(rows) == 1 + 2 * 2  # |sizes| x |tasks| + header
        # The size each row's models trained on: 500 exceeds the labeled half
        # of every split (10 rows per class), so its rows report 20.
        sizes = [row.split(",")[1] for row in rows[1:]]
        assert sizes == ["6", "20", "6", "20"]

    @pytest.mark.parametrize("sizes", ["0", "-3", "6,x"])
    def test_bad_learning_curve_sizes_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, sizes
    ):
        """A size below 2 (one example per class) or not an integer fails
        with the key's name before any unit trains or writes results."""
        monkeypatch.setattr(cli, "multi_restart_train", lambda *a: pytest.fail("trained"))
        data = write_vector_file(tmp_path / "d.csv", n_per_class=20, seed=4)
        out = tmp_path / "out"
        code = run_cli(
            "benchmark", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            "--set", "data.n_partitions=2", "--set", f"benchmark.learning_curve_sizes={sizes}",
            *[f"--set={o}" for o in FAST_OVERRIDES]
        )
        assert code == 2
        assert "benchmark.learning_curve_sizes" in capsys.readouterr().err
        assert not (out / "results.csv").exists()


class TestHmmBackendCommands:
    def test_train_and_predict_on_sequences(self, tmp_path, capsys):
        data = write_sequence_file(tmp_path / "seq.csv")
        out = tmp_path / "out"
        code = run_cli(
            "train", "--set", f"data.path={data}", "--set", f"run.output_dir={out}",
            *[f"--set={o}" for o in HMM_OVERRIDES],
        )
        assert code == 0
        model = out / "model.bin"
        loaded = load_model(str(model))
        assert loaded.backend_kind == "hmm"
        assert loaded.alphabet == "ABCD"
        code = run_cli(
            "predict", "--model", str(model), "--set", f"data.path={data}",
            "--set", f"run.output_dir={out}", "--set", "run.backend=hmm",
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "accuracy" in text


# Prints whether scipy is loaded after importing the package, then after
# running the CLI command given in argv (if any), and the command's code.
SCIPY_PROBE = """
import sys
import pacgibbs, pacgibbs.cli
after_import = "scipy" in sys.modules
code = pacgibbs.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, after_import, "scipy" in sys.modules)
"""


class TestScipyStaysUnloaded:
    """No command needs scipy (``phi_tail`` uses the standard library's
    ``erfc``), so importing the package, training, benchmarking, reporting
    bounds, the self-test and predicting must not pay its start-up cost."""

    def probe(self, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        return run.stdout.splitlines()[-1]

    def test_import_loads_no_scipy(self):
        assert self.probe() == "0 False False"

    @pytest.mark.parametrize("backend", ["gmm", "hmm"])
    def test_predict_loads_no_scipy(self, tmp_path, backend):
        data, overrides = small_task(tmp_path, backend)
        out = tmp_path / "out"
        common = ["--set", f"data.path={data}", "--set", f"run.output_dir={out}"]
        assert run_cli("train", *common, *[f"--set={o}" for o in overrides]) == 0
        model = str(out / "model.bin")
        argv = ["predict", "--model", model, *common, "--set", f"run.backend={backend}"]
        assert self.probe(*argv) == "0 False False"

    @pytest.mark.parametrize("backend", ["gmm", "hmm"])
    def test_train_and_bound_report_load_no_scipy(self, tmp_path, backend):
        data, overrides = small_task(tmp_path, backend)
        out = tmp_path / "out"
        common = ["--set", f"data.path={data}", "--set", f"run.output_dir={out}"]
        assert self.probe("train", *common, *[f"--set={o}" for o in overrides]) == "0 False False"
        model = str(out / "model.bin")
        argv = ["bound-report", "--model", model, *common, "--set", f"run.backend={backend}"]
        assert self.probe(*argv) == "0 False False"

    def test_benchmark_loads_no_scipy(self, tmp_path):
        data = write_vector_file(tmp_path / "d.csv", n_per_class=20, seed=3)
        argv = [
            "benchmark", "--set", f"data.path={data}", "--set", f"run.output_dir={tmp_path / 'out'}",
            "--set", "data.n_partitions=2", *[f"--set={o}" for o in FAST_OVERRIDES],
        ]
        assert self.probe(*argv) == "0 False False"

    def test_selftest_loads_no_scipy(self):
        assert self.probe("selftest") == "0 False False"


class TestSelftestCommand:
    def test_clean_build_passes(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "max error" in out

    @pytest.mark.parametrize(
        "impl, exact, target",
        [
            ("grad_u_impl", grad_u, "grad_u vs finite differences"),
            ("grad_c_impl", grad_C, "grad_C vs finite differences"),
        ],
        ids=["grad_u", "grad_C"],
    )
    def test_injected_gradient_bug_is_caught(self, impl, exact, target):
        def broken_grad(*args):
            return -exact(*args)  # sign error

        results = selftest_mod.run_all(**{impl: broken_grad})
        by_name = {r.name: r for r in results}
        assert not by_name[target].passed
        # every other check still passes
        others = [r for r in results if r.name != target]
        assert all(r.passed for r in others)
