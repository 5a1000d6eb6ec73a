"""CLI contract tests: argument parsing, CSV emission, exit codes."""

import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ckaf
import ckaf.wirtinger
from ckaf import cli
from ckaf.channel import ALGORITHMS, DEFAULT_MU, DEFAULT_NOVELTY, DEFAULT_SIGMA, ChannelConfig, run_experiment
from ckaf.wirtinger import WirtingerPair


class TestParseArgs:
    def test_paper_defaults(self):
        args = cli.parse_args(["equalize"])
        assert args.algorithm == "all"
        assert args.samples == 5000
        assert args.runs == 20
        assert args.rho == pytest.approx(math.sqrt(2) / 2)
        assert args.snr_db == 15.0
        assert args.mu is None
        assert args.kernel == "gaussian"
        assert args.sigma == 5.0
        assert args.filter_length == 5
        assert args.delay == 2
        assert args.novelty_d1 == 0.15
        assert args.novelty_d2 == 0.2
        assert args.seed == 0
        assert args.smooth == 1
        # each default is the library's own, so the CLI and a bare run_experiment run the same experiment
        cfg = ChannelConfig()
        signature = inspect.signature(run_experiment).parameters
        library = {
            "rho": cfg.rho,
            "snr_db": cfg.snr_db,
            "sigma": DEFAULT_SIGMA,
            "novelty_d1": DEFAULT_NOVELTY.delta1,
            "novelty_d2": DEFAULT_NOVELTY.delta2,
            "samples": signature["n_samples"].default,
            "runs": signature["runs"].default,
            "filter_length": signature["L"].default,
            "delay": signature["D"].default,
            "seed": signature["seed"].default,
            "smooth": signature["smooth"].default,
        }
        assert {name: getattr(args, name) for name in library} == library
        # the CSV comment echoes every flag but --mu once, in parser order, then mu per algorithm
        subcommands = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
        flags = [a.dest for a in subcommands.choices["equalize"]._actions if a.dest not in ("help", "mu")]
        keys = [part.split("=")[0] for part in cli._config_comment(args, DEFAULT_MU).split()[1:]]
        assert keys == [*flags, "mu_cklms", "mu_nclms", "mu_wl_nclms"]

    def test_namespace_holds_only_the_flags(self):
        # run_equalize builds the model objects; the namespace is what the parser set, in its order
        subcommands = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
        dests = [a.dest for a in subcommands.choices["equalize"]._actions if a.dest != "help"]
        assert list(vars(cli.parse_args(["equalize"]))) == ["subcommand", *dests]

    def test_noncircular_flag(self):
        args = cli.parse_args(["equalize", "--rho", "0.1"])
        assert args.rho == 0.1

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["equalize", "--bogus", "1"])
        assert exc.value.code == 2

    def test_malformed_value_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["equalize", "--samples", "many"])
        assert exc.value.code == 2

    def test_mu_with_all_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["equalize", "--algorithm", "all", "--mu", "0.2"])
        assert exc.value.code == 2

    def test_mu_with_single_algorithm_accepted(self):
        args = cli.parse_args(["equalize", "--algorithm", "nclms", "--mu", "0.2"])
        assert args.mu == 0.2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args([])
        assert exc.value.code == 2


def _tiny_curves(algorithms, n_samples=23, runs=1, seed=0):
    return run_experiment(algorithms, ChannelConfig(), n_samples=n_samples, runs=runs, seed=seed)


class TestEmitCsv:
    def test_row_counts_single_algorithm(self, tmp_path):
        curves = _tiny_curves(["nclms"], n_samples=5)
        path = tmp_path / "out.csv"
        cli.emit_csv(curves, "# config", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,algorithm,mse,mse_db,dict_size"
        assert lines[1] == "# config"
        assert len(lines) == 2 + 3  # 5 samples - delay 2

    def test_rows_interleaved_per_iteration(self, tmp_path):
        curves = _tiny_curves(["cklms", "nclms", "wl-nclms"], n_samples=6)
        path = tmp_path / "out.csv"
        cli.emit_csv(curves, "# c", path)
        rows = [l.split(",") for l in path.read_text().splitlines()[2:]]
        assert len(rows) == 3 * 4
        assert [r[1] for r in rows[:3]] == ["cklms", "nclms", "wl-nclms"]
        assert [int(r[0]) for r in rows[:6]] == [0, 0, 0, 1, 1, 1]

    def test_dict_size_zero_for_linear(self, tmp_path):
        curves = _tiny_curves(["cklms", "nclms"], n_samples=10)
        path = tmp_path / "out.csv"
        cli.emit_csv(curves, "# c", path)
        for line in path.read_text().splitlines()[2:]:
            n, algo, mse, mse_db, dict_size = line.split(",")
            if algo == "nclms":
                assert float(dict_size) == 0.0
            else:
                assert float(dict_size) >= 1.0

    def test_curve_outside_the_algorithms_rejected(self, tmp_path):
        # a name outside ALGORITHMS used to be dropped whenever another curve's name was in it
        c = _tiny_curves(["nclms"], n_samples=5)["nclms"]
        path = tmp_path / "out.csv"
        for curves in ({"nclms": c, "foo": c}, {"foo": c}, {}):
            with pytest.raises(ValueError, match="expected curves named among"):
                cli.emit_csv(curves, "# c", path)
        assert not path.exists()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, OSError])
    def test_a_failed_write_leaves_the_old_file_whole(self, tmp_path, monkeypatch, error):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old curves\n")
        curves = _tiny_curves(["nclms"], n_samples=2000)
        true_memoryview = memoryview

        class FailingColumn:
            """A column whose row 1500 raises, once some 100 kB of rows are written."""

            def __init__(self, column):
                self.column = true_memoryview(column)

            def __getitem__(self, n):
                if n == 1500:
                    raise error("mid-write")
                return self.column[n]

        monkeypatch.setattr(cli, "memoryview", FailingColumn, raising=False)
        with pytest.raises(error, match="mid-write"):
            cli.emit_csv(curves, "# c", path)
        assert path.read_bytes() == b"old curves\n"
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind
        monkeypatch.undo()
        cli.emit_csv(curves, "# c", path)
        assert path.read_text().splitlines()[:2] == [cli.CSV_HEADER, "# c"]
        assert list(tmp_path.iterdir()) == [path]

    def test_a_new_file_takes_the_mode_of_a_plain_open(self, tmp_path):
        curves = _tiny_curves(["nclms"], n_samples=5)
        old_umask = os.umask(0o027)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            cli.emit_csv(curves, "# c", tmp_path / "out.csv")
        finally:
            os.umask(old_umask)
        assert os.stat(tmp_path / "out.csv").st_mode == os.stat(tmp_path / "plain").st_mode

    def test_roundtrip_at_printed_precision(self, tmp_path):
        curves = _tiny_curves(["nclms"], n_samples=40)
        path = tmp_path / "out.csv"
        cli.emit_csv(curves, "# c", path)
        for line in path.read_text().splitlines()[2:]:
            n, algo, mse, mse_db, _ = line.split(",")
            n = int(n)
            assert f"{curves[algo].mse[n]:.12e}" == mse
            assert float(mse) == pytest.approx(curves[algo].mse[n], rel=1e-12)


class TestMain:
    def test_equalize_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = cli.main(
            ["equalize", "--samples", "60", "--runs", "1", "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        text = out.read_text(encoding="utf-8")
        assert text.startswith("n,algorithm,mse,mse_db,dict_size\n# ")
        assert "algorithm=all" in text.splitlines()[1]
        assert "mu_cklms=0.5" in text.splitlines()[1]

    def test_unwritable_output_exits_2(self, tmp_path):
        code = cli.main(
            ["equalize", "--samples", "30", "--runs", "1", "--output", str(tmp_path / "no" / "dir.csv")]
        )
        assert code == 2

    def test_divergent_experiment_exits_1(self, tmp_path):
        code = cli.main(
            [
                "equalize",
                "--algorithm",
                "nclms",
                "--mu",
                "10.0",
                "--samples",
                "3000",
                "--runs",
                "1",
                "--output",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 1

    def test_novelty_zero_disables_sparsification(self, tmp_path):
        out = tmp_path / "c.csv"
        code = cli.main(
            [
                "equalize",
                "--algorithm",
                "cklms",
                "--samples",
                "40",
                "--runs",
                "1",
                "--novelty-d1",
                "0",
                "--novelty-d2",
                "0",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        # dictionary grows by one per sample when disabled
        assert float(rows[-1][4]) == len(rows)

    def test_bad_arguments_exit_2(self):
        assert cli.main(["equalize", "--samples", "-5"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sigma", "0"],
            ["--kernel", "polynomial", "--degree", "0"],
            ["--snr-db", "nan"],
            ["--algorithm", "cklms", "--mu", "0"],
            ["--algorithm", "nclms", "--mu", "-1"],
        ],
        ids=["sigma", "degree", "snr-db", "mu-cklms", "mu-nclms"],
    )
    def test_invalid_model_argument_exits_2(self, flags, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert cli.main(["equalize", *flags, "--samples", "30", "--runs", "1", "--output", str(out)]) == 2
        assert re.fullmatch(r"ckaf equalize: error: [^\n]*\n", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--rho", "1.5"],
            ["--samples", "0"],
            ["--runs", "0"],
            ["--smooth", "0"],
            ["--filter-length", "-1"],
            ["--delay", "-1"],
            ["--seed", "-1"],
            ["--samples", "2", "--delay", "2"],
            ["--novelty-d1", "nan"],
            ["--novelty-d2", "nan"],
            ["--novelty-d1", "-1", "--novelty-d2", "0"],
            ["--algorithm", "nclms", "--mu", "nan"],
            ["--snr-db=-inf"],
            ["--snr-db=-4000"],
            ["--algorithm", "cklms", "--sigma", "1e-200"],
            ["--algorithm", "cklms", "--sigma", "inf"],
            ["--algorithm", "cklms", "--mu", "inf"],
            ["--algorithm", "nclms", "--mu", "inf"],
            ["--algorithm", "cklms", "--snr-db=-3080"],
            ["--algorithm", "nclms", "--snr-db=-3080"],
            ["--algorithm", "cklms", "--kernel", "polynomial", "--degree", "5", "--snr-db=-1400"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_value_rejected_by_library_exits_2(self, flags, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert cli.main(["equalize", "--samples", "30", "--runs", "1", "--output", str(out), *flags]) == 2
        assert re.fullmatch(r"ckaf equalize: error: [^\n]*\n", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the CKLMS streams fan out only where fork exists")
    def test_value_rejected_in_a_pool_worker_exits_2(self, usable_cores, tmp_path, capsys):
        out = tmp_path / "c.csv"
        argv = ["equalize", "--algorithm", "cklms", "--runs", "2", "--samples", "30", "--snr-db=-3080"]
        errors = {}
        for cores in (2, 1):
            built = usable_cores(cores)
            assert cli.main([*argv, "--output", str(out)]) == 2
            assert built == ([2] if cores > 1 else [])
            errors[cores] = capsys.readouterr().err
        assert errors[2] == errors[1] == "ckaf equalize: error: non-finite input sample; run rejected\n"
        assert not out.exists()

    def test_zero_mu_valid_for_linear_filters(self, tmp_path):
        for algorithm in ("nclms", "wl-nclms"):
            out = tmp_path / f"{algorithm}.csv"
            args = ["equalize", "--algorithm", algorithm, "--mu", "0", "--samples", "30", "--runs", "1"]
            assert cli.main([*args, "--output", str(out)]) == 0

    def test_gradcheck_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") >= 12  # 11 properties + cost gradient

    def test_gradcheck_deterministic(self, capsys):
        cli.main(["gradcheck", "--seed", "7"])
        first = capsys.readouterr().out
        cli.main(["gradcheck", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_gradcheck_negative_seed_exits_2(self, capsys):
        assert cli.main(["gradcheck", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ckaf gradcheck: error: ")

    def test_module_entry_point_exit_code(self):
        """`python -m ckaf` passes main's exit code to the process."""
        env = {**os.environ, "PYTHONPATH": str(Path(ckaf.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "ckaf", "gradcheck", "--seed", "-1"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("ckaf gradcheck: error: ")

    @pytest.mark.parametrize("stdout", ["pipe", "file", "/dev/stdout > file", "file > file"])
    def test_output_to_dev_stdout_prints_the_csv(self, tmp_path, stdout):
        """A symlink to this process's stdout is written in place, whether stdout is a pipe or a file opened
        for append (as `>>` opens it), so the summary lines follow the CSV; renaming a file over the
        symlink would leave them in no file. The file case reaches stdout through a symlink of its own,
        so that a regression replaces that link, not /dev/stdout. Stdout redirected to a file opened for
        writing (as `>` opens it) takes the CSV and then the summary, whether --output names it as
        /dev/stdout, which a fresh open would truncate, or by its own path, which a rename would orphan."""
        out_txt = tmp_path / "out.txt"
        if stdout == "file":
            if not os.path.exists("/proc/self/fd/1"):
                pytest.skip("no /proc/self/fd")
            output = tmp_path / "stdout"
            output.symlink_to("/proc/self/fd/1")
        else:
            output = out_txt if stdout == "file > file" else "/dev/stdout"
        env = {**os.environ, "PYTHONPATH": str(Path(ckaf.__file__).parents[1])}
        argv = [sys.executable, "-m", "ckaf", "equalize", "--runs", "1", "--samples", "30", "--output", str(output)]
        if stdout == "pipe":
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            out = proc.stdout
        else:
            with open(out_txt, "a" if stdout == "file" else "w") as fh:
                proc = subprocess.run(argv, stdout=fh, stderr=subprocess.PIPE, text=True, env=env)
            out = out_txt.read_text()
            assert stdout != "file" or output.is_symlink()
        assert proc.returncode == 0, proc.stderr
        lines = out.splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 2 + 3 * 28 + 4  # the rows of 28 steps, 3 summary lines and "wrote ..."
        assert lines[-1] == f"wrote {output}"

    def test_summary_figures_agree_with_the_csv(self, tmp_path, capsys):
        """Each printed steady-state mse is the mean of the last 500 mse rows of its algorithm, its dB figure
        is 10 log10 of that mean, and CKLMS's final dictionary is its last dict_size row."""
        out = tmp_path / "curves.csv"
        assert cli.main(["equalize", "--runs", "2", "--samples", "1200", "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[2:]]
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(ALGORITHMS) + 1
        for name, line in zip(ALGORITHMS, printed):
            match = re.fullmatch(
                rf"{re.escape(name)} +steady-state mse (\S+) \((\S+) dB\)(?:  final dictionary (\S+))?", line
            )
            assert match, line
            mse = [float(r[2]) for r in rows if r[1] == name]
            assert len(mse) == 1198
            tail = math.fsum(mse[-500:]) / 500
            assert float(match[1]) == pytest.approx(tail, rel=1e-6)
            assert abs(float(match[2]) - 10.0 * math.log10(tail)) <= 0.005
            size = [r[4] for r in rows if r[1] == name][-1]
            assert match[3] == (None if name != "cklms" else f"{float(size):.1f}")

    def test_gradcheck_detects_injected_sign_error(self, monkeypatch, capsys):
        true_numeric = ckaf.wirtinger.numeric_wirtinger

        def flipped(f, w, h=1e-5):
            pair = true_numeric(f, w, h)
            return WirtingerPair(d_z=pair.d_z, d_zstar=-pair.d_zstar)

        monkeypatch.setattr(ckaf.wirtinger, "numeric_wirtinger", flipped)
        assert cli.main(["gradcheck"]) == 1
