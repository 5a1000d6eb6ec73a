"""The four benchmark workloads.

Each workload is configured from a seed (its inputs are made there, so
set-up time covers them), then runs whole rounds of identical work in a
closed loop: every call starts when the previous one returns.
``run_round`` is the timed body, ``traced_round`` the same work driven
through ckaf's public functions with a span around each call, and
``check`` compares the outputs with computations made apart from ckaf,
outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import math
import time
from array import array
from contextlib import redirect_stdout

import numpy as np

import reference
from tracing import L, D, novelty_outcome, traced_experiment

pc = time.perf_counter

CSV_HEADER = "n,algorithm,mse,mse_db,dict_size"
ALGORITHMS = ("cklms", "nclms", "wl-nclms")
TAIL = 500  # samples in a steady-state mean
RUNS = 20  # Monte-Carlo runs of the default experiment
SAMPLES = 5000


def tail_mean(x) -> float:
    return float(np.mean(np.asarray(x)[-TAIL:]))


def db(x: float) -> float:
    return 10.0 * math.log10(x)


class Workload:
    name = ""

    def __init__(self, ck, seed: int, out_dir):
        self.ck = ck
        self.seed = seed
        self.out_dir = out_dir
        self.failed = 0
        self.traced = False

    def run_round(self) -> int:
        """One round of work; returns the operations attempted."""
        raise NotImplementedError

    def traced_round(self, tracer) -> int:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Descriptions of every failed output check."""
        raise NotImplementedError

    def report(self, wall_s: float) -> list[tuple[str, float, str]]:
        """End-to-end figures of this workload, (name, value, unit); called after check."""
        raise NotImplementedError


class EqualizeCircular(Workload):
    name = "equalize-circular"

    def __init__(self, ck, seed, out_dir):
        super().__init__(ck, seed, out_dir)
        self.csv = out_dir / "equalize.csv"
        self.argv = ["equalize", "--seed", str(seed), "--output", str(self.csv)]
        args = ck.cli.parse_args(self.argv)
        self.steps = len(ALGORITHMS) * args.runs * (args.samples - args.delay)
        self.digests: set[str] = set()
        self.codes: list[int] = []
        self.stdout = ""

    def run_round(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.ck.cli.main(self.argv)
        self.codes.append(code)
        self.stdout = buf.getvalue()
        if code != 0:
            self.failed += self.steps
        self.digests.add(hashlib.sha256(self.csv.read_bytes()).hexdigest())
        return self.steps

    def traced_round(self, tracer):
        self.traced = True
        curves, self.outcomes, _ = traced_experiment(
            self.ck, tracer, ALGORITHMS, self.ck.channel.ChannelConfig(), self.seed, RUNS, SAMPLES
        )
        comment = self.csv.read_text(encoding="utf-8").split("\n", 2)[1]
        with tracer.span("cli.emit_csv"):
            self.ck.cli.emit_csv(curves, comment, self.out_dir / "equalize-traced.csv")
        return self.steps

    def _rows(self, path):
        lines = path.read_text(encoding="utf-8").splitlines()
        return lines[0], lines[1], [line.split(",") for line in lines[2:]]

    def check(self):
        bad = []
        if any(code != 0 for code in self.codes):
            bad.append(f"ckaf equalize exit codes {self.codes}")
        if len(self.digests) != 1:
            bad.append(f"{len(self.digests)} different CSVs from identical invocations")
        header, comment, rows = self._rows(self.csv)
        n_steps = SAMPLES - D
        if header != CSV_HEADER:
            bad.append(f"CSV header {header!r}")
        if not comment.startswith("# "):
            bad.append("CSV config comment missing")
        if len(rows) != len(ALGORITHMS) * n_steps:
            return bad + [f"CSV has {len(rows)} rows, expected {len(ALGORITHMS) * n_steps}"]
        mse = {a: np.array([float(r[2]) for r in rows[k :: len(ALGORITHMS)]]) for k, a in enumerate(ALGORITHMS)}
        size = {a: np.array([float(r[4]) for r in rows[k :: len(ALGORITHMS)]]) for k, a in enumerate(ALGORITHMS)}
        if [(int(r[0]), r[1]) for r in rows] != [(n, a) for n in range(n_steps) for a in ALGORITHMS]:
            bad.append("CSV rows are not (n, algorithm) in order")
        mse_db = np.array([float(r[3]) for r in rows])
        all_mse = np.array([float(r[2]) for r in rows])
        if not np.all(np.abs(mse_db - 10.0 * np.log10(all_mse)) <= 1e-9):
            bad.append("mse_db != 10 log10(mse) on some row")
        if np.any(np.diff(size["cklms"]) < 0) or size["cklms"][-1] >= n_steps:
            bad.append("CKLMS dict_size decreases or reaches the sample count")
        if np.any(size["nclms"] != 0) or np.any(size["wl-nclms"] != 0):
            bad.append("linear dict_size is not 0")
        self.figures = {a: tail_mean(mse[a]) for a in ALGORITHMS}
        self.dict_size = float(size["cklms"][-1])
        bad += self._check_stdout()
        bad += self._check_floors()
        if self.traced:
            traced = self._rows(self.out_dir / "equalize-traced.csv")[2]
            if traced != rows:
                bad.append("traced per-step errors do not average to the CSV's mse")
        return bad

    def _check_stdout(self):
        printed = {}
        for line in self.stdout.splitlines():
            parts = line.split()
            if len(parts) >= 5 and parts[1] == "steady-state":
                printed[parts[0]] = (float(parts[3]), float(parts[4].strip("(")), parts)
        bad = []
        for a in ALGORITHMS:
            if a not in printed:
                bad.append(f"no steady-state line for {a}")
                continue
            value, value_db, parts = printed[a]
            if abs(value - self.figures[a]) > 1e-6 * self.figures[a] or abs(value_db - db(self.figures[a])) > 0.0051:
                bad.append(f"printed {a} steady state {value} differs from the CSV's last-{TAIL} mean {self.figures[a]}")
            if a == "cklms" and abs(float(parts[-1]) - self.dict_size) > 0.051:
                bad.append(f"printed final dictionary {parts[-1]} differs from the CSV's {self.dict_size}")
        return bad

    def _check_floors(self):
        cfg = self.ck.channel.ChannelConfig()
        window = {False: [], True: []}
        full = {False: [], True: []}
        for inputs, targets in reference.monte_carlo_streams(cfg.rho, self.seed, RUNS, SAMPLES, L, D):
            for wl in (False, True):
                full[wl].append(reference.ls_floor(inputs, targets, wl))
                window[wl].append(reference.ls_floor(inputs[-TAIL:], targets[-TAIL:], wl))
        self.floors = {k: float(np.mean(v)) for k, v in (("linear", full[False]), ("widely-linear", full[True]))}
        win_lin, win_wl = float(np.mean(window[False])), float(np.mean(window[True]))
        f = self.figures
        bad = []
        if f["nclms"] < win_lin or f["wl-nclms"] < win_wl:
            bad.append(f"a linear filter beats its least-squares floor on the last {TAIL} samples")
        if not f["cklms"] < min(win_lin, win_wl, *self.floors.values()):
            bad.append("CKLMS does not go below the least-squares floors")
        return bad

    def report(self, wall_s):
        f = self.figures
        return [
            ("steps_per_s", self.steps / wall_s, "steps/s"),
            ("cklms_mse", f["cklms"], "mse"),
            ("nclms_mse", f["nclms"], "mse"),
            ("wl_nclms_mse", f["wl-nclms"], "mse"),
            ("dict_size", self.dict_size, "centers"),
            ("ls_floor_db.linear", db(self.floors["linear"]), "dB"),
            ("ls_floor_db.widely-linear", db(self.floors["widely-linear"]), "dB"),
        ] + [(f"novelty.{k}", float(v), "count") for k, v in getattr(self, "outcomes", {}).items()]


class StreamNoncircular(Workload):
    name = "stream-noncircular"
    SAMPLES = 28000
    RHO = 0.1
    PREFIX = 2000  # samples checked against the reference recursion

    def __init__(self, ck, seed, out_dir):
        super().__init__(ck, seed, out_dir)
        channel = ck.channel
        cfg = channel.ChannelConfig(rho=self.RHO)
        source_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
        s = channel.generate_source(self.SAMPLES + D, cfg.rho, cfg.amplitude, seed=source_seed)
        self.dataset = channel.build_dataset(channel.run_channel(cfg, s, seed=noise_seed), s, L, D)
        self.rows = list(self.dataset.inputs)
        self.targets = [complex(d) for d in self.dataset.targets]
        self.kernel = ck.kernels.RealKernel.gaussian(channel.DEFAULT_SIGMA)
        self.latency = array("d")
        self.results = []
        self.sizes = set()

    def _filter(self):
        channel = self.ck.channel
        return self.ck.cklms.CklmsFilter(
            self.kernel, mu=channel.DEFAULT_MU["cklms"], normalized=True, novelty=channel.DEFAULT_NOVELTY
        )

    def run_round(self):
        filt = self._filter()
        step, latency = filt.step, self.latency
        results = []
        for z, d in zip(self.rows, self.targets):
            t = pc()
            res = step(z, d)
            latency.append(pc() - t)
            results.append(res)
        self.results = results
        self.sizes.add(filt.dictionary_size)
        return len(results)

    def traced_round(self, tracer):
        self.traced = True
        filt = self._filter()
        results = []
        for z, d in zip(self.rows, self.targets):
            idx = tracer.begin("cklms.step")
            results.append(filt.step(z, d))
            tracer.finish(idx)
        self.traced_results = results
        return len(results)

    def check(self):
        bad = []
        inputs, targets = reference.stream(self.RHO, np.random.SeedSequence(self.seed), self.SAMPLES + D, L, D)
        if np.max(np.abs(inputs - self.dataset.inputs)) > 1e-12 or np.max(np.abs(targets - self.dataset.targets)) > 1e-12:
            bad.append("the stream differs from its independent rebuild")
        novelty = self.ck.channel.DEFAULT_NOVELTY
        pred, admitted = reference.ncklms_predictions(
            inputs[: self.PREFIX], targets[: self.PREFIX], self.ck.channel.DEFAULT_SIGMA,
            self.ck.channel.DEFAULT_MU["cklms"], novelty.delta1, novelty.delta2,
        )
        got = np.array([r.prediction for r in self.results[: self.PREFIX]])
        if np.max(np.abs(got - pred)) > 1e-10:
            bad.append(f"predictions differ from the NCKLMS reference by {np.max(np.abs(got - pred)):.3e}")
        if not np.array_equal(admitted, [r.admitted for r in self.results[: self.PREFIX]]):
            bad.append("admissions differ from the NCKLMS reference")
        self.outcomes = {"admitted": 0, "distance": 0, "error": 0}
        for r in self.results:
            self.outcomes[novelty_outcome(r, novelty.delta2)] += 1
        if self.sizes != {self.outcomes["admitted"]}:
            bad.append(f"final dictionary sizes {self.sizes} differ from {self.outcomes['admitted']} admissions")
        if self.traced and self.traced_results != self.results:
            bad.append("the traced stream differs from the untraced one")
        return bad

    def report(self, wall_s):
        lat = np.frombuffer(self.latency) * 1e6
        err = np.array([r.error for r in self.results])
        return [
            ("steps_per_s", len(self.results) / wall_s, "steps/s"),
            ("step_us_p50", float(np.percentile(lat, 50)), "us"),
            ("step_us_p99", float(np.percentile(lat, 99)), "us"),
            ("step_samples", float(lat.size), "count"),
            ("cklms_mse", tail_mean(np.abs(err) ** 2), "mse"),
            ("dict_size", float(self.outcomes["admitted"]), "centers"),
        ] + [(f"novelty.{k}", float(v), "count") for k, v in self.outcomes.items()]


class LinearMonteCarlo(Workload):
    name = "linear-montecarlo"
    ALGORITHMS = ("nclms", "wl-nclms")

    def __init__(self, ck, seed, out_dir):
        super().__init__(ck, seed, out_dir)
        self.cfg = ck.channel.ChannelConfig()
        self.steps = len(self.ALGORITHMS) * RUNS * (SAMPLES - D)
        self.curves = None
        self.identical = True

    def run_round(self):
        curves = self.ck.channel.run_experiment(self.ALGORITHMS, self.cfg, L=L, D=D, n_samples=SAMPLES, runs=RUNS, seed=self.seed)
        if self.curves is not None:
            self.identical &= all(np.array_equal(curves[a].mse, self.curves[a].mse) for a in self.ALGORITHMS)
        self.curves = curves
        return self.steps

    def traced_round(self, tracer):
        self.traced = True
        self.traced_curves = traced_experiment(self.ck, tracer, self.ALGORITHMS, self.cfg, self.seed, RUNS, SAMPLES)[0]
        return self.steps

    def check(self):
        bad = [] if self.identical else ["identical rounds gave different curves"]
        one = self.ck.channel.run_experiment(self.ALGORITHMS, self.cfg, L=L, D=D, n_samples=SAMPLES, runs=1, seed=self.seed)
        inputs, targets = reference.monte_carlo_streams(self.cfg.rho, self.seed, 1, SAMPLES, L, D)[0]
        for a in self.ALGORITHMS:
            mu = self.ck.channel.DEFAULT_MU[a]
            ref = np.abs(reference.nlms_errors(inputs, targets, mu, widely_linear=a == "wl-nclms")) ** 2
            gap = float(np.max(np.abs(ref - one[a].mse)))
            if gap > 1e-12:
                bad.append(f"{a} squared errors differ from the numpy recursion by {gap:.3e}")
            if self.traced and not np.array_equal(self.traced_curves[a].mse, self.curves[a].mse):
                bad.append(f"traced {a} curve differs from run_experiment's")
        return bad

    def report(self, wall_s):
        return [
            ("steps_per_s", self.steps / wall_s, "steps/s"),
            ("nclms_mse", tail_mean(self.curves["nclms"].mse), "mse"),
            ("wl_nclms_mse", tail_mean(self.curves["wl-nclms"].mse), "mse"),
        ]


class Gradcheck(Workload):
    name = "gradcheck"
    SEEDS = 8
    PROPERTIES, TRIALS, COST_TRIALS = 11, 100, 50
    CHECKS = PROPERTIES * TRIALS + COST_TRIALS  # per seed

    def __init__(self, ck, seed, out_dir):
        super().__init__(ck, seed, out_dir)
        self.seeds = range(seed * self.SEEDS, (seed + 1) * self.SEEDS)
        self.argvs = [["gradcheck", "--seed", str(s)] for s in self.seeds]
        self.outputs = {}

    def run_round(self):
        for argv in self.argvs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = self.ck.cli.main(argv)
            self.outputs[argv[-1]] = (code, buf.getvalue())
            if code != 0:
                self.failed += self.CHECKS
        return self.SEEDS * self.CHECKS

    def traced_round(self, tracer):
        self.traced = True
        self.traced_passed = True
        for s in self.seeds:
            with tracer.span("wirtinger.property_suite"):
                suite = self.ck.wirtinger.property_suite(rng_seed=s)
            with tracer.span("cklms.instantaneous_cost_check"):
                cost = self.ck.cklms.instantaneous_cost_check(rng_seed=s)
            self.traced_passed &= suite.all_passed and all(r.passed for r in cost)
        return self.SEEDS * self.CHECKS

    def check(self):
        bad = []
        for seed, (code, out) in self.outputs.items():
            lines = out.splitlines()
            props = [line for line in lines if line.lstrip().startswith("[")]
            if code != 0 or "all checks passed" not in lines:
                bad.append(f"gradcheck --seed {seed} exited {code}")
            if f"{self.TRIALS} trials/property" not in lines[0] or len(props) != self.PROPERTIES:
                bad.append(f"gradcheck --seed {seed} did not run {self.PROPERTIES} x {self.TRIALS} trials")
            if not all(line.endswith("PASS") for line in props):
                bad.append(f"gradcheck --seed {seed}: a property failed")
            if not any(f"({self.COST_TRIALS} trials" in line and line.endswith("PASS") for line in lines):
                bad.append(f"gradcheck --seed {seed}: the kernel-cost gradient check failed")
        if self.traced and not self.traced_passed:
            bad.append("a traced Wirtinger check failed")
        rng = np.random.default_rng([self.seed, 2])
        for m in (1, 2, 3, 4):
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            pair = self.ck.wirtinger.numeric_wirtinger(reference.CubicField(), w)
            d_z, d_zstar = reference.CubicField.pair(w)
            if max(np.max(np.abs(pair.d_z - d_z)), np.max(np.abs(pair.d_zstar - d_zstar))) > 1e-8:
                bad.append(f"numeric_wirtinger on z (z*)^2 misses the closed form at m={m}")
        return bad

    def report(self, wall_s):
        return [("checks_per_s", self.SEEDS * self.CHECKS / wall_s, "checks/s")]


WORKLOADS = {w.name: w for w in (EqualizeCircular, StreamNoncircular, LinearMonteCarlo, Gradcheck)}
