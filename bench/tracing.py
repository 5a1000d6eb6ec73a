"""Spans around calls into ckaf, and the traced layer probe.

A span is (name, start, end, parent). Spans are appended to flat arrays
in memory and written out once, when the run ends, so a traced run does
no I/O while it measures. The layer of a span is its name up to the
first dot; a layer's self time is the time its spans cover minus the
time covered by their child spans.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np

import reference

pc = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(pc())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = pc()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span with this name, in order."""
        nid = self._ids.get(name, -1)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return dur[ids == nid]

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered
        layers = [name.split(".", 1)[0] for name in self.names]
        out: dict[str, float] = {}
        for nid, total in enumerate(np.bincount(self.name_id, weights=own, minlength=len(self.names))):
            out[layers[nid]] = out.get(layers[nid], 0.0) + float(total)
        return out

    def write(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                fh.write(f"{self.names[nid]},{s - t0:.9f},{e - t0:.9f},{p}\n")


def median_us(fn, *args, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = pc()
        fn(*args)
        times.append(pc() - t)
    return statistics.median(times) * 1e6


L, D = 5, 2  # the defaults of `ckaf equalize`
ROW_SIZES = (100, 1000, 3000, 10000)
STEP_SIZES = (1000, 3000, 10000)
STEP_WINDOW = 128  # steps timed from each dictionary size on
ROW_BYTES_PER_CENTER = 6 * 16 + 8  # one complex 6-vector read, one float written


def novelty_outcome(result, delta2: float) -> str:
    """Which gate a step passed or failed, inferred from its StepResult alone.

    A rejected step whose error clears delta2 can only have failed the
    distance gate; any other rejection is counted against the error gate.
    """
    if result.admitted:
        return "admitted"
    return "distance" if abs(result.error) >= delta2 else "error"


def traced_experiment(ck, tracer, algorithms, cfg, seed, runs, n_samples):
    """run_experiment's Monte-Carlo loop, driven through the public functions.

    Follows the documented seed rule and sums squared errors and
    dictionary sizes run by run in the same order, so the returned
    curves must equal run_experiment's exactly. Also returns the
    novelty accounting of the CKLMS steps and the last run's filters.
    """
    channel = ck.channel
    kernel = ck.kernels.RealKernel.gaussian(channel.DEFAULT_SIGMA)
    novelty = channel.DEFAULT_NOVELTY
    sum_err = {name: 0.0 for name in algorithms}
    sum_size = {name: 0.0 for name in algorithms}
    outcomes = {"admitted": 0, "distance": 0, "error": 0}
    filters = {}
    for child in np.random.SeedSequence(seed).spawn(runs):
        source_seed, noise_seed = child.spawn(2)
        with tracer.span("channel.generate_source"):
            s = channel.generate_source(n_samples, cfg.rho, cfg.amplitude, seed=source_seed)
        with tracer.span("channel.run_channel"):
            r = channel.run_channel(cfg, s, seed=noise_seed)
        with tracer.span("channel.build_dataset"):
            ds = channel.build_dataset(r, s, L, D)
        for name in algorithms:
            mu = channel.DEFAULT_MU[name]
            err_sq = np.empty(len(ds))
            sizes = np.zeros(len(ds))
            run = tracer.begin(f"channel.run.{name}")
            if name == "cklms":
                filt = ck.cklms.CklmsFilter(kernel, mu=mu, normalized=True, novelty=novelty)
                for i in range(len(ds)):
                    idx = tracer.begin("cklms.step")
                    res = filt.step(ds.inputs[i], ds.targets[i])
                    tracer.finish(idx)
                    e = res.error
                    err_sq[i] = e.real * e.real + e.imag * e.imag
                    sizes[i] = filt.dictionary_size
                    outcomes[novelty_outcome(res, novelty.delta2)] += 1
            else:
                filt = ck.linear.ComplexNlms(L + 1, mu=mu, widely_linear=name == "wl-nclms")
                for i in range(len(ds)):
                    idx = tracer.begin(f"linear.update.{name}")
                    e = filt.update(ds.inputs[i], ds.targets[i])[1]
                    tracer.finish(idx)
                    err_sq[i] = e.real * e.real + e.imag * e.imag
            tracer.finish(run)
            filters[name] = filt
            sum_err[name] = sum_err[name] + err_sq
            sum_size[name] = sum_size[name] + sizes
    curves = {
        name: channel.LearningCurve(mse=sum_err[name] / runs, dict_size=sum_size[name] / runs, runs=runs)
        for name in algorithms
    }
    return curves, outcomes, filters


def probe(ck, seed: int, tracer: Tracer, out_dir) -> tuple[dict[str, float], list[str]]:
    """Time each layer through its public functions.

    The probe is the same on every workload: the data pipeline of the
    default experiment's 20 runs, its first run for each algorithm,
    CSV emission, kernel rows and filter steps at fixed dictionary
    sizes, and the Wirtinger checks, all on inputs drawn from `seed`.
    Returns the per-layer metrics and a list of failed checks.
    """
    channel, cklms, kernels, cli, wirtinger = ck.channel, ck.cklms, ck.kernels, ck.cli, ck.wirtinger
    m: dict[str, float] = {}
    cfg = channel.ChannelConfig()
    kernel = kernels.RealKernel.gaussian(channel.DEFAULT_SIGMA)
    novelty = channel.DEFAULT_NOVELTY
    median_span_us = lambda name: float(np.median(tracer.durations(name))) * 1e6

    traced_experiment(ck, tracer, (), cfg, seed, 20, 5000)
    for key, name in (("source", "generate_source"), ("channel", "run_channel"), ("dataset", "build_dataset")):
        m[f"channel.{key}_us"] = median_span_us(f"channel.{name}")

    curves, outcomes, filters = traced_experiment(ck, tracer, channel.ALGORITHMS, cfg, seed, 1, 5000)
    for name in channel.ALGORITHMS:
        m[f"channel.run_s.{name}"] = float(tracer.durations(f"channel.run.{name}")[-1])
    for name in ("nclms", "wl-nclms"):
        m[f"linear.update_us.{name}"] = median_span_us(f"linear.update.{name}")
    steps = sum(outcomes.values())
    m["cklms.admit_rate"] = outcomes["admitted"] / steps
    m["cklms.distance_rejects"] = float(outcomes["distance"])
    m["cklms.error_rejects"] = float(outcomes["error"])
    m["cklms.dict_bytes"] = float(filters["cklms"].centers.nbytes + filters["cklms"].coeffs.nbytes)

    path = out_dir / "probe.csv"
    with tracer.span("cli.emit_csv"):
        cli.emit_csv(curves, "# layer probe", path)
    m["cli.emit_csv_s"] = float(tracer.durations("cli.emit_csv")[-1])
    m["cli.csv_bytes"] = float(path.stat().st_size)

    # kernel rows against m random centers
    rng = np.random.default_rng([seed, 1])
    cvec = lambda *shape: 0.7 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    z = cvec(6)
    for size in ROW_SIZES:
        centers = cvec(size, 6)
        reps = max(20, 400_000 // size)
        with tracer.span(f"kernels.kernel_eval_many.m{size}"):
            m[f"kernels.row_us.m{size}"] = median_us(kernels.kernel_eval_many, kernel, z, centers, reps=reps)
    row_bytes = ROW_BYTES_PER_CENTER * 10000
    m["kernels.row_bytes.m10000"] = float(row_bytes)
    m["kernels.row_gbs.m10000"] = row_bytes / (m["kernels.row_us.m10000"] * 1e-6) / 1e9

    # default-configuration steps as the dictionary grows: random targets far
    # from any prediction keep the error gate open, so nearly every step admits
    new_filter = lambda: cklms.CklmsFilter(kernel, mu=channel.DEFAULT_MU["cklms"], normalized=True, novelty=novelty)
    sample = lambda: (cvec(6), complex(*(5.0 * rng.standard_normal(2))))
    fresh = []
    for _ in range(200):
        filt, (zz, dd) = new_filter(), sample()
        t = pc()
        filt.step(zz, dd)
        fresh.append(pc() - t)
    m["cklms.step_us.m0"] = statistics.median(fresh) * 1e6
    filt = new_filter()
    times: dict[int, list[float]] = {size: [] for size in STEP_SIZES}
    with tracer.span("cklms.grow"):
        while filt.dictionary_size < STEP_SIZES[-1] + STEP_WINDOW:
            size = filt.dictionary_size
            zz, dd = sample()
            if size == 3000 and "cklms.predict_us.m3000" not in m:
                m["cklms.predict_us.m3000"] = median_us(filt.predict, zz, reps=200)
            t = pc()
            filt.step(zz, dd)
            dt = pc() - t
            for target in STEP_SIZES:
                if target <= size < target + STEP_WINDOW:
                    times[target].append(dt)
    for size in STEP_SIZES:
        m[f"cklms.step_us.m{size}"] = statistics.median(times[size]) * 1e6
    m["cklms.step_rows.m3000"] = m["cklms.step_us.m3000"] / m["kernels.row_us.m3000"]

    # the Wirtinger oracle
    with tracer.span("wirtinger.property_suite"):
        suite = wirtinger.property_suite(rng_seed=seed)
    m["wirtinger.suite_s"] = float(tracer.durations("wirtinger.property_suite")[-1])
    with tracer.span("cklms.instantaneous_cost_check"):
        cost = cklms.instantaneous_cost_check(rng_seed=seed)
    m["wirtinger.cost_check_s"] = float(tracer.durations("cklms.instantaneous_cost_check")[-1])
    field = reference.CubicField()
    w = cvec(4)
    with tracer.span("wirtinger.numeric_wirtinger.m4"):
        m["wirtinger.numeric_us.m4"] = median_us(wirtinger.numeric_wirtinger, field, w, reps=500)
    m["wirtinger.field_evals"] = field.calls / 500

    failures = [f"probe: {k} is {v}" for k, v in m.items() if not math.isfinite(v)]
    if not (suite.all_passed and all(r.passed for r in cost)):
        failures.append("probe: the Wirtinger checks failed")
    return m, failures
