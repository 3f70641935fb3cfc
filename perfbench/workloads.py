"""The four benchmark workloads: inputs, timed passes and oracle gates.

Each workload has ``prepare`` (generate inputs from the seed; untimed),
``warmup`` (a tiny untimed pass, so lazy imports and first-call costs are
paid before timing) and ``run_pass`` (one timed pass through streamgate's
public API).  A pass counts its operations and the ones that failed: an
exception or a failed oracle gate.  Oracle gates run outside the timed
regions and, in traced runs, with the tracer paused.

``run_pass`` calls ``probe()`` between its timed calls, so the machine's
speed is sampled while the pass runs.  It returns ``(digest, op_s,
dropped)``: a digest of every numeric output, the seconds of each timed
program call in call order, and the number of streams the pass
deactivated.  Digest and drop count must repeat exactly across passes and
between traced and untraced runs.

Sizes are fixed here, so every run of a workload does the same work per
pass; the seed only changes the data.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import shutil
from time import perf_counter

import numpy as np

import streamgate as sg
import streamgate.calibrate
import streamgate.cli
import streamgate.detector
import streamgate.simulate

from tracing import NullTracer

# A mean of posteriors that each satisfy the rule can exceed alpha by a few
# ulps once numpy averages them in another order; anything beyond this
# relative slack is a real LFNR violation.
LFNR_SLACK = 1e-9
MAX_FAILURE_NOTES = 5


class Ledger:
    """Attempted and failed operations of one run, with the first failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str, n: int = 1) -> None:
        self.failed += n
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        elif isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part).tobytes()
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _trace_parts(trace) -> tuple:
    return (np.asarray([trace.n_streams, trace.t_final]), trace.t_stop,
            trace.active_size, trace.realized_lfnr)


def _iid(theta: float, mu: float):
    return sg.IIDModel(sg.GeometricPrior(theta), sg.GaussianShift(mu))


def gaussian_rows(k: int, horizon: int, theta: float, mu: float, seed: int) -> np.ndarray:
    """(horizon, k) observations of IID streams with geometric change points."""
    rng = np.random.default_rng([seed, 1])
    tau = rng.geometric(theta, size=k) - 1.0
    t = np.arange(1, horizon + 1)[:, None]
    return rng.standard_normal((horizon, k)) + mu * (tau[None, :] < t)


def stat(values, unit: str, how: str = "median") -> dict:
    values = np.asarray(values, dtype=float)
    q = {"median": 50, "p50": 50, "p90": 90}[how]
    return {"value": float(np.percentile(values, q)), "unit": unit, "n": int(values.size)}


# ---------------------------------------------------------------------------
# monitor-large-k
# ---------------------------------------------------------------------------

def check_selection(w_prev, prev_active, kept, dropped, alpha: float) -> str | None:
    """Exact O(K) check that ``kept`` is the largest LFNR-feasible set.

    Sorted prefix means never decrease, so a kept set is the largest
    feasible one exactly when it is feasible, no kept posterior exceeds a
    dropped one, and adding the smallest dropped posterior breaks the
    budget.  Sums are exactly rounded (math.fsum), as the rule's own
    boundary decision is.
    """
    keep = np.isin(prev_active, kept)
    if (keep.sum() != len(kept) or len(kept) + len(dropped) != len(prev_active)
            or not np.array_equal(np.sort(prev_active[~keep]), np.sort(dropped))):
        return "kept and dropped do not partition the previous active set"
    wk, wd = w_prev[keep], w_prev[~keep]
    if math.fsum(wk.tolist()) > alpha * len(wk):
        return f"kept set of {len(wk)} breaks the LFNR budget"
    if wk.size and wd.size and wk.max() > wd.min():
        return "a kept posterior exceeds a dropped one"
    if wd.size and math.fsum(wk.tolist() + [float(wd.min())]) <= alpha * (len(wk) + 1):
        return f"kept set of {len(wk)} is not maximal"
    return None


class MonitorLargeK:
    """IID model at large K: calibrate, adaptive, threshold, checkpoint round trip."""

    name = "monitor-large-k"
    theta, mu, alpha = 0.01, 1.0, 0.05

    def __init__(self, seed: int, corrupt: bool = False, k: int = 20_000,
                 horizon: int = 100) -> None:
        self.seed, self.corrupt, self.k, self.horizon = seed, corrupt, k, horizon

    def sizes(self) -> dict:
        return {"k": self.k, "horizon": self.horizon}

    def nominal_stream_steps(self) -> int:
        # calibration, adaptive and threshold phases each cover K x T
        return 3 * self.k * self.horizon

    def prepare(self) -> None:
        self.x = gaussian_rows(self.k, self.horizon, self.theta, self.mu, self.seed)

    def warmup(self) -> None:
        small = MonitorLargeK(self.seed, k=2_000, horizon=10)
        small.prepare()
        small.run_pass(Ledger(), {}, NullTracer(), lambda: None)

    def _detector_phase(self, det, ledger, tracer, probe, ops, times, label, check) -> None:
        """Step ``det`` over every row, appending each step's seconds to ``ops``."""
        for t in range(1, self.horizon + 1):
            if t % 20 == 1:
                probe()
            ledger.attempted += 1
            x = self.x[t - 1, det.active]
            try:
                t0 = perf_counter()
                det.observe(x)
                t1 = perf_counter()
                with tracer.paused():
                    prev, w_prev = det.active, det.w[det.active]
                t2 = perf_counter()
                dropped = det.deactivate()
                t3 = perf_counter()
            except Exception as exc:  # this step and the rest of the phase fail
                ledger.attempted += self.horizon - t
                ledger.fail(f"{label} step t={t}: {exc!r}", self.horizon - t + 1)
                return
            times.append((t1 - t0) + (t3 - t2))
            ops.append(times[-1])
            kept = det.active
            if self.corrupt and dropped.size and kept.size:  # flip one kept index, once
                self.corrupt = False
                kept = kept.copy()
                kept[0] = dropped[0]
            with tracer.paused():
                problem = check(t, w_prev, prev, kept, dropped)
            if problem:
                ledger.fail(f"{label} step t={t}: {problem}")

    def run_pass(self, ledger: Ledger, rec: dict, tracer, probe):
        model = _iid(self.theta, self.mu)
        probe()
        k, alpha, dropped = self.k, self.alpha, 0
        parts, ops = [], []

        ledger.attempted += 1
        table = None
        try:
            t0 = perf_counter()
            table = sg.calibrate.calibrate_thresholds(self.theta, model.obs, alpha, k,
                                                      self.horizon, self.seed)
            ops.append(perf_counter() - t0)
            rec.setdefault("calibrate_s", []).append(ops[-1])
            parts.append(table.thresholds)
            dropped += k - int(round(float(table.survival_frac[-1]) * k))
        except Exception as exc:
            ledger.fail(f"calibrate: {exc!r}")

        t0 = perf_counter()
        adaptive = sg.detector.AdaptiveDetector(model, alpha, k)
        ops.append(perf_counter() - t0)
        self._detector_phase(
            adaptive, ledger, tracer, probe, ops, rec.setdefault("adaptive_step_s", []), "adaptive",
            lambda t, w, prev, kept, out: check_selection(w, prev, kept, out, alpha))
        dropped += k - adaptive.n_active

        if table is None:
            ledger.attempted += self.horizon
            ledger.fail("threshold phase skipped: calibration failed", self.horizon)
        else:
            lam = table.thresholds

            def check_cutoff(t, w, prev, kept, out):
                if not np.array_equal(kept, prev[w <= lam[t - 1]]):
                    return f"kept set differs from {{w <= lambda_{t}}}"
                return None

            t0 = perf_counter()
            threshold = sg.detector.ThresholdDetector(model, alpha, k, table)
            ops.append(perf_counter() - t0)
            self._detector_phase(threshold, ledger, tracer, probe, ops,
                                 rec.setdefault("threshold_step_s", []), "threshold",
                                 check_cutoff)
            dropped += k - threshold.n_active
            with tracer.paused():
                parts += _trace_parts(threshold.trace())

        probe()
        ledger.attempted += 1
        blob = ""
        try:
            t0 = perf_counter()
            blob = sg.detector.checkpoint_state(adaptive)
            t1 = perf_counter()
            restored = sg.detector.restore_state(blob, model, k)
            t2 = perf_counter()
            ops.append(t2 - t0)
            rec.setdefault("checkpoint_encode_s", []).append(t1 - t0)
            rec.setdefault("checkpoint_decode_s", []).append(t2 - t1)
            rec["checkpoint_bytes"] = len(blob.encode())
            with tracer.paused():
                same = (restored.w.tobytes() == adaptive.w.tobytes()
                        and restored.trace().equals(adaptive.trace()))
            if not same:
                ledger.fail("checkpoint round trip changed w or the decision trace")
        except Exception as exc:
            ledger.fail(f"checkpoint round trip: {exc!r}")
        with tracer.paused():
            parts += _trace_parts(adaptive.trace())
        return digest(*parts, blob), ops, dropped

    def summary(self, rec: dict) -> dict:
        out = {}
        if rec.get("calibrate_s"):
            out["calibrate_s"] = stat(rec["calibrate_s"], "s")
        for label in ("adaptive", "threshold"):
            ms = np.asarray(rec.get(f"{label}_step_s", [])) * 1e3
            if ms.size:
                out[f"{label}.step_ms.p50"] = stat(ms, "ms", "p50")
                out[f"{label}.step_ms.p90"] = stat(ms, "ms", "p90")
        enc, dec = rec.get("checkpoint_encode_s", []), rec.get("checkpoint_decode_s", [])
        if enc:
            out["checkpoint_s"] = stat(np.add(enc, dec), "s")
            out["checkpoint.encode_s"] = stat(enc, "s")
            out["checkpoint.decode_s"] = stat(dec, "s")
            out["checkpoint.mb"] = stat([rec["checkpoint_bytes"] / 1e6], "MB")
        return out


# ---------------------------------------------------------------------------
# detect-cli
# ---------------------------------------------------------------------------

_DISCARDED = re.compile(r"discarded (\d+) observation")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


class DetectCli:
    """``streamgate.cli.main`` in-process: wide CSV, then NDJSON resumed from its checkpoint."""

    name = "detect-cli"
    theta, mu, alpha = 0.01, 1.0, 0.05

    def __init__(self, seed: int, workdir: str, corrupt: bool = False, k: int = 4_000,
                 horizon: int = 24) -> None:
        self.seed, self.workdir, self.corrupt, self.k, self.horizon = (
            seed, workdir, corrupt, k, horizon)

    def sizes(self) -> dict:
        half = self.horizon // 2
        return {"k": self.k, "csv_steps": half, "ndjson_steps": self.horizon - half}

    def nominal_stream_steps(self) -> int:
        return self.k * self.horizon  # observation rows parsed over both calls

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        k, horizon, half = self.k, self.horizon, self.horizon // 2
        x = gaussian_rows(k, horizon, self.theta, self.mu, self.seed)
        rng = np.random.default_rng([self.seed, 2])
        # non-contiguous external ids, in a shuffled column and line order
        ids = np.sort(rng.choice(10 * k, size=k, replace=False)) + 1
        cols = rng.permutation(k)
        with open(self._path("first.csv"), "w") as fh:
            fh.write("t," + ",".join(str(ids[c]) for c in cols) + "\n")
            for t in range(1, half + 1):
                fh.write(f"{t}," + ",".join(repr(float(v)) for v in x[t - 1, cols]) + "\n")
        with open(self._path("rest.ndjson"), "w") as fh:
            for t in range(half + 1, horizon + 1):
                for c in rng.permutation(k):
                    fh.write(f'{{"t":{t},"stream":{ids[c]},"x":{float(x[t - 1, c])!r}}}\n')
        self.expected = self._reference_table(x, ids)

    def _reference_table(self, x, ids) -> list[str]:
        """Stop table of an untimed library run over the same rows."""
        try:
            det = sg.detector.AdaptiveDetector(_iid(self.theta, self.mu), self.alpha, self.k)
            for t in range(1, self.horizon + 1):
                det.observe(x[t - 1, det.active])
                det.deactivate()
            trace = det.trace()
        except Exception as exc:
            return [f"reference run failed: {exc!r}"]
        return [f"{sid},{trace.t_final if s < 0 else s},{int(s < 0)}"
                for sid, s in zip(ids, trace.t_stop)]

    def warmup(self) -> None:
        small = DetectCli(self.seed, self._path("warmup"), k=50, horizon=4)
        small.prepare()
        small.run_pass(Ledger(), {}, NullTracer(), lambda: None)

    def _call(self, argv, rec, ledger, label) -> tuple[float, str]:
        out, err = io.StringIO(), io.StringIO()
        ledger.attempted += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = sg.cli.main(argv)
        except Exception as exc:
            ledger.fail(f"{label}: {exc!r}")
            return perf_counter() - t0, ""
        spent = perf_counter() - t0
        rec.setdefault(f"{label}_s", []).append(spent)
        if rc != 0:
            ledger.fail(f"{label}: exit code {rc}: {err.getvalue().strip()[:200]}")
        m = _DISCARDED.search(err.getvalue())
        rec["obs_discarded"] += int(m.group(1)) if m else 0
        return spent, out.getvalue() + err.getvalue()

    def run_pass(self, ledger: Ledger, rec: dict, tracer, probe):
        ckpt = self._path("state.ckpt")
        with contextlib.suppress(FileNotFoundError):
            os.remove(ckpt)
        flags = ["--alpha", repr(self.alpha), "--theta", repr(self.theta), "--mu", repr(self.mu)]
        rec["obs_discarded"], rec["obs_parsed"] = 0, self.k * self.horizon
        ops, parts = [], []
        for label, src in (("csv_call", "first.csv"), ("ndjson_call", "rest.ndjson")):
            argv = ["detect", "--input", self._path(src), "--out", self._path(f"{label}.out"),
                    "--report", self._path(f"{label}.report"), "--checkpoint", ckpt, *flags]
            for _ in range(3):
                probe()
            call_s, text = self._call(argv, rec, ledger, label)
            ops.append(call_s)
            parts += [text, _read(self._path(f"{label}.out")),
                      _read(self._path(f"{label}.report")), _read(ckpt)]
        table = [ln for ln in _read(self._path("ndjson_call.out")).splitlines()
                 if ln and not ln.startswith(("#", "stream,"))]
        if self.corrupt and table:
            sid, stop, censored = table[0].split(",")
            table[0] = f"{sid},{int(stop) + 1},{censored}"
        if table != self.expected:
            row = next((i for i, (a, b) in enumerate(zip(table, self.expected)) if a != b),
                       min(len(table), len(self.expected)))
            ledger.fail(f"stop table differs from the library run at row {row}")
        dropped = sum(1 for ln in table if ln.endswith(",0"))
        return digest(*parts), ops, dropped

    def summary(self, rec: dict) -> dict:
        csv_s, nd_s = rec.get("csv_call_s", []), rec.get("ndjson_call_s", [])
        if not (csv_s and nd_s):
            return {}
        rates = self.k * self.horizon / np.add(csv_s, nd_s)
        return {"detect.obs_per_s": stat(rates, "1/s"),
                "detect.csv_call_s": stat(csv_s, "s"),
                "detect.ndjson_call_s": stat(nd_s, "s")}

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# replication-small-k and partial-dep
# ---------------------------------------------------------------------------

class _Replication:
    """One adaptive ``simulate.run_experiment`` call per pass, on one thread."""

    name = ""
    k = horizon = replications = 0
    alpha = 0.05

    def __init__(self, seed: int, corrupt: bool = False) -> None:
        self.seed, self.corrupt = seed, corrupt

    def model(self):
        raise NotImplementedError

    def sizes(self) -> dict:
        return {"k": self.k, "horizon": self.horizon, "replications": self.replications}

    def nominal_stream_steps(self) -> int:
        return self.k * self.horizon * self.replications

    def prepare(self) -> None:
        pass

    def config(self, k: int, horizon: int, replications: int):
        return sg.simulate.SimConfig(model=self.model(), k=k, alpha=self.alpha,
                                     horizon=horizon, replications=replications,
                                     procedure="adaptive", seed=self.seed, threads=1)

    def warmup(self) -> None:
        sg.simulate.run_experiment(self.config(50, 20, 1))

    def run_pass(self, ledger: Ledger, rec: dict, tracer, probe):
        reps = self.replications
        for _ in range(6):
            probe()
        ledger.attempted += reps
        t0 = perf_counter()
        try:
            frame = sg.simulate.run_experiment(self.config(self.k, self.horizon, reps))
        except Exception as exc:
            ledger.fail(f"run_experiment: {exc!r}", reps)
            return digest("failed"), [perf_counter() - t0], 0
        spent = perf_counter() - t0
        rec.setdefault("pass_s", []).append(spent)
        active = frame.mean_active.copy()
        if self.corrupt:
            active[-1] = active[0] + 1.0
        # the frame aggregates every replication, so a failed gate fails all of them
        over = frame.mean_lfnr > self.alpha * (1.0 + LFNR_SLACK)
        if np.any(over):
            ledger.fail(f"mean_lfnr exceeds alpha at t={int(np.argmax(over)) + 1}", reps)
        elif np.any(np.diff(active) > 0):
            t = int(np.argmax(np.diff(active) > 0)) + 2
            ledger.fail(f"mean_active increases at t={t}", reps)
        dropped = int(round(float(frame.mean_cd[-1]) * reps))
        return digest(*(getattr(frame, f) for f in (
            "t", "mean_fnp", "se_fnp", "mean_lfnr", "se_lfnr", "mean_active", "mean_util",
            "mean_fdp", "mean_lfdr", "mean_rl", "mean_cd"))), [spent], dropped


class ReplicationSmallK(_Replication):
    name = "replication-small-k"
    k, horizon, replications = 500, 200, 200

    def model(self):
        return _iid(0.05, 1.0)

    def summary(self, rec: dict) -> dict:
        t = rec.get("pass_s", [])
        if not t:
            return {}
        return {"replication.reps_per_s": stat(self.replications / np.asarray(t), "1/s")}


class PartialDep(_Replication):
    name = "partial-dep"
    k, horizon, replications = 1_000, 100, 2

    def model(self):
        return sg.PartialDepModel(sg.GeometricPrior(0.02), 0.5, sg.GaussianShift(1.5))

    def summary(self, rec: dict) -> dict:
        t = rec.get("pass_s", [])
        if not t:
            return {}
        return {"partial.stream_steps_per_s": stat(self.nominal_stream_steps() / np.asarray(t),
                                                   "1/s")}


WORKLOADS = {cls.name: cls for cls in (MonitorLargeK, DetectCli, ReplicationSmallK, PartialDep)}
