"""Span tracer for the traced benchmark run.

The tracer wraps streamgate's public functions and methods from the
outside: nothing in the package knows it is being traced.  Each call to a
wrapped target records one span (name, start, end, parent span, run id)
in flat in-memory arrays; the spans are written out once, when the run
ends, and per-layer self times are computed from them.

A target that no longer exists is not an error: its layer is reported as
unmeasured, by name, so a refactor of the package never crashes the run
and never silently drops a layer from the report.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

# layer span name -> targets, each "module:attribute" or "module:Class.attribute".
# A name is looked up where its caller looks it up: detector calls
# update_posterior through its own module globals, and cli imported
# checkpoint_state/restore_state by name, so those bindings are wrapped too.
TARGETS = {
    "detector.observe": ["streamgate.detector:AdaptiveDetector.observe"],
    "detector.deactivate": ["streamgate.detector:AdaptiveDetector.deactivate"],
    "detector.one_step_rule": ["streamgate.detector:one_step_rule"],
    "detector.checkpoint_state": ["streamgate.detector:checkpoint_state",
                                  "streamgate.cli:checkpoint_state"],
    "detector.restore_state": ["streamgate.detector:restore_state",
                               "streamgate.cli:restore_state"],
    "posterior.update": ["streamgate.detector:update_posterior",
                         "streamgate.posterior:PartialDepPosterior.advance"],
    "posterior.w": ["streamgate.posterior:PosteriorState.w",
                    "streamgate.posterior:PartialDepPosterior.w"],
    "posterior.freeze": ["streamgate.posterior:PosteriorState.freeze",
                         "streamgate.posterior:PartialDepPosterior.freeze"],
    "model.log_lr_rows": ["streamgate.model:IIDModel.log_lr_rows",
                          "streamgate.model:PartialDepModel.log_lr_rows"],
    "model.sample_step": ["streamgate.model:IIDModel.sample_step",
                          "streamgate.model:PartialDepModel.sample_step"],
    "calibrate.calibrate_thresholds": ["streamgate.calibrate:calibrate_thresholds"],
    "simulate.run_experiment": ["streamgate.simulate:run_experiment"],
    "simulate.metrics": ["streamgate.simulate:fnp", "streamgate.simulate:lfnr_realized",
                         "streamgate.simulate:fdp_lfdr"],
    "cli.main": ["streamgate.cli:main"],
}

# span name -> counter fed with len(result) of each traced call
RESULT_COUNTERS = {
    "detector.deactivate": "detector.dropped",
    "detector.checkpoint_state": "detector.checkpoint.bytes",
}


class NullTracer:
    """Stands in for the tracer in untraced runs: costs nothing."""

    n_spans = 0

    @contextlib.contextmanager
    def paused(self):
        yield

    def next_run(self) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.run = array("i")
        self.stack: list[int] = []
        self.on = True
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self.missing: dict[str, list[str]] = {}

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def next_run(self) -> None:
        self.run_id += 1

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (oracle reads, reference runs) record no spans."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, span: str):
        name_id = self.names.index(span)
        counter = RESULT_COUNTERS.get(span)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[counter] = self.counts.get(counter, 0) + len(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every resolvable target; record the ones that no longer exist."""
        for span, targets in TARGETS.items():
            self.names.append(span)
            for target in targets:
                if not self._install_one(span, target):
                    self.missing.setdefault(span, []).append(target)

    def _install_one(self, span: str, target: str) -> bool:
        mod_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(mod_name)
        except ImportError:
            return False
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        try:
            current = inspect.getattr_static(owner, attr)
        except AttributeError:
            return False
        if isinstance(current, property):
            setattr(owner, attr, property(self._wrap(current.fget, span)))
        elif callable(current):
            setattr(owner, attr, self._wrap(getattr(owner, attr), span))
        else:
            return False
        return True

    # -- results ---------------------------------------------------------
    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        n = self.n_spans
        out = {}
        if n == 0:
            return {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=self_time, minlength=k)
        for i, span in enumerate(self.names):
            out[span] = {"calls": int(calls[i]), "s": float(incl[i]),
                         "self_s": float(excl[i])}
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            run=np.frombuffer(self.run, dtype=np.int32))
