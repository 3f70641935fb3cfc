"""Command-line surface: detect, simulate, calibrate, verify.

README's Command line section documents the flags, config keys, input
formats, outputs and exit codes.  Three rules shape the code below:

* a flag or config key that the chosen subcommand and model do not read
  is a usage error naming it, raised before any file is opened
  (``_Inputs.refuse_unread``);
* ``detect`` runs a step once the next step's first row is read, so a bad
  row at the start of step t stops the run with t-2 as its last completed
  step, and one later in step t with t-1;
* every output file is replaced whole through ``<path>.tmp`` and a rename
  (``write_atomic``), so a failed write leaves the previous file intact.
  The checkpoint is saved after every selection, and a failed ``detect``
  still writes its ``--report`` of the steps it completed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import math
import operator
import os
import sys

import numpy as np

from . import calibrate as calibrate_mod
from . import simulate as simulate_mod
from .detector import (CheckpointError, TableExhaustedError, _backend_spec, check_kind,
                       checkpoint_state, make_detector, restore_state, write_atomic)
from .model import (BernoulliPair, GaussianShift, GeometricPrior, IIDModel, LogLRError,
                    PartialDepModel, TabularModel, check_prior_table)
from .posterior import PooledLogLRError
from .verify import SUITES


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# inputs: flags over config keys, each one read or refused
# ---------------------------------------------------------------------------

class _Inputs:
    """A subcommand's flags over its ``[model]`` and own config sections.
    Each read crosses a given key off (``flag`` reads a flag-only input and
    leaves its config key given), so ``refuse_unread`` names the rest."""

    def __init__(self, args, command: str):
        self.args, self.command = args, command
        self.cfg: dict[str, str] = {}
        self.unread: dict[str, None] = {}  # "--key" or "[section] key", in the order given
        if args.config is not None:
            parser = configparser.ConfigParser()
            if not parser.read(args.config):
                raise UsageError(f"config file not found: {args.config}")
            for sec in ("model", command):  # the subcommand's section wins
                if parser.has_section(sec):
                    self.cfg.update(parser.items(sec))
                    self.unread.update(dict.fromkeys(f"[{sec}] {key}" for key in parser[sec]))
        self.unread.update(dict.fromkeys(
            f"--{key}" for key, val in vars(args).items()
            if val is not None and key not in ("command", "func", "config")))

    def get(self, key: str, cast=str, default=None):
        for label in (f"--{key}", f"[model] {key}", f"[{self.command}] {key}"):
            self.unread.pop(label, None)
        val = getattr(self.args, key, None)
        if val is None:
            val = self.cfg.get(key)
        if val is None:
            return default
        try:
            return cast(val)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for {key}: {val!r} ({exc})") from exc

    def flag(self, key: str):
        self.unread.pop(f"--{key}", None)
        return getattr(self.args, key)

    def refuse_unread(self) -> None:
        if self.unread:
            raise UsageError(f"{self.command} does not use {', '.join(self.unread)} "
                             f"with this model and settings")


def _build_obs(mu, sigma, p0, p1):
    if (mu is not None or sigma is not None) and (p0 is not None or p1 is not None):
        raise UsageError("give either mu/sigma (gaussian) or p0/p1 (bernoulli), not both")
    if mu is not None:
        return GaussianShift(mu=mu, sigma=1.0 if sigma is None else sigma)
    if p0 is not None and p1 is not None:
        return BernoulliPair(p0=p0, p1=p1)
    raise UsageError("observation model missing: set mu (gaussian) or p0 and p1")


def _prior_row(text: str) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """One ``prior.<stream>`` row: comma-separated ``m:p`` cells, mass p at time m."""
    cells = [cell.split(":") for cell in text.split(",")]
    if any(len(cell) != 2 for cell in cells):
        raise ValueError("each cell must be <change time>:<mass>")
    support, masses = tuple(int(m) for m, _ in cells), tuple(float(p) for _, p in cells)
    check_prior_table(support, masses)
    return support, masses


def _prior_rows(inp: _Inputs) -> tuple[tuple, tuple]:
    """The ``prior.<stream>`` rows of the config file, in stream order."""
    keys: dict[int, str] = {}
    for key in (key for key in inp.cfg if key.startswith("prior.")):
        try:
            stream = int(key.split(".", 1)[1])
        except ValueError:
            raise UsageError(f"bad config key {key}: prior.<stream> needs an integer "
                             f"stream number") from None
        if stream in keys:
            raise UsageError(f"{keys[stream]} and {key} both give stream {stream}'s prior")
        keys[stream] = key
    rows = [inp.get(keys[stream], _prior_row) for stream in sorted(keys)]
    return tuple(sup for sup, _ in rows), tuple(mas for _, mas in rows)


def _build_model(inp: _Inputs):
    """Read the model keys, then, as every subcommand's last read, refuse each
    key given but not read, and only then build the model: a stray key is
    named before a missing one, and before any file is opened."""
    kind = inp.get("model", str, "iid").lower()
    if kind not in ("iid", "partial", "tabular"):
        raise UsageError(f"bad value for model: {kind!r} (iid | partial | tabular)")
    theta = None if kind == "tabular" else inp.get("theta", float)
    eta = inp.get("eta", float, 1.0) if kind == "partial" else None
    supports, masses = _prior_rows(inp) if kind == "tabular" else ((), ())
    obs = [inp.get(key, float) for key in ("mu", "sigma", "p0", "p1")]
    inp.refuse_unread()
    if kind == "tabular" and not supports:
        raise UsageError("tabular model needs prior.<stream> rows in the config file")
    if kind != "tabular" and theta is None:
        raise UsageError(f"{kind} model needs theta")
    obs = _build_obs(*obs)
    if kind == "iid":
        return IIDModel(GeometricPrior(theta), obs)
    if kind == "partial":
        return PartialDepModel(GeometricPrior(theta), eta, obs)
    return TabularModel(supports=supports, masses=masses, obs=obs)


# ---------------------------------------------------------------------------
# observation ingestion
# ---------------------------------------------------------------------------
# A chunk is (t, ids, x, rows): int64 times and stream ids, float64 values
# and the source row of each observation, in file order.

_scan = json.JSONDecoder().scan_once  # json.loads(s) is _scan(s, 0) ending at len(s)
_fields = operator.itemgetter("t", "stream", "x")


def _int64(value: int, row_no: int) -> int:
    if -2**63 <= value < 2**63:
        return value
    raise DataError(f"row {row_no}: {value} does not fit in int64")


def _non_finite(row_no: int, x: float, sid: int, t: int) -> DataError:
    return DataError(f"row {row_no}: non-finite observation {float(x)!r} "
                     f"for stream {sid} at t={t}")


def _ndjson_row(line: str, row_no: int) -> tuple[int, int, float]:
    try:
        try:
            rec, end = _scan(line, 0)
        except (StopIteration, ValueError):
            end = None
        if end != len(line):  # refused: raise json.loads's own message
            rec = json.loads(line)
        t, sid, x = rec["t"], rec["stream"], rec["x"]
        # JSON numbers only, never truncated: 2.9, true and "2" are refused
        if type(t) is not int or type(sid) is not int or type(x) not in (int, float):
            raise TypeError("t and stream must be JSON integers and x a JSON "
                            f"number, got t={t!r}, stream={sid!r}, x={x!r}")
        x = float(x)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise DataError(f"row {row_no}: bad NDJSON record ({exc})") from exc
    return _int64(t, row_no), _int64(sid, row_no), x


def _long_row(line: str, row_no: int) -> tuple[int, int, float]:
    parts = line.split(",")
    if len(parts) != 3:
        raise DataError(f"row {row_no}: expected t,stream,x")
    try:
        t, sid, x = int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise DataError(f"row {row_no}: {exc}") from exc
    return _int64(t, row_no), _int64(sid, row_no), x


def _ndjson_columns(lines):
    """The t, stream and x columns of stripped lines, each read as
    ``_ndjson_row`` reads it; raises wherever that would refuse a line.  Lines
    are decoded 128 at a time, so that their records are freed before the
    cyclic garbage collector has to trace them."""
    t, sid, x = [], [], []
    for i in range(0, len(lines), 128):
        recs, ends = zip(*[_scan(line, 0) for line in lines[i:i + 128]])
        if ends != tuple(map(len, lines[i:i + 128])):
            raise ValueError("extra data after a record")
        for col, values in zip((t, sid, x), zip(*map(_fields, recs))):
            col += values
    if {*map(type, t), *map(type, sid)} != {int} or not {*map(type, x)} <= {int, float}:
        raise TypeError("t and stream must be JSON integers and x a JSON number")
    return t, sid, x  # numpy reads an int x as float(x) does


def _long_columns(lines):
    """The t, stream and x columns of stripped lines, each read as
    ``_long_row`` reads it; raises wherever that would refuse a line."""
    if {*map(str.count, lines, itertools.repeat(","))} != {2}:
        raise ValueError("expected t,stream,x")
    cells = ",".join(lines).split(",")
    return map(int, cells[0::3]), map(int, cells[1::3]), map(float, cells[2::3])


def _line_chunks(lines, row_no: int, parse_row):
    """Chunks of lines read one at a time, each ending at the first row of a
    new step, so that the step before can run as soon as that row arrives.  A
    bad line raises ``parse_row``'s message after the rows before it."""
    held = []
    for row_no, line in enumerate(lines, row_no):
        if line := line.strip():
            try:
                held.append((*parse_row(line, row_no), row_no))
            except DataError:
                if held:
                    yield tuple(map(np.array, zip(*held)))
                raise
            if held[-1][0] != held[0][0]:
                yield tuple(map(np.array, zip(*held)))
                held = []
    if held:
        yield tuple(map(np.array, zip(*held)))


def _block_chunks(lines, row_no: int, parse_row, columns):
    """Chunks of 4096 lines; one that ``columns`` refuses is read again by
    ``_line_chunks``, so that its first bad line names itself."""
    while block := list(itertools.islice(lines, 4096)):
        rows = np.arange(row_no, row_no + len(block))
        kept = list(map(str.strip, block))
        if "" in kept:  # a blank line keeps its row number but holds no observation
            rows = rows[[bool(line) for line in kept]]
            kept = [line for line in kept if line]
        try:
            t, sid, x = [np.fromiter(col, dtype, len(kept)) for col, dtype in
                         zip(columns(kept), (np.int64, np.int64, np.float64))]
        except (KeyError, TypeError, ValueError, OverflowError, StopIteration):
            yield from _line_chunks(block, row_no, parse_row)
        else:
            yield t, sid, x, rows
        row_no += len(block)


def _wide_chunks(fh, header: list[str]):
    """A chunk per line of wide CSV; a blank cell holds no observation."""
    if header[0] != "t" or len(header) < 2:
        raise DataError("unrecognized input header; expected NDJSON, "
                        "'t,stream,x', or wide 't,<id>,...'")
    ids = []
    for h in header[1:]:
        try:
            ids.append(_int64(int(h), 1))
        except ValueError as exc:
            raise DataError(f"bad stream id {h!r} in wide header") from exc
    ids = np.array(ids, np.int64)
    for row_no, line in enumerate(fh, 2):
        if not (line := line.strip()):
            continue
        parts = line.split(",")
        if len(parts) != ids.size + 1:
            raise DataError(f"row {row_no}: expected {ids.size + 1} columns")
        try:
            t, sid, cells = _int64(int(parts[0]), row_no), ids, parts[1:]
            if "" in cells:
                sid, cells = ids[[bool(cell) for cell in cells]], [c for c in cells if c]
            # float() per cell, so that each reads exactly as float(cell) does
            x = np.fromiter(map(float, cells), np.float64, len(cells))
        except ValueError as exc:
            raise DataError(f"row {row_no}: {exc}") from exc
        # a wide row is its step's first row: refused here, before the step
        # before it runs, as a cell that is not a number is
        finite = np.isfinite(x)
        if not finite.all():
            i = finite.argmin()  # the first non-finite cell
            raise _non_finite(row_no, x[i], sid[i], t)
        if x.size:
            yield np.full(x.size, t), sid, x, np.full(x.size, row_no)


def _chunks(path: str):
    """Observation chunks of NDJSON, long CSV or wide CSV; none of an empty
    input."""
    fh = sys.stdin if path == "-" else open(path)
    try:
        first = fh.readline()
        if not first:
            return
        header = [h.strip() for h in first.strip().split(",")]
        if first.lstrip().startswith("{"):
            form = itertools.chain([first], fh), 1, _ndjson_row, _ndjson_columns
        elif header == ["t", "stream", "x"]:
            form = fh, 2, _long_row, _long_columns
        else:
            yield from _wide_chunks(fh, header)
            return
        # stdin goes a line at a time: a step runs once the next one's first row arrives
        yield from _line_chunks(*form[:3]) if fh is sys.stdin else _block_chunks(*form)
    finally:
        if fh is not sys.stdin:
            fh.close()


def _steps(chunks):
    """Yield (t, ids, x, rows) per time step, with the row checks: a value not
    finite, a time out of order, a stream repeated within a step.  A step is
    yielded once the next step's first row has passed them, and faults are
    raised in file order."""
    t_now, held = None, []

    def step():
        sid, x, rows = map(np.concatenate, zip(*held))
        held.clear()
        if np.any(np.diff(np.sort(sid)) == 0):
            order = np.argsort(sid, kind="stable")
            i = order[1:][np.diff(sid[order]) == 0].min()  # the first repeat in the file
            raise DataError(f"row {rows[i]}: duplicate observation for stream {sid[i]} "
                            f"at t={t_now}")
        return t_now, sid, x, rows

    try:
        for t, sid, x, rows in chunks:
            t_now = int(t[0]) if t_now is None else t_now
            prev = np.concatenate(([t_now], t[:-1]))
            bad = np.flatnonzero(~np.isfinite(x) | (t < prev))
            end, cut = bad[0] if bad.size else t.size, 0
            for s in np.flatnonzero(t[:end] != prev[:end]).tolist():
                held.append((sid[cut:s], x[cut:s], rows[cut:s]))
                yield step()
                t_now, cut = int(t[s]), s
            held.append((sid[cut:end], x[cut:end], rows[cut:end]))
            if end < t.size and not np.isfinite(x[end]):
                raise _non_finite(rows[end], x[end], sid[end], t[end])
            if end < t.size:
                raise DataError(f"row {rows[end]}: input not sorted by time "
                                f"({t[end]} after {prev[end]})")
    except DataError:
        if held:  # a stream repeated before the fault is the first fault
            step()
        raise
    if held:
        yield step()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _read_table(path: str | None, what: str):
    """The ``--table`` file of a threshold ``what``; a malformed one is bad data."""
    if path is None:
        raise UsageError(f"threshold {what} needs --table")
    try:
        return calibrate_mod.read_threshold_table(path)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _cmd_detect(args) -> int:
    inp = _Inputs(args, "detect")
    source, out, report, ckpt = map(inp.flag, ("input", "out", "report", "checkpoint"))
    alpha = inp.get("alpha", float)
    mode = inp.get("mode", str, "adaptive")
    table_path = inp.get("table") if mode == "threshold" else None
    model = _build_model(inp)
    # before the input is read; main() reports its ValueError as a usage error
    check_kind(mode)
    if alpha is None:
        raise UsageError("detect needs alpha")
    table = _read_table(table_path, "mode") if mode == "threshold" else None
    # the flags are checked, against the checkpoint on a resume, before the
    # input is opened
    resume = ckpt and os.path.exists(ckpt)
    if resume:
        # newline="" keeps a stray carriage return, and surrogateescape a
        # byte that is not UTF-8, in the text that is hashed
        with open(ckpt, newline="", errors="surrogateescape") as fh:
            det = restore_state(fh.read(), model, table=table)
        if det.ids is None:
            raise CheckpointError("the checkpoint holds no external stream ids")
        for key, given, saved in (("alpha", alpha, det.alpha), ("mode", mode, det.kind)):
            if given != saved:
                raise UsageError(f"checkpoint was written with {key}={saved!r}, "
                                 f"refusing to resume with {key}={given!r}")
    else:  # k is a tabular model's own count, any other's 1
        _backend_spec(mode, model, getattr(model, "n_streams", 1))
        if table is not None:
            table.check_compatible(model, alpha)

    steps = _steps(_chunks(source))
    first = next(steps, None)
    if first is None and not resume:
        raise DataError("no observations")

    discarded = 0
    if not resume:
        first_t, first_ids, _, first_rows = first
        if first_t != 1:
            raise DataError(f"row {first_rows[0]}: input must start at t=1, got t={first_t}")
        if isinstance(model, TabularModel) and len(first_ids) != model.n_streams:
            raise DataError(f"row {first_rows[0]}: stream count mismatch: {len(first_ids)} "
                            f"streams at t=1 vs {model.n_streams} prior.<stream> rows")
        det = make_detector(mode, model, alpha, len(first_ids), table)
        det.ids = np.sort(first_ids)
    universe, ids = det.ids, det.ids.tolist()
    report_rows = []

    def process(t, sid, x, rows):
        nonlocal discarded
        expected = det.t + 1
        if t != expected:
            raise DataError(f"row {rows[0]}: time gap, expected t={expected}, got t={t}")
        order = np.argsort(sid)  # sorted needles make searchsorted several times faster
        sid, x = sid[order], x[order]
        pos = np.searchsorted(universe, sid)
        unknown = sid[universe.take(pos, mode="clip") != sid]
        if unknown.size:
            raise DataError(f"row {rows[0]}: unknown stream id(s) {unknown.tolist()}")
        # values are finite, so NaN marks an active stream with no observation
        x_all = np.full(det.k, np.nan)
        x_all[pos] = x
        x_active = x_all[det.active]
        missing = det.active[np.isnan(x_active)]
        if missing.size:
            raise DataError(f"row {rows[0]}: missing observation for active "
                            f"stream(s) {universe[missing].tolist()} at t={t}")
        discarded += sid.size - det.n_active
        try:
            det.observe(x_active)
        except LogLRError as exc:
            j = pos.searchsorted(det.active[exc.index])  # sid (and pos) are sorted
            raise DataError(f"row {rows[order[j]]}: observation {float(x[j])!r} for stream "
                            f"{sid[j]} at t={t} overflows its log likelihood ratio") from None
        except PooledLogLRError:
            raise DataError(f"row {rows[0]}: the observations at t={t} overflow their "
                            "pooled log likelihood ratio") from None
        if report:  # the range of the posteriors the selection reads
            w_active = det.w_active
            w_min, w_max = ((float(w_active.min()), float(w_active.max()))
                            if w_active.size else (math.nan, math.nan))
        det.deactivate()
        if report:
            step = det.last
            report_rows.append(f"{step.t},{step.n_active},{step.lfnr!r},{w_min!r},"
                               f"{w_max!r},{' '.join(str(ids[i]) for i in step.dropped)}\n")
        if ckpt:
            write_atomic(ckpt, checkpoint_state(det))

    def header(t_final):
        return (f"# mode={det.kind} alpha={det.alpha!r} k={det.k} t_final={t_final}\n"
                f"# model={model.fingerprint()}\n")

    try:
        # a resume with no rows after the checkpoint's t only writes --out
        for obs in itertools.chain([] if first is None else [first], steps):
            process(*obs)
    finally:
        # a failed run still reports the steps it completed, as a clean run
        # over exactly those steps would; a restored detector has no record yet
        if report and det.last is not None:
            write_atomic(report, "".join([header(det.last.t),
                                           "t,n_active,lfnr,w_min,w_max,dropped\n",
                                           *report_rows]))

    trace = det.trace()
    rows = [f"{sid},{trace.t_final},1\n" if stopped < 0 else f"{sid},{stopped},0\n"
            for sid, stopped in zip(ids, trace.t_stop.tolist())]
    write_atomic(out, "".join([header(det.t), "stream,t_stop,censored\n", *rows]))
    if discarded:
        print(f"note: discarded {discarded} observation(s) for deactivated streams",
              file=sys.stderr)
    print(f"detect: processed t=1..{det.t}, {det.n_active}/{det.k} streams "
          f"still active")
    return 0


def _cmd_simulate(args) -> int:
    inp = _Inputs(args, "simulate")
    out, threads = inp.flag("out"), inp.flag("threads")
    k = inp.get("k", int)
    alpha = inp.get("alpha", float)
    horizon = inp.get("horizon", int)
    reps = inp.get("reps", int)
    seed = inp.get("seed", int, 0)
    procedure = inp.get("procedure", str, "adaptive")
    table_path = inp.get("table") if procedure == "threshold" else None
    model = _build_model(inp)
    if None in (k, alpha, horizon, reps):
        raise UsageError("simulate needs k, alpha, horizon, and reps")
    table = _read_table(table_path, "procedure") if procedure == "threshold" else None
    # a bad setting raises ValueError, which main() reports as a usage error
    frame = simulate_mod.run_experiment(simulate_mod.SimConfig(
        model=model, k=k, alpha=alpha, horizon=horizon, replications=reps,
        procedure=procedure, seed=seed, table=table, threads=threads))
    simulate_mod.write_metrics_csv(frame, out, metadata={
        "model": model.fingerprint(),
        "k": k, "alpha": repr(alpha), "horizon": horizon,
        "procedure": procedure, "seed": seed,
    })
    print(f"simulate: wrote {out} ({reps} replications, horizon {horizon})")
    return 0


def _cmd_calibrate(args) -> int:
    inp = _Inputs(args, "calibrate")
    out = inp.flag("out")
    alpha = inp.get("alpha", float)
    n = inp.get("n", int)
    horizon = inp.get("horizon", int)
    seed = inp.get("seed", int, 0)
    model = _build_model(inp)
    if not isinstance(model, IIDModel):
        raise UsageError("calibrate needs an iid model")
    if None in (alpha, n, horizon):
        raise UsageError("calibrate needs alpha, n, and horizon")
    if n < 1000:
        raise UsageError(f"n={n} is below the calibration floor of 1000 streams")
    table = calibrate_mod.calibrate_thresholds(model.prior.theta, model.obs, alpha, n,
                                               horizon, seed)
    calibrate_mod.write_threshold_table(table, out)
    print(f"calibrate: wrote {out} (n={n}, horizon {horizon})")
    return 0


def _cmd_verify(args) -> int:
    name = {"example3": "counterexample"}.get(args.suite, args.suite)
    names = list(SUITES) if name == "all" else [name]
    if not SUITES.keys() >= set(names):
        raise UsageError(f"unknown suite {args.suite!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    failures = 0
    for suite in names:
        ok, detail = SUITES[suite](args.trials, rng)
        print(f"{'PASS' if ok else 'FAIL'} {suite} {detail}")
        failures += not ok
    return 3 if failures else 0


# ---------------------------------------------------------------------------

def _add_model_flags(sub) -> None:
    sub.add_argument("--model", help="iid | partial | tabular")
    sub.add_argument("--theta", help="geometric change-rate parameter")
    sub.add_argument("--eta", help="per-stream change probability (partial model)")
    sub.add_argument("--mu", help="post-change mean (gaussian observations)")
    sub.add_argument("--sigma", help="common standard deviation (gaussian)")
    sub.add_argument("--p0", help="pre-change success probability (bernoulli)")
    sub.add_argument("--p1", help="post-change success probability (bernoulli)")


def build_parser() -> _Parser:
    parser = _Parser(prog="streamgate",
                     description="compound sequential change detection "
                                 "with local FNR control")
    subs = parser.add_subparsers(dest="command", required=True)

    det = subs.add_parser("detect", help="run a detector over observation rows")
    det.add_argument("--config", "-c")
    det.add_argument("--input", "-i", required=True, help="file or - for stdin")
    det.add_argument("--out", "-o", required=True, help="stopping-time table CSV")
    det.add_argument("--report", help="per-step report CSV")
    det.add_argument("--checkpoint",
                     help="resume from / save to this path after every selection")
    det.add_argument("--alpha")
    det.add_argument("--mode", help="adaptive | threshold | dependent")
    det.add_argument("--table", help="threshold table CSV (threshold mode)")
    _add_model_flags(det)
    det.set_defaults(func=_cmd_detect)

    sim = subs.add_parser("simulate", help="replication study, metrics CSV out")
    sim.add_argument("--config", "-c")
    sim.add_argument("--out", "-o", required=True)
    sim.add_argument("--k")
    sim.add_argument("--alpha")
    sim.add_argument("--horizon")
    sim.add_argument("--reps")
    sim.add_argument("--seed")
    sim.add_argument("--procedure", help="adaptive | threshold | dependent")
    sim.add_argument("--table", help="threshold table CSV (threshold procedure)")
    sim.add_argument("--threads", type=int, default=1)
    _add_model_flags(sim)
    sim.set_defaults(func=_cmd_simulate)

    cal = subs.add_parser("calibrate", help="estimate the threshold table")
    cal.add_argument("--config", "-c")
    cal.add_argument("--out", "-o", required=True)
    cal.add_argument("--alpha")
    cal.add_argument("--n", help="simulated streams (>= 1000)")
    cal.add_argument("--horizon")
    cal.add_argument("--seed")
    _add_model_flags(cal)
    cal.set_defaults(func=_cmd_calibrate)

    ver = subs.add_parser("verify", help="run oracle suites")
    ver.add_argument("suite", nargs="?", default="all",
                     help="posterior | selection | ordering | counterexample "
                          "| optimality | all")
    ver.add_argument("--trials", type=int, default=200,
                     help="trials (>= 1) of each randomized suite (posterior, selection, ordering)")
    ver.add_argument("--seed", type=int, default=0,
                     help="seed of the randomized suites (posterior, selection, ordering)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # before the ValueError base of CheckpointError
    except (DataError, OSError, CheckpointError, TableExhaustedError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, TypeError, configparser.Error) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
