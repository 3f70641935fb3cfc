import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import streamgate.cli as cli
from streamgate.cli import main
from streamgate.calibrate import read_threshold_table
from streamgate.detector import (AdaptiveDetector, CheckpointError, checkpoint_state,
                                 restore_state)
from streamgate.model import (GaussianShift, GeometricPrior, IIDModel, PartialDepModel,
                              TabularModel)
from test_detector import _format2_blob, _pack, _payload, _resigned, _unpack

ROOT = Path(__file__).resolve().parents[1]


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_ndjson(path, rows):
    with open(path, "w") as fh:
        for t, sid, x in rows:
            fh.write(json.dumps({"t": t, "stream": sid, "x": x}) + "\n")


def _jump_rows(horizon=12, k=4, jumped=2):
    # the jumped stream shifts up hard; the rest lean mildly negative so
    # their posteriors stay pinned near zero whatever the noise does
    rng = np.random.default_rng(0)
    rows = []
    for t in range(1, horizon + 1):
        for sid in range(1, k + 1):
            x = rng.normal() + (3.0 if sid == jumped else -0.3)
            rows.append((t, sid, float(x)))
    return rows


def test_detect_flags_jumped_stream(tmp_path, capsys):
    # small theta keeps unchanged streams' posteriors under the budget
    # through the horizon, so only the shifted stream is deactivated
    data = tmp_path / "obs.ndjson"
    _write_ndjson(data, _jump_rows())
    out = tmp_path / "tk.csv"
    report = tmp_path / "steps.csv"
    code, _, _ = _run(capsys, "detect", "--input", str(data), "--out", str(out),
                      "--report", str(report), "--model", "iid",
                      "--theta", "0.01", "--mu", "1.0", "--alpha", "0.15")
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    table = {int(r.split(",")[0]): r.split(",")[1:] for r in lines[1:]}
    assert table[2][1] == "0"          # the jumped stream was deactivated
    assert int(table[2][0]) < 12
    for sid in (1, 3, 4):
        assert table[sid][1] == "1"    # others censored at the horizon
    assert report.read_text().splitlines()[2].startswith("t,")


def test_detect_empty_input(tmp_path, capsys):
    data = tmp_path / "empty.ndjson"
    data.write_text("")
    code, _, err = _run(capsys, "detect", "--input", str(data),
                        "--out", str(tmp_path / "o.csv"), "--model", "iid",
                        "--theta", "0.05", "--mu", "1.0", "--alpha", "0.05")
    assert code == 2
    assert "no observations" in err


def test_detect_unsorted_and_gappy_input(tmp_path, capsys):
    base = ["--model", "iid", "--theta", "0.05", "--mu", "1.0",
            "--alpha", "0.05", "--out", str(tmp_path / "o.csv")]
    bad = tmp_path / "unsorted.csv"
    bad.write_text("t,stream,x\n2,1,0.1\n1,1,0.2\n")
    code, _, err = _run(capsys, "detect", "--input", str(bad), *base)
    assert code == 2 and "not sorted" in err and "row 3" in err

    gappy = tmp_path / "gappy.csv"
    gappy.write_text("t,stream,x\n1,1,0.1\n3,1,0.2\n")
    code, _, err = _run(capsys, "detect", "--input", str(gappy), *base)
    assert code == 2 and "time gap" in err

    unknown = tmp_path / "unknown.csv"
    unknown.write_text("t,stream,x\n1,1,0.1\n2,1,0.2\n2,9,0.3\n")
    code, _, err = _run(capsys, "detect", "--input", str(unknown), *base)
    assert code == 2 and "unknown stream" in err

    missing = tmp_path / "missing.csv"
    missing.write_text("t,stream,x\n1,1,0.1\n1,2,0.0\n2,1,0.2\n")
    code, _, err = _run(capsys, "detect", "--input", str(missing), *base)
    assert code == 2 and "missing observation" in err


def test_detect_wide_csv(tmp_path, capsys):
    wide = tmp_path / "wide.csv"
    rng = np.random.default_rng(1)
    lines = ["t,1,2,3"]
    for t in range(1, 9):
        vals = rng.normal(size=3)
        lines.append(f"{t}," + ",".join(f"{v:.4f}" for v in vals))
    wide.write_text("\n".join(lines) + "\n")
    code, _, _ = _run(capsys, "detect", "--input", str(wide),
                      "--out", str(tmp_path / "o.csv"), "--model", "iid",
                      "--theta", "0.05", "--mu", "1.0", "--alpha", "0.05")
    assert code == 0


_IID_ALPHA = "--model iid --theta 0.05 --mu 1.0 --alpha 0.05".split()


@pytest.mark.parametrize("text, where", [
    ("t,1,2\n1,0.1,0.2\n2,0.1,abc\n", "row 3"),   # a bad observation cell
    ("t,1,2\n1,0.1,0.2\nx,0.1,0.2\n", "row 3"),   # a bad time cell
    ("s,1,2\n1,0.1,0.2\n", "unrecognized input header; expected NDJSON"),
    ("t,1,a\n1,0.1,0.2\n", "bad stream id 'a' in wide header"),
    ('\n{"t": 1, "stream": 1, "x": 0.1}\n', "unrecognized input header; expected NDJSON"),
], ids=["value", "time", "header-without-t", "header-id", "blank-first-line"])
def test_detect_bad_wide_csv_cell_is_a_data_error(tmp_path, capsys, text, where):
    data = tmp_path / "wide.csv"
    data.write_text(text)
    code, _, err = _run(capsys, "detect", "--input", str(data),
                        "--out", str(tmp_path / "o.csv"), *_IID_ALPHA)
    assert code == 2 and "data error" in err and where in err


@pytest.mark.parametrize("name, text", [
    ("obs.ndjson", '{"t": 1, "stream": 1, "x": 0.1}\n{"t": 1, "stream": 7, "x": 0.2}\n'
                   '{"t": 2, "stream": 1, "x": 0.1}\n{"t": 2, "stream": 7, "x": NaN}\n'),
    ("long.csv", "t,stream,x\n1,1,0.1\n1,7,0.2\n2,7,nan\n2,1,0.1\n"),
    ("wide.csv", "t,1,9,7\n1,0.1,0.3,0.2\n\n2,0.1,,inf\n"),
], ids=["ndjson", "long-csv", "wide-csv"])
def test_detect_non_finite_observation_is_a_data_error(tmp_path, capsys, name, text):
    data = tmp_path / name
    data.write_text(text)
    code, _, err = _run(capsys, "detect", "--input", str(data),
                        "--out", str(tmp_path / "o.csv"), *_IID_ALPHA)
    assert code == 2 and "non-finite" in err
    assert "row 4" in err and "stream 7" in err


@pytest.mark.parametrize("bad", [
    '"t": 2.9, "stream": 1, "x": 0.1', '"t": 2, "stream": 1.7, "x": 0.1',
    '"t": 2, "stream": true, "x": 0.1', '"t": "2", "stream": 1, "x": 0.1',
    '"t": 2, "stream": "1", "x": 0.1', '"t": 2, "stream": 1, "x": true',
    '"t": 2, "stream": 1, "x": "0.1"',
], ids=["float-t", "float-stream", "bool-stream", "string-t", "string-stream",
        "bool-x", "string-x"])
def test_detect_ndjson_ids_and_times_must_be_json_integers(tmp_path, capsys, bad):
    # each would otherwise be coerced to the valid row t=2, stream 1, x=0.1 or 1
    data = tmp_path / "obs.ndjson"
    data.write_text('{"t": 1, "stream": 1, "x": 0.1}\n{"t": 1, "stream": 2, "x": 0.2}\n'
                    '{"t": 2, "stream": 2, "x": 0.1}\n{' + bad + '}\n')
    code, _, err = _run(capsys, "detect", "--input", str(data),
                        "--out", str(tmp_path / "o.csv"), *_IID_ALPHA)
    assert code == 2 and "data error" in err and "row 4" in err


def test_detect_threshold_table_past_its_horizon_is_a_data_error(tmp_path, capsys):
    table = tmp_path / "table.csv"
    code, _, _ = _run(capsys, "calibrate", "--theta", "0.05", "--alpha", "0.05",
                      "--mu", "1.0", "--n", "1000", "--horizon", "2", "--seed", "1",
                      "--out", str(table))
    assert code == 0
    data = tmp_path / "obs.ndjson"
    _write_ndjson(data, _jump_rows(horizon=3))
    code, _, err = _run(capsys, "detect", "--input", str(data),
                        "--out", str(tmp_path / "o.csv"), *_IID_ALPHA,
                        "--mode", "threshold", "--table", str(table),
                        "--report", str(tmp_path / "r3.csv"))
    assert code == 2
    assert "data error" in err and "t=1..2" in err and "t=3" in err
    # t=3 was observed but not selected: the report covers t=1..2 only
    _write_ndjson(data, _jump_rows(horizon=3)[:-4])
    assert _run(capsys, "detect", "--input", str(data), "--out", str(tmp_path / "o.csv"),
                *_IID_ALPHA, "--mode", "threshold", "--table", str(table),
                "--report", str(tmp_path / "r2.csv"))[0] == 0
    assert (tmp_path / "r3.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def _no_metadata(lines):
    return lines[1:]


def _short_row(lines):
    return lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:]


def _bad_cell(lines):
    t, _, rest = lines[4].split(",", 2)
    return lines[:4] + [f"{t},abc,{rest}"] + lines[5:]


def _unordered(lines):
    return lines[:4] + [lines[5], lines[4]]


@pytest.mark.parametrize("spoil, where", [
    (_no_metadata, "'theta' is missing"), (_short_row, "row 5: expected 4 cells"),
    (_bad_cell, "row 5: could not convert"), (_unordered, "row 5: expected t=2, got t=3"),
], ids=["no-metadata", "short-row", "bad-cell", "unordered"])
def test_malformed_threshold_table_is_a_data_error(tmp_path, capsys, spoil, where):
    table = tmp_path / "table.csv"
    assert _run(capsys, "calibrate", "--theta", "0.05", "--alpha", "0.05", "--mu", "1.0",
                "--n", "1000", "--horizon", "3", "--seed", "1", "--out", str(table))[0] == 0
    table.write_text("\n".join(spoil(table.read_text().splitlines())) + "\n")
    data = tmp_path / "obs.ndjson"
    _write_ndjson(data, _jump_rows(horizon=3))
    for argv in (["detect", "--input", str(data), "--mode", "threshold"],
                 ["simulate", "--k", "10", "--horizon", "3", "--reps", "2",
                  "--procedure", "threshold"]):
        code, _, err = _run(capsys, *argv, *_IID_ALPHA, "--table", str(table),
                            "--out", str(tmp_path / "o.csv"))
        assert code == 2 and "data error" in err
        assert f"{table}" in err and where in err


def test_detect_report_reads_lfnr_without_copying_the_trace(tmp_path, capsys,
                                                           monkeypatch):
    from streamgate.detector import _DetectorBase

    rows = _jump_rows(horizon=10, k=6)
    data = tmp_path / "obs.ndjson"
    _write_ndjson(data, rows)
    report = tmp_path / "steps.csv"
    trace = _DetectorBase.trace
    calls = []
    monkeypatch.setattr(_DetectorBase, "trace",
                        lambda self: calls.append(1) or trace(self))
    code, _, _ = _run(capsys, "detect", "--input", str(data), "--out",
                      str(tmp_path / "o.csv"), "--report", str(report), "--model",
                      "iid", "--theta", "0.05", "--mu", "1.0", "--alpha", "0.15")
    assert code == 0
    assert len(calls) == 1  # the stop table at the end, not one per step
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    det = AdaptiveDetector(model, 0.15, 6)
    x = np.asarray([r[2] for r in rows]).reshape(10, 6)
    for row in x:
        det.observe(row[det.active])
        det.deactivate()
    body = report.read_text().splitlines()[3:]
    assert [ln.split(",")[2] for ln in body] == [
        repr(v) for v in det.trace().realized_lfnr[1:].tolist()]


def test_detect_checkpoint_resume_matches_uninterrupted(tmp_path, capsys):
    rows = _jump_rows(horizon=14)
    base = ["--model", "iid", "--theta", "0.05", "--mu", "1.0",
            "--alpha", "0.05"]

    full_in = tmp_path / "full.ndjson"
    _write_ndjson(full_in, rows)
    full_out = tmp_path / "full.csv"
    code, _, _ = _run(capsys, "detect", "--input", str(full_in),
                      "--out", str(full_out), *base)
    assert code == 0

    first = [r for r in rows if r[0] <= 7]
    second = [r for r in rows if r[0] > 7]
    ck = tmp_path / "ck.json"
    part1 = tmp_path / "part1.ndjson"
    _write_ndjson(part1, first)
    code, _, _ = _run(capsys, "detect", "--input", str(part1),
                      "--out", str(tmp_path / "p1.csv"),
                      "--checkpoint", str(ck), *base)
    assert code == 0
    part2 = tmp_path / "part2.ndjson"
    _write_ndjson(part2, second)
    resumed_out = tmp_path / "resumed.csv"
    code, _, _ = _run(capsys, "detect", "--input", str(part2),
                      "--out", str(resumed_out), "--checkpoint", str(ck), *base)
    assert code == 0
    assert resumed_out.read_bytes() == full_out.read_bytes()


@pytest.mark.parametrize("empty", ["", "t,stream,x\n", "t,1,2,3,4\n"],
                         ids=["empty-file", "long-header", "wide-header"])
def test_detect_resume_with_no_rows_left_writes_the_out_file(tmp_path, capsys, empty):
    # a run stopped after its last checkpoint save but before --out is
    # finished on an input that holds no observation
    flags = ["--model", "iid", "--theta", "0.05", "--mu", "1.0"]
    full_in, ck = tmp_path / "full.ndjson", tmp_path / "ck.json"
    _write_ndjson(full_in, _jump_rows(horizon=14))
    full_out = tmp_path / "full.csv"
    code, _, _ = _run(capsys, "detect", "--input", str(full_in), "--out", str(full_out),
                      "--checkpoint", str(ck), *flags, "--alpha", "0.05")
    assert code == 0 and _saved_t(ck) == 14
    blob = ck.read_bytes()
    rest = tmp_path / "rest.csv"
    rest.write_text(empty)
    out = tmp_path / "resumed.csv"
    for alpha, mode, want in (("0.5", "adaptive", 1), ("0.05", "dependent", 1),
                              ("0.05", "adaptive", 0)):
        code, _, err = _run(capsys, "detect", "--input", str(rest), "--out", str(out),
                            "--checkpoint", str(ck), *flags, "--alpha", alpha,
                            "--mode", mode)
        assert code == want, err
    assert out.read_bytes() == full_out.read_bytes()
    assert ck.read_bytes() == blob


# (n, when, the checkpoint's t after the kill), fixed before the first run:
# a 12-step run makes write_atomic calls 1-12 for its checkpoint saves and
# call 13 for --out
_KILLS = [(1, "before", 0), (6, "after", 6), (12, "after", 12), (13, "during", 12)]


@pytest.mark.parametrize("n, when, saved", _KILLS, ids=[
    "before-the-first-save", "mid-run", "after-the-last-save", "during-the-out-write"])
def test_detect_killed_at_a_write_resumes_to_the_same_out(tmp_path, capsys, n, when, saved):
    # the process dies at its n-th file write (tests/kill_at_write.py); a
    # resume on the rows after the checkpoint's t writes the --out bytes of
    # a run that was never killed
    rows = _jump_rows(horizon=12)
    full_in, ck, out = tmp_path / "full.ndjson", tmp_path / "ck.json", tmp_path / "out.csv"
    _write_ndjson(full_in, rows)
    flags = [*_IID, "--alpha", "0.05"]
    whole = tmp_path / "whole"
    whole.mkdir()
    code, _, _ = _run(capsys, "detect", "--input", str(full_in), "--out", str(whole / "out.csv"),
                      "--checkpoint", str(whole / "ck.json"), *flags)
    assert code == 0 and _saved_t(whole / "ck.json") == 12
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"),
                                         *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "kill_at_write.py"), str(n),
                           when, "--", "detect", "--input", str(full_in), "--out", str(out),
                           "--checkpoint", str(ck), *flags],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 137, proc.stderr
    assert not out.exists() and (_saved_t(ck) if ck.exists() else 0) == saved
    rest = tmp_path / "rest.ndjson"
    _write_ndjson(rest, [row for row in rows if row[0] > saved])
    code, _, err = _run(capsys, "detect", "--input", str(rest), "--out", str(out),
                        "--checkpoint", str(ck), *flags)
    assert code == 0, err
    assert out.read_bytes() == (whole / "out.csv").read_bytes()
    assert not (tmp_path / "out.csv.tmp").exists()


def _checkpointed_half(tmp_path, capsys, *flags, ids=(1, 2, 3, 4)):
    """Run t=1..7 of four streams named ``ids`` with --checkpoint; return
    (checkpoint path, rest of the rows)."""
    rows = [(t, ids[sid - 1], x) for t, sid, x in _jump_rows(horizon=14)]
    part1 = tmp_path / "part1.ndjson"
    _write_ndjson(part1, [r for r in rows if r[0] <= 7])
    ck = tmp_path / "ck.json"
    code, _, _ = _run(capsys, "detect", "--input", str(part1),
                      "--out", str(tmp_path / "p1.csv"), "--checkpoint", str(ck),
                      *flags)
    assert code == 0
    part2 = tmp_path / "part2.ndjson"
    _write_ndjson(part2, [r for r in rows if r[0] > 7])
    return ck, part2


_IID = ["--model", "iid", "--theta", "0.05", "--mu", "1.0"]


def _saved_t(ck):
    return _payload(ck.read_text())["t"]


def test_detect_corrupt_checkpoint_is_a_data_error(tmp_path, capsys):
    ck, part2 = _checkpointed_half(tmp_path, capsys, *_IID, "--alpha", "0.05")
    text = ck.read_text()
    resume = ["detect", "--input", str(part2), "--out", str(tmp_path / "o.csv"),
              "--checkpoint", str(ck), *_IID, "--alpha", "0.05"]
    ck.write_text(text[: len(text) // 2])                      # truncated file
    code, _, err = _run(capsys, *resume)
    assert code == 2 and "data error" in err
    ck.write_text(text.replace('"t": 7', '"t": 8'))            # checksum breaks
    code, _, err = _run(capsys, *resume)
    assert code == 2 and "data error" in err and "checksum" in err


def _edit_state(ck, edit):
    """Apply ``edit`` to the checkpoint file's state, its hash recomputed."""
    payload = _payload(ck.read_text())
    edit(payload)
    ck.write_text(_resigned(payload))


def _resume_edited(tmp_path, capsys, edit):
    """Exit code and stderr of resuming a checkpoint whose state ``edit`` changed."""
    ck, part2 = _checkpointed_half(tmp_path, capsys, *_IID, "--alpha", "0.05")
    assert _payload(ck.read_text())["format_version"] == 4
    _edit_state(ck, edit)
    code, _, err = _run(capsys, "detect", "--input", str(part2),
                        "--out", str(tmp_path / "o.csv"), "--checkpoint", str(ck),
                        *_IID, "--alpha", "0.05")
    assert not (tmp_path / "o.csv").exists()
    return code, err


def test_detect_checkpoint_missing_a_field_is_a_data_error(tmp_path, capsys):
    # each header field, history array and the ids, dropped with a valid
    # hash: exit 2 naming it (a missing format_version is refused as version None)
    from streamgate.detector import _FIELDS

    for field in [*_FIELDS, "t_stop", "cutoff", "lfnr", "ids"]:
        run = tmp_path / field
        run.mkdir()
        code, err = _resume_edited(run, capsys, lambda state: (
            state if field in state else state["arrays"]).pop(field))
        named = "version None" if field == "format_version" else field
        assert code == 2 and "data error" in err and named in err


def test_detect_checkpoint_missing_its_arrays_is_a_data_error(tmp_path, capsys):
    code, err = _resume_edited(tmp_path, capsys, lambda state: state.pop("arrays"))
    assert code == 2 and "data error" in err and "arrays" in err


def test_detect_refuses_a_v1_checkpoint_file(tmp_path, capsys):
    # only format 4 is read; another version is a corrupt checkpoint, named
    code, err = _resume_edited(tmp_path, capsys,
                               lambda state: state.update(format_version=1))
    assert code == 2 and "data error" in err and "version 1" in err


def test_detect_checkpoint_with_an_out_of_range_alpha_is_a_data_error(tmp_path, capsys):
    # an alpha no detector accepts is a corrupt checkpoint, not a usage error
    code, err = _resume_edited(tmp_path, capsys,
                               lambda state: state.update(alpha=float.hex(1.5)))
    assert code == 2 and "data error" in err and "alpha" in err


@pytest.mark.parametrize("flags", [
    ["--mu", "1.0", "--sigma", "0"],
    ["--mu", "1.0", "--sigma", "-0.0"],
    ["--mu", "1.0", "--sigma", "1e-300"],
    ["--mu", "1.0", "--sigma", "1e200"],
    ["--p0", "0.3", "--p1", "0.6", "--sigma", "2.0"],
], ids=["zero", "negative-zero", "square-underflows", "square-overflows",
        "with-bernoulli"])
def test_detect_refuses_a_sigma_it_cannot_use(tmp_path, capsys, flags):
    # sigma defaults to 1 only when absent; it is never replaced or dropped
    data = tmp_path / "obs.ndjson"
    _write_ndjson(data, _jump_rows())
    code, _, err = _run(capsys, "detect", "--input", str(data),
                        "--out", str(tmp_path / "o.csv"), "--model", "iid",
                        "--theta", "0.05", "--alpha", "0.05", *flags)
    assert code == 1 and "usage error" in err and "sigma" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("entry", [
    _pack(np.array([1, 2, 2])),
    _pack(np.array([1, 2, 3.7])),
    {**_pack(np.array([1, 1, 3])), "dtype": "|b1"},
    _pack(np.array([1, 2])),
    _pack(np.array(123)),
    _pack(np.array([2, 1, 3])),
], ids=["repeat", "float", "bool", "count", "not-a-list", "unsorted"])
def test_detect_resume_refuses_bad_external_ids(tmp_path, capsys, entry):
    # ids edited inside the blob, its hash recomputed: restore_state refuses
    # all but one strictly increasing int64 per stream, and the file stays
    rows = _jump_rows(horizon=14, k=3)
    part1 = tmp_path / "part1.ndjson"
    _write_ndjson(part1, [r for r in rows if r[0] <= 7])
    ck = tmp_path / "ck.json"
    flags = ["--checkpoint", str(ck), *_IID, "--alpha", "0.05"]
    code, _, _ = _run(capsys, "detect", "--input", str(part1),
                      "--out", str(tmp_path / "p1.csv"), *flags)
    assert code == 0
    payload = _payload(ck.read_text())
    assert _unpack(payload["arrays"]["ids"]).tolist() == [1, 2, 3]
    payload["arrays"]["ids"] = entry
    text = _resigned(payload)
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    with pytest.raises(CheckpointError, match="ids"):
        restore_state(text, model)
    ck.write_text(text)
    part2 = tmp_path / "part2.ndjson"
    _write_ndjson(part2, [r for r in rows if r[0] > 7])
    code, _, err = _run(capsys, "detect", "--input", str(part2),
                        "--out", str(tmp_path / "o.csv"), *flags)
    assert code == 2 and err.startswith("data error: ") and "ids" in err
    assert ck.read_text() == text and not (tmp_path / "o.csv").exists()


def test_detect_resume_refuses_a_checkpoint_that_is_not_utf8(tmp_path, capsys):
    # a byte that is not text at all is a corrupt checkpoint too, not a usage error
    ck, part2 = _checkpointed_half(tmp_path, capsys, *_IID, "--alpha", "0.05")
    data = ck.read_bytes().replace(b'"t": 7', b'"t": \xff')
    ck.write_bytes(data)
    code, _, err = _run(capsys, "detect", "--input", str(part2), "--out",
                        str(tmp_path / "o.csv"), "--checkpoint", str(ck), *_IID, "--alpha", "0.05")
    assert code == 2 and err.startswith("data error: checkpoint is not ASCII text")
    assert ck.read_bytes() == data and not (tmp_path / "o.csv").exists()


def test_detect_resume_refuses_a_blob_without_ids(tmp_path, capsys):
    # a library blob (no ids line) restores, but detect cannot name its streams
    ck, part2 = _checkpointed_half(tmp_path, capsys, *_IID, "--alpha", "0.05")
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    det = restore_state(ck.read_text(), model)
    det.ids = None
    blob = checkpoint_state(det)
    ck.write_text(blob)
    code, _, err = _run(capsys, "detect", "--input", str(part2), "--out",
                        str(tmp_path / "o.csv"), "--checkpoint", str(ck), *_IID, "--alpha", "0.05")
    assert (code, err) == (2, "data error: the checkpoint holds no external stream ids\n")
    assert ck.read_text() == blob and not (tmp_path / "o.csv").exists()


def _wide(path, x, ids, times, bad_at=None):
    """Wide CSV of rows ``times`` of ``x``; the first cell at ``bad_at`` is not a number."""
    lines = ["t," + ",".join(map(str, ids))]
    for t in times:
        cells = [repr(float(v)) for v in x[t - 1]]
        if t == bad_at:
            cells[0] = "oops"
        lines.append(f"{t}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def test_detect_checkpoint_survives_a_bad_cell(tmp_path, capsys):
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    rng = np.random.default_rng(34)
    tau = model.sample_change_points(20, rng)
    x = np.stack([model.sample_step(t, tau, rng) for t in range(1, 25)])
    ids = [3 * i + 1 for i in range(20)]
    flags = ["--model", "iid", "--theta", "0.05", "--mu", "1.0", "--alpha", "0.1"]

    def detect(name, times, *extra, bad_at=None):
        _wide(tmp_path / f"{name}.csv", x, ids, times, bad_at)
        return _run(capsys, "detect", "--input", str(tmp_path / f"{name}.csv"),
                    "--out", str(tmp_path / f"{name}.out"), *extra, *flags)

    assert detect("full", range(1, 25))[0] == 0
    stops = [int(line.split(",")[1]) for line in
             (tmp_path / "full.out").read_text().splitlines()[3:]]
    assert min(stops) <= 15 < max(stops)

    ck = tmp_path / "ck.json"
    code, _, err = detect("crash", range(1, 25), "--checkpoint", str(ck),
                          "--report", str(tmp_path / "crash.rep"), bad_at=17)
    assert code == 2 and "data error" in err
    # a step runs once the first row of the next one is read, so the bad
    # row at t=17 stops the run before t=16: the checkpoint holds t=15
    assert _saved_t(ck) == 15
    # the same checkpoint and report bytes as a clean run over t=1..15 leaves
    assert detect("first", range(1, 16), "--checkpoint", str(tmp_path / "ck15.json"),
                  "--report", str(tmp_path / "first.rep"))[0] == 0
    assert ck.read_bytes() == (tmp_path / "ck15.json").read_bytes()
    report = (tmp_path / "crash.rep").read_bytes()
    assert b"t_final=15" in report and report.splitlines()[-1].startswith(b"15,")
    assert report == (tmp_path / "first.rep").read_bytes()
    assert not (tmp_path / "crash.out").exists()

    assert detect("rest", range(16, 25), "--checkpoint", str(ck))[0] == 0
    assert (tmp_path / "rest.out").read_bytes() == (tmp_path / "full.out").read_bytes()
    assert _saved_t(ck) == 24


def _nd(t, sid, x):
    return f'{{"t": {t}, "stream": {sid}, "x": {x}}}'


def _rows_of(fmt, x, ids, times, bad_at=None):
    """NDJSON or long-CSV lines of rows ``times`` of ``x``; the first value at
    ``bad_at`` is not a number."""
    lines = [] if fmt == "ndjson" else ["t,stream,x"]
    for t in times:
        for sid, v in zip(ids, x[t - 1]):
            cell = "oops" if t == bad_at and sid == ids[0] else repr(float(v))
            lines.append(_nd(t, sid, cell) if fmt == "ndjson" else f"{t},{sid},{cell}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["ndjson", "long-csv"])
def test_detect_checkpoint_survives_a_bad_row(tmp_path, capsys, fmt):
    # the twin of the wide-CSV test above: a bad first row of t=17 stops the
    # run before t=16 runs, and the held state resumes to the clean result
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    rng = np.random.default_rng(34)
    tau = model.sample_change_points(20, rng)
    x = np.stack([model.sample_step(t, tau, rng) for t in range(1, 25)])
    ids = [3 * i + 1 for i in range(20)]

    def detect(name, times, *extra, bad_at=None):
        (tmp_path / name).write_text(_rows_of(fmt, x, ids, times, bad_at))
        return _run(capsys, "detect", "--input", str(tmp_path / name), "--out",
                    str(tmp_path / f"{name}.out"), *extra, *_IID, "--alpha", "0.1")

    assert detect("full", range(1, 25))[0] == 0
    ck = tmp_path / "ck.json"
    code, _, err = detect("crash", range(1, 25), "--checkpoint", str(ck),
                          "--report", str(tmp_path / "crash.rep"), bad_at=17)
    row = 16 * 20 + (1 if fmt == "ndjson" else 2)
    assert code == 2 and f"data error: row {row}: " in err
    assert detect("first", range(1, 16), "--checkpoint", str(tmp_path / "ck15.json"),
                  "--report", str(tmp_path / "first.rep"))[0] == 0
    assert ck.read_bytes() == (tmp_path / "ck15.json").read_bytes()
    assert (tmp_path / "crash.rep").read_bytes() == (tmp_path / "first.rep").read_bytes()
    assert detect("rest", range(16, 25), "--checkpoint", str(ck))[0] == 0
    assert (tmp_path / "rest.out").read_bytes() == (tmp_path / "full.out").read_bytes()


def _clean_lines(fmt, k, horizon):
    """A clean input of streams 1..k over t=1..horizon; the CSV header is row 1."""
    x = {(t, sid): ((7 * sid + 3 * t) % 11) / 10 - 1.5
         for t in range(1, horizon + 1) for sid in range(1, k + 1)}
    if fmt == "wide":
        return ["t," + ",".join(map(str, range(1, k + 1)))] + [
            f"{t}," + ",".join(repr(x[t, sid]) for sid in range(1, k + 1))
            for t in range(1, horizon + 1)]
    rows = [(t, sid, x[t, sid]) for t, sid in sorted(x)]
    if fmt == "ndjson":
        return [_nd(t, sid, repr(v)) for t, sid, v in rows]
    return ["t,stream,x"] + [f"{t},{sid},{v!r}" for t, sid, v in rows]


# (format, streams, steps, {row: replacement line}, data error, t held after it).
# Streams 1..3 over t=1..5 unless stated; NDJSON row 3(t-1)+s holds (t, s),
# long CSV one row later and wide CSV row t+1 the whole of t.  A step runs once
# the next step's first row is read and checked, so a fault at a step's first
# row holds two steps back and one later in the step holds one step back.
# With 400 streams over 11 steps, t=11 spans NDJSON rows 4001..4400, across
# the 4096-line mark.
_REFUSALS = {
    "ndjson-bad-record-first-row": (
        "ndjson", 3, 5, {7: '{"t": 3, "stream": 1, "x": }'},
        "row 7: bad NDJSON record (Expecting value: line 1 column 28 (char 27))", 1),
    "ndjson-missing-field-mid-step": (
        "ndjson", 3, 5, {8: '{"t": 3, "stream": 2}'}, "row 8: bad NDJSON record ('x')", 2),
    "ndjson-non-finite-first-row": (
        "ndjson", 3, 5, {7: _nd(3, 1, "NaN")},
        "row 7: non-finite observation nan for stream 1 at t=3", 1),
    "ndjson-non-finite-mid-step": (
        "ndjson", 3, 5, {8: _nd(3, 2, "-Infinity")},
        "row 8: non-finite observation -inf for stream 2 at t=3", 2),
    "ndjson-unsorted-mid-step": (
        "ndjson", 3, 5, {8: _nd(2, 2, 0.5)}, "row 8: input not sorted by time (2 after 3)", 2),
    "ndjson-duplicate": (
        "ndjson", 3, 5, {9: _nd(3, 1, 0.5)},
        "row 9: duplicate observation for stream 1 at t=3", 2),
    "ndjson-duplicate-then-bad-record": (
        "ndjson", 3, 5, {8: _nd(3, 1, 0.5), 9: "oops"},
        "row 8: duplicate observation for stream 1 at t=3", 2),
    "ndjson-duplicate-then-non-finite-next-step": (
        "ndjson", 3, 5, {5: _nd(2, 1, 0.5), 7: _nd(3, 1, "NaN")},
        "row 5: duplicate observation for stream 1 at t=2", 1),
    "ndjson-time-gap": (
        "ndjson", 3, 5, {13: _nd(6, 1, 0.5), 14: _nd(6, 2, 0.5), 15: _nd(6, 3, 0.5)},
        "row 13: time gap, expected t=5, got t=6", 4),
    "ndjson-unknown-id": (
        "ndjson", 3, 5, {7: _nd(3, 9, 0.5)}, "row 7: unknown stream id(s) [9]", 2),
    "ndjson-unknown-id-then-non-finite": (
        "ndjson", 3, 5, {7: _nd(3, 9, 0.5), 8: _nd(3, 2, "NaN")},
        "row 8: non-finite observation nan for stream 2 at t=3", 2),
    "ndjson-missing-id": (
        "ndjson", 3, 5, {8: ""}, "row 7: missing observation for active stream(s) [2] at t=3", 2),
    "ndjson-not-from-t1": (
        "ndjson", 3, 5, {1: _nd(0, 1, 0.5), 2: _nd(0, 2, 0.5), 3: _nd(0, 3, 0.5)},
        "row 1: input must start at t=1, got t=0", None),
    "ndjson-bad-record-past-4096": (
        "ndjson", 400, 11, {4200: '{"t": 11, "stream": 200, "x": 0.1'},
        "row 4200: bad NDJSON record (Expecting ',' delimiter: line 1 column 34 (char 33))",
        10),
    "ndjson-duplicate-across-4096": (
        "ndjson", 400, 11, {4200: _nd(11, 50, 0.5)},
        "row 4200: duplicate observation for stream 50 at t=11", 10),
    "ndjson-non-finite-at-4097": (
        "ndjson", 400, 11, {4097: _nd(11, 97, "Infinity")},
        "row 4097: non-finite observation inf for stream 97 at t=11", 10),
    "long-bad-cell-first-row": (
        "long", 3, 5, {8: "3,1,abc"}, "row 8: could not convert string to float: 'abc'", 1),
    "long-bad-time-mid-step": (
        "long", 3, 5, {9: "x,2,0.5"}, "row 9: invalid literal for int() with base 10: 'x'", 2),
    "long-wrong-width": ("long", 3, 5, {9: "3,2"}, "row 9: expected t,stream,x", 2),
    "long-non-finite-first-row": (
        "long", 3, 5, {8: "3,1,inf"}, "row 8: non-finite observation inf for stream 1 at t=3", 1),
    "long-unsorted-first-row": (
        "long", 3, 5, {8: "1,1,0.5"}, "row 8: input not sorted by time (1 after 2)", 1),
    "long-duplicate": (
        "long", 3, 5, {10: "3,2,0.5"}, "row 10: duplicate observation for stream 2 at t=3", 2),
    "long-unknown-id-then-non-finite": (
        "long", 3, 5, {8: "3,9,0.5", 9: "3,2,nan"},
        "row 9: non-finite observation nan for stream 2 at t=3", 2),
    "long-not-from-t1": (
        "long", 3, 5, {2: "", 3: "", 4: ""}, "row 5: input must start at t=1, got t=2", None),
    "long-bad-cell-past-4096": (
        "long", 400, 11, {4200: "11,199,x1"},
        "row 4200: could not convert string to float: 'x1'", 10),
    "long-duplicate-across-4096": (
        "long", 400, 11, {4200: "11,50,0.5"},
        "row 4200: duplicate observation for stream 50 at t=11", 10),
    "wide-bad-cell": (
        "wide", 3, 5, {4: "3,0.1,abc,0.3"}, "row 4: could not convert string to float: 'abc'", 1),
    "wide-wrong-width": ("wide", 3, 5, {4: "3,0.1,0.2"}, "row 4: expected 4 columns", 1),
    "wide-non-finite-first-cell": (
        "wide", 3, 5, {4: "3,nan,0.2,0.3"},
        "row 4: non-finite observation nan for stream 1 at t=3", 1),
    # cells are met in column order, and the step before runs once the
    # row's first cell has passed
    "wide-non-finite-later-cell": (
        "wide", 3, 5, {4: "3,0.1,0.2,inf"},
        "row 4: non-finite observation inf for stream 3 at t=3", 2),
    "wide-repeated-time": (
        "wide", 3, 5, {4: "2,0.1,0.2,0.3"},
        "row 4: duplicate observation for stream 1 at t=2", 1),
    "wide-unknown-id": (
        "wide", 3, 5, {2: "1,0.1,0.2,"}, "row 3: unknown stream id(s) [3]", 1),
    "wide-unknown-id-then-non-finite": (
        "wide", 3, 5, {2: "1,0.1,0.2,", 3: "2,0.1,0.2,nan"},
        "row 3: non-finite observation nan for stream 3 at t=2", 1),
    "wide-missing-id": (
        "wide", 3, 5, {4: "3,0.1,,0.3"},
        "row 4: missing observation for active stream(s) [2] at t=3", 2),
    "wide-time-gap": (
        "wide", 3, 5, {6: "6,0.1,0.2,0.3"}, "row 6: time gap, expected t=5, got t=6", 4),
}


def _check_refusal(tmp_path, capsys, monkeypatch, case, stdin):
    """Run ``_REFUSALS[case]`` from a file or, given ``stdin``, from stdin
    read line by line; check its message and the steps it keeps."""
    fmt, k, horizon, edits, message, held = _REFUSALS[case]
    lines = _clean_lines(fmt, k, horizon)
    for row, text in edits.items():
        lines[row - 1] = text
    data = tmp_path / "obs"
    data.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(sys, "stdin", _LineStream(data.read_text()))
    ck, report = tmp_path / "ck.json", tmp_path / "r.csv"
    code, _, err = _run(capsys, "detect", "--input", "-" if stdin else str(data),
                        "--out", str(tmp_path / "o"), "--checkpoint", str(ck),
                        "--report", str(report), *_IID_ALPHA)
    assert (code, err) == (2, f"data error: {message}\n")
    assert not (tmp_path / "o").exists()
    if held is None:
        assert not ck.exists() and not report.exists()
    else:
        assert _saved_t(ck) == held
        assert f"t_final={held}\n" in report.read_text().splitlines(keepends=True)[0]


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_detect_refusals_name_their_row_and_keep_the_steps_before(tmp_path, capsys,
                                                                  monkeypatch, case):
    _check_refusal(tmp_path, capsys, monkeypatch, case, stdin=False)


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_detect_refusals_from_stdin_match_the_file(tmp_path, capsys, monkeypatch, case):
    # stdin is read a line at a time, files in blocks: the same messages and steps
    _check_refusal(tmp_path, capsys, monkeypatch, case, stdin=True)


_TABULAR_PRIORS = ("prior.1 = 0:0.1,3:0.9\nprior.2 = 0:0.4,1:0.6\n"
                   "prior.3 = 0:0.43,1:0.57\nprior.4 = 0:0.55,3:0.45\n")


def _kind_setup(tmp_path, capsys, kind):
    """The detect flags of one detector kind over streams 1..4, and its model
    and threshold table as ``restore_state`` takes them."""
    gauss, table = GaussianShift(1.0), None
    if kind in ("adaptive", "threshold"):
        flags, model = [*_IID, "--alpha", "0.05"], IIDModel(GeometricPrior(0.05), gauss)
    elif kind == "tabular":
        cfg = tmp_path / "tab.ini"
        cfg.write_text("[model]\nmodel = tabular\nmu = 1.0\n" + _TABULAR_PRIORS)
        supports = ((0, 3), (0, 1), (0, 1), (0, 3))
        masses = ((0.1, 0.9), (0.4, 0.6), (0.43, 0.57), (0.55, 0.45))
        flags, model = ["--config", str(cfg), "--alpha", "0.34"], TabularModel(
            supports=supports, masses=masses, obs=gauss)
    else:
        eta = "0.5" if kind == "partial" else "1"
        flags = ["--model", "partial", "--theta", "0.05", "--eta", eta, "--mu", "1.0",
                 "--alpha", "0.3"]
        model = PartialDepModel(GeometricPrior(0.05), float(eta), gauss)
    if kind == "threshold":
        path = tmp_path / "table.csv"
        assert _run(capsys, "calibrate", *flags, "--n", "1000", "--horizon", "14",
                    "--seed", "1", "--out", str(path))[0] == 0
        flags += ["--mode", "threshold", "--table", str(path)]
        table = read_threshold_table(path)
    if kind == "dependent":
        flags += ["--mode", "dependent"]
    return flags, model, table


def _blob_edits(blob):
    """Edits of a blob that its hash must catch: one character changed in
    each line, the last line dropped, a line added, a cut mid-line."""
    lines = blob.split("\n")[:-1]  # the hash, the header, one per array
    edits = {}
    for i, line in enumerate(lines):
        j = len(line) // 2
        changed = [*lines]
        changed[i] = line[:j] + ("B" if line[j] != "B" else "C") + line[j + 1:]
        edits[f"line-{i}"] = "".join(f"{text}\n" for text in changed)
    edits["last-line-dropped"] = "".join(f"{text}\n" for text in lines[:-1])
    edits["line-added"] = blob + lines[-1] + "\n"
    edits["cut-mid-line"] = blob[:len(blob) - 1 - len(lines[-1]) // 2]
    return edits


@pytest.mark.parametrize("kind", ["adaptive", "tabular", "partial", "dependent",
                                  "threshold"])
def test_every_byte_of_a_checkpoint_is_covered(tmp_path, capsys, kind):
    # the file is one blob, the external ids included: an edit anywhere,
    # such as stream 40 renamed 41 without a new hash, is refused
    flags, model, table = _kind_setup(tmp_path, capsys, kind)
    ck, part2 = _checkpointed_half(tmp_path, capsys, *flags, ids=(10, 20, 30, 40))
    blob = ck.read_text()
    mode = kind if kind in ("threshold", "dependent") else "adaptive"
    payload = _payload(blob)
    assert payload["mode"] == mode and list(payload["arrays"])[3] == "ids"
    det = restore_state(blob, model, 4, table)
    assert det.t == 7 and det.ids.tolist() == [10, 20, 30, 40]
    edits = _blob_edits(blob)
    assert len(edits) == len(blob.split("\n")) + 2
    ids_line = payload["arrays"]["ids"]["data"]
    edits["ids-40-to-41"] = blob.replace(ids_line, _pack(np.array([10, 20, 30, 41]))["data"])
    assert edits["ids-40-to-41"] != blob
    for name, edited in edits.items():
        with pytest.raises(CheckpointError):
            restore_state(edited, model, 4, table)
        ck.write_text(edited)
        code, _, err = _run(capsys, "detect", "--input", str(part2), "--out",
                            str(tmp_path / "o.csv"), "--checkpoint", str(ck), *flags)
        assert code == 2 and err.startswith("data error: "), name
        assert ck.read_text() == edited and not (tmp_path / "o.csv").exists(), name


@pytest.mark.parametrize("flags, saved, given", [
    (["--alpha", "0.5"], "alpha=0.05", "alpha=0.5"),
    (["--alpha", "0.05", "--mode", "dependent"], "mode='adaptive'", "mode='dependent'"),
], ids=["alpha", "mode"])
def test_detect_resume_refuses_a_different_setting(tmp_path, capsys, flags, saved, given):
    ck, part2 = _checkpointed_half(tmp_path, capsys, *_IID, "--alpha", "0.05")
    blob = ck.read_bytes()
    code, _, err = _run(capsys, "detect", "--input", str(part2),
                        "--out", str(tmp_path / "o.csv"), "--checkpoint", str(ck),
                        *_IID, *flags)
    assert code == 1 and "usage error" in err
    assert saved in err and given in err
    assert ck.read_bytes() == blob


def test_detect_checkpoint_write_is_atomic(tmp_path, capsys, monkeypatch):
    ck, part2 = _checkpointed_half(tmp_path, capsys, *_IID, "--alpha", "0.05")
    blob = ck.read_bytes()

    class HalfWriter:
        # writes half of what it is given, then fails like a full disk
        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, text):
            self._fh.write(text[: len(text) // 2])
            self._fh.flush()
            raise OSError("no space left on device")

    real_open = open

    def fake_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return HalfWriter(fh) if str(path).startswith(str(ck)) and "w" in mode else fh

    monkeypatch.setattr("streamgate.detector.open", fake_open, raising=False)  # write_atomic's
    code, _, err = _run(capsys, "detect", "--input", str(part2),
                        "--out", str(tmp_path / "o.csv"), "--checkpoint", str(ck),
                        *_IID, "--alpha", "0.05")
    assert code == 2 and "no space left" in err
    assert ck.read_bytes() == blob
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("ck")) == [
        "ck.json"]


def test_every_output_file_is_replaced_whole_or_not_at_all(tmp_path, capsys, monkeypatch):
    data, bad = tmp_path / "obs.ndjson", tmp_path / "bad.ndjson"
    _write_ndjson(data, _jump_rows(horizon=4))
    bad.write_text(data.read_text() + '{"t": 5, "stream": 1, "x": "oops"}\n')
    names = ("o.csv", "r.csv", "m.csv", "th.csv")
    for name in names:
        (tmp_path / name).write_text("previous\n")

    def replace(src, dst):
        raise OSError("rename failed")

    # detect's --report (written first) and --out, simulate's CSV, calibrate's table
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.chdir(tmp_path)
    for argv in (["detect", "--input", str(data), "--out", "o.csv", "--report", "r.csv",
                  *_IID_ALPHA],
                 ["detect", "--input", str(data), "--out", "o.csv", *_IID_ALPHA],
                 ["simulate", *_IID_ALPHA, "--k", "20", "--horizon", "5", "--reps", "2",
                  "--out", "m.csv"],
                 ["calibrate", *_IID_ALPHA, "--n", "1000", "--horizon", "3", "--out",
                  "th.csv"]):
        code, _, err = _run(capsys, *argv)
        assert (code, err) == (2, "data error: rename failed\n")
    assert [(tmp_path / name).read_text() for name in names] == ["previous\n"] * 4
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*names, data.name, bad.name])
    # a failed run still writes the report of the steps it completed
    monkeypatch.undo()
    code, _, _ = _run(capsys, "detect", "--input", str(bad), "--out", str(tmp_path / "o.csv"),
                      "--report", str(tmp_path / "r.csv"), *_IID_ALPHA)
    # the bad row opens t=5, which leaves t=3 as the last completed step
    assert code == 2 and "t_final=3" in (tmp_path / "r.csv").read_text()
    assert (tmp_path / "o.csv").read_text() == "previous\n"
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


class _LineStream:
    """A stdin that can be read line by line but not all at once."""

    def __init__(self, text):
        self._lines = iter(text.splitlines(keepends=True))

    def readline(self):
        return next(self._lines, "")

    def __iter__(self):
        return self._lines


def test_detect_reads_ndjson_stdin_line_by_line(tmp_path, capsys, monkeypatch):
    good = [json.dumps({"t": t, "stream": s, "x": 0.1 * s})
            for t in (1, 2) for s in (1, 2)]
    argv = ["detect", "--input", "-", "--out", str(tmp_path / "o.csv"),
            *_IID, "--alpha", "0.05"]
    monkeypatch.setattr(sys, "stdin", _LineStream("\n".join(good) + "\n"))
    code, out, _ = _run(capsys, *argv)
    assert code == 0 and "t=1..2" in out
    # row numbers count blank lines, as they always did
    monkeypatch.setattr(sys, "stdin", _LineStream(
        "\n".join([good[0], "", good[1], '{"t": 2, "stream": 1}']) + "\n"))
    code, _, err = _run(capsys, *argv)
    assert code == 2 and "row 4: bad NDJSON record" in err


def test_detect_reads_stdin_and_files_alike(tmp_path, capsys, monkeypatch):
    # a file goes in blocks of lines, stdin a line at a time: the same bytes,
    # over blank lines, integer values and steps across a block boundary
    lines = [_nd(t, sid, sid % 3 - 1 if sid % 5 else -0.25 * sid / 400)
             for t in range(1, 8) for sid in range(1, 801)]
    lines[4200:4200] = ["", "  "]
    data = tmp_path / "obs.ndjson"
    data.write_text("\n".join(lines) + "\n")
    outputs = []
    for src in (str(data), "-"):
        monkeypatch.setattr(sys, "stdin", _LineStream(data.read_text()))
        name = "stdin" if src == "-" else "file"
        code, out, err = _run(capsys, "detect", "--input", src, "--out", str(tmp_path / name),
                              "--report", str(tmp_path / f"{name}.rep"), "--checkpoint",
                              str(tmp_path / f"{name}.ck"), *_IID_ALPHA)
        assert code == 0
        outputs.append([out, err] + [(tmp_path / f"{name}{ext}").read_bytes()
                                     for ext in ("", ".rep", ".ck")])
    assert outputs[0] == outputs[1]


class _CountingStream(_LineStream):
    """A line-by-line stdin that counts the lines it hands out."""

    def __init__(self, text):
        super().__init__(text)
        self.read = 0

    def readline(self):
        self.read += 1
        return next(self._lines, "")

    def __iter__(self):
        return iter(self.readline, "")


def test_detect_runs_a_stdin_step_once_the_next_one_starts(tmp_path, capsys, monkeypatch):
    # stdin is not read ahead: t=1 is checkpointed once t=2's first line is in
    stream = _CountingStream("".join(_nd(t, sid, -0.5) + "\n" for t in (1, 2, 3)
                                     for sid in (1, 2)))
    monkeypatch.setattr(sys, "stdin", stream)
    saved, write, ckpt = [], cli.write_atomic, str(tmp_path / "ck")
    monkeypatch.setattr(cli, "write_atomic", lambda path, text: (
        path == ckpt and saved.append(stream.read)) or write(path, text))
    code, _, _ = _run(capsys, "detect", "--input", "-", "--out", str(tmp_path / "o"),
                      "--checkpoint", ckpt, *_IID_ALPHA)
    assert code == 0 and saved == [3, 5, 7]  # the 7th read finds the end of input


@pytest.mark.parametrize("name, text, message", [
    # joined into one array, lines 1 and 2 make one record and line 3 two
    ("obs.ndjson", '{"t":1,"stream":1,"x":1,"y":[1\n2]}\n'
                   '{"t": 1, "stream": 2, "x": 0.1},{"t": 1, "stream": 3, "x": 0.2}\n',
     "row 1: bad NDJSON record (Expecting ',' delimiter: line 1 column 31 (char 30))"),
    ("obs.ndjson", '{"t": 1, "stream": 1, "x": 0.1}\n{"t": 1, "stream": 2, "x": 1e400}\n',
     "row 2: non-finite observation inf for stream 2 at t=1"),
    ("long.csv", "t,stream,x\n1,1,0.1\n1,2,1e400\n",
     "row 3: non-finite observation inf for stream 2 at t=1"),
    ("wide.csv", "t,1,2\n1,0.1,1e400\n", "row 2: non-finite observation inf for stream 2 at t=1"),
    ("obs.ndjson", '{"t":1,"stream":1,"x":0.5} 7\n',
     "row 1: bad NDJSON record (Extra data: line 1 column 28 (char 27))"),
], ids=["joined-lines", "ndjson-1e400", "long-1e400", "wide-1e400", "ndjson-extra-data"])
def test_detect_reads_each_line_on_its_own(tmp_path, capsys, name, text, message):
    data = tmp_path / name
    data.write_text(text)
    code, _, err = _run(capsys, "detect", "--input", str(data), "--out", str(tmp_path / "o"),
                        *_IID_ALPHA)
    assert (code, err) == (2, f"data error: {message}\n")


def test_detect_reads_wide_cells_as_float_does(tmp_path, capsys):
    # underscores and inner spaces read as float() reads them
    outputs = []
    for name, row in (("plain", "1,10.0,2.5,-0.5"), ("spelt", "1,1_0, 2.5,-0.5 ")):
        data = tmp_path / f"{name}.csv"
        data.write_text(f"t,1,2,3\n{row}\n2,0.1,0.2,0.3\n")
        code, _, _ = _run(capsys, "detect", "--input", str(data), "--out",
                          str(tmp_path / f"{name}.out"), "--report",
                          str(tmp_path / f"{name}.rep"), *_IID_ALPHA)
        assert code == 0
        outputs.append((tmp_path / f"{name}.rep").read_bytes())
    assert outputs[0] == outputs[1]


_BIG = 2**70


@pytest.mark.parametrize("name, text, row, value", [
    ("obs.ndjson", f'{{"t": 1, "stream": 1, "x": 0.1}}\n{{"t": 1, "stream": {_BIG}, "x": 0.1}}\n',
     2, _BIG),
    ("obs.ndjson", f'{{"t": {-_BIG}, "stream": 1, "x": 0.1}}\n', 1, -_BIG),
    ("long.csv", f"t,stream,x\n1,1,0.1\n1,{2**63},0.1\n", 3, 2**63),
    ("long.csv", f"t,stream,x\n{_BIG},1,0.1\n", 2, _BIG),
    ("wide.csv", f"t,1,{_BIG}\n1,0.1,0.2\n", 1, _BIG),
    ("wide.csv", f"t,1,2\n{_BIG},0.1,0.2\n", 2, _BIG),
], ids=["ndjson-stream", "ndjson-time", "long-stream", "long-time", "wide-header",
        "wide-time"])
def test_detect_ids_and_times_must_fit_int64(tmp_path, capsys, name, text, row, value):
    data = tmp_path / name
    data.write_text(text)
    code, _, err = _run(capsys, "detect", "--input", str(data), "--out", str(tmp_path / "o"),
                        *_IID_ALPHA)
    assert (code, err) == (2, f"data error: row {row}: {value} does not fit in int64\n")


def test_detect_resume_refuses_checkpoint_ids_outside_int64(tmp_path, capsys):
    # the ids line holds int64 bytes; an id past int64 fits only as a float,
    # which is refused even under a valid hash
    ck, part2 = _checkpointed_half(tmp_path, capsys, *_IID, "--alpha", "0.05")
    _edit_state(ck, lambda state: state["arrays"].update(
        ids=_pack(np.array([1.0, 2.0, 3.0, float(_BIG)]))))
    code, _, err = _run(capsys, "detect", "--input", str(part2), "--out", str(tmp_path / "o"),
                        "--checkpoint", str(ck), *_IID, "--alpha", "0.05")
    assert (code, err) == (2, "data error: external ids must be 4 strictly increasing "
                              "<i8 values\n")


def test_detect_takes_ids_at_the_ends_of_int64(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text(f"t,stream,x\n1,{2**63 - 1},0.1\n1,{-2**63},0.2\n2,{-2**63},0.3\n"
                    f"2,{2**63 - 1},0.4\n")
    code, _, _ = _run(capsys, "detect", "--input", str(data), "--out", str(tmp_path / "o"),
                      *_IID_ALPHA)
    assert code == 0
    body = (tmp_path / "o").read_text().splitlines()[3:]
    assert [line.split(",")[0] for line in body] == [str(-2**63), str(2**63 - 1)]


def _group_rows(rows):
    """Per-row reference for ``cli._steps``: (t, {stream: x}, first row) per
    step from (row, t, stream, x) rows, with its faults in row order."""
    t_now, group, first = None, {}, None
    for row_no, t, sid, x in rows:
        if not np.isfinite(x):
            raise cli.DataError(f"row {row_no}: non-finite observation {x!r} for stream "
                                f"{sid} at t={t}")
        if t_now is None:
            t_now, first = t, row_no
        if t < t_now:
            raise cli.DataError(f"row {row_no}: input not sorted by time ({t} after {t_now})")
        if t > t_now:
            yield t_now, group, first
            t_now, group, first = t, {}, row_no
        if sid in group:
            raise cli.DataError(f"row {row_no}: duplicate observation for stream {sid} "
                                f"at t={t}")
        group[sid] = x
    if t_now is not None:
        yield t_now, group, first


def _outcome(steps):
    got = []
    try:
        for t, group, first in steps:
            got.append((t, group, first))
    except cli.DataError as exc:
        got.append(str(exc))
    return got


def test_steps_match_the_per_row_reference():
    # random rows in random chunks: repeats, a few faults, chunk edges anywhere
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        t = np.sort(rng.integers(1, 6, n))
        swap = rng.integers(0, n, 1 if rng.random() < 0.3 else 0)
        t[swap], t[swap - 1] = t[swap - 1], t[swap]
        sid = rng.integers(1, 8 if rng.random() < 0.5 else 400, n)
        x = rng.normal(size=n)
        x[rng.random(n) < 0.04] = rng.choice([np.nan, np.inf, -np.inf])
        rows = np.arange(2, n + 2)
        cuts = [0, *np.sort(rng.choice(np.arange(1, n + 1), int(rng.integers(0, n)))), n]
        chunks = [(t[a:b], sid[a:b], x[a:b], rows[a:b]) for a, b in zip(cuts, cuts[1:]) if b > a]
        steps = ((t, dict(zip(ids.tolist(), x.tolist())), int(first[0]))
                 for t, ids, x, first in cli._steps(iter(chunks)))
        assert _outcome(steps) == _outcome(_group_rows(zip(
            rows.tolist(), t.tolist(), sid.tolist(), x.tolist()))), f"seed {seed}"


def test_detect_wide_csv_then_ndjson_resume_matches_library(tmp_path, capsys):
    # non-contiguous ids in shuffled column and line order; streams drop in
    # both halves, and some dropped streams keep reporting (discarded rows)
    # while others fall silent (blank cells, absent lines)
    theta, mu, alpha, k, horizon, half = 0.1, 2.0, 0.1, 40, 12, 6
    model = IIDModel(GeometricPrior(theta), GaussianShift(mu))
    rng = np.random.default_rng(5)
    tau = model.sample_change_points(k, rng)
    x = np.stack([model.sample_step(t, tau, rng) for t in range(1, horizon + 1)])
    ids = np.sort(rng.choice(10 * k, size=k, replace=False)) + 1
    silent = rng.random(k) < 0.5

    det = AdaptiveDetector(model, alpha, k)
    present, discarded = [], 0
    for t in range(1, horizon + 1):
        rows = np.isin(np.arange(k), det.active) | ~silent
        present.append(rows)
        discarded += int(rows.sum()) - det.n_active
        det.observe(x[t - 1, det.active])
        det.deactivate()
        if t == half:
            w_half, trace_half = det.w.copy(), det.trace()
    trace = det.trace()
    assert 0 < np.sum((trace.t_stop > 0) & (trace.t_stop <= half))
    assert 0 < np.sum(trace.t_stop > half) and discarded > 0

    cols = rng.permutation(k)
    wide = ["t," + ",".join(str(ids[c]) for c in cols)]
    for t in range(1, half + 1):
        wide.append(f"{t}," + ",".join(repr(float(x[t - 1, c])) if present[t - 1][c]
                                       else "" for c in cols))
    first = tmp_path / "first.csv"
    first.write_text("\n".join(wide) + "\n")
    rest = tmp_path / "rest.ndjson"
    _write_ndjson(rest, [(t, int(ids[c]), float(x[t - 1, c]))
                         for t in range(half + 1, horizon + 1)
                         for c in rng.permutation(k) if present[t - 1][c]])

    flags = ["--model", "iid", "--theta", repr(theta), "--mu", repr(mu),
             "--alpha", repr(alpha)]
    ck = tmp_path / "ck.json"
    notes = []
    for src, out in ((first, "first.out"), (rest, "rest.out")):
        code, _, err = _run(capsys, "detect", "--input", str(src),
                            "--out", str(tmp_path / out), "--checkpoint", str(ck),
                            *flags)
        assert code == 0
        note = re.search(r"discarded (\d+) observation", err)
        notes.append(int(note.group(1)) if note else 0)
        if src is first:
            saved = ck.read_text()

    expected = [f"{sid},{trace.t_final if s < 0 else s},{int(s < 0)}"
                for sid, s in zip(ids, trace.t_stop)]
    table = (tmp_path / "rest.out").read_text().splitlines()
    assert table[3:] == expected
    assert sum(notes) == discarded

    # the file saved after the first call is one blob: it holds the external
    # ids and restores the library run's bits
    restored = restore_state(saved, model, k)
    assert restored.ids.tolist() == ids.tolist()
    assert restored.w.tobytes() == w_half.tobytes()
    assert restored.trace().equals(trace_half)
    # the same state laid out as format 2 wrote it is refused, as a blob and
    # as a file, and so is format 3's file (a JSON ids line before the
    # blob); the file is left as it was
    with pytest.raises(CheckpointError, match="format 1 or 2"):
        restore_state(_format2_blob(saved), model, k)
    for old, named in ((json.dumps({"external_ids": ids.tolist(),
                                    "state": _format2_blob(saved)}), "format 1 or 2"),
                       (json.dumps(ids.tolist()) + "\n" + saved, "format-3")):
        ck.write_text(old)
        code, _, err = _run(capsys, "detect", "--input", str(rest), "--out",
                            str(tmp_path / "old.out"), "--checkpoint", str(ck), *flags)
        assert code == 2 and "data error: unsupported checkpoint version" in err
        assert named in err and ck.read_text() == old
        assert not (tmp_path / "old.out").exists()


def test_simulate_writes_metrics_and_is_deterministic(tmp_path, capsys):
    argv = ["simulate", "--model", "iid", "--theta", "0.05", "--mu", "1.0",
            "--k", "30", "--alpha", "0.05", "--horizon", "25",
            "--reps", "20", "--seed", "1"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code, _, _ = _run(capsys, *argv, "--out", str(out_a))
    assert code == 0
    code, _, _ = _run(capsys, *argv, "--out", str(out_b), "--threads", "2")
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    body = [ln for ln in out_a.read_text().splitlines()
            if not ln.startswith("#")]
    header = body[0].split(",")
    lfnr_col = header.index("mean_lfnr")
    for row in body[1:]:
        assert float(row.split(",")[lfnr_col]) <= 0.05 + 1e-12


_SIM = ["simulate", *_IID_ALPHA, "--k", "10", "--horizon", "3", "--reps", "2"]


@pytest.mark.parametrize("threads", ["-3", "0"])
def test_simulate_refuses_a_bad_thread_count(tmp_path, capsys, threads):
    code, _, err = _run(capsys, *_SIM, "--threads", threads,
                        "--out", str(tmp_path / "x.csv"))
    assert code == 1 and "usage error" in err and "threads" in err
    assert not (tmp_path / "x.csv").exists()


def test_an_unknown_mode_is_refused_before_the_input_is_read(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = _run(capsys, "detect", "--input", "missing.ndjson", *_IID_ALPHA,
                        "--mode", "bogus", "--out", "o.csv")
    assert (code, err) == (1, "usage error: unknown mode 'bogus'\n")
    assert not any(tmp_path.iterdir())


def test_simulate_rejects_bad_combo(tmp_path, capsys):
    code, _, err = _run(capsys, "simulate", "--model", "iid", "--theta", "0.05",
                        "--mu", "1.0", "--k", "10", "--alpha", "0.05",
                        "--horizon", "5", "--reps", "2",
                        "--procedure", "dependent",
                        "--out", str(tmp_path / "x.csv"))
    assert code == 1


def test_calibrate_floor_and_output(tmp_path, capsys):
    code, _, err = _run(capsys, "calibrate", "--theta", "0.05", "--alpha",
                        "0.05", "--n", "500", "--horizon", "5", "--seed", "1",
                        "--mu", "1.0", "--out", str(tmp_path / "t.csv"))
    assert code == 1 and "floor" in err

    out = tmp_path / "table.csv"
    code, _, _ = _run(capsys, "calibrate", "--theta", "0.05", "--alpha", "0.05",
                      "--n", "5000", "--horizon", "5", "--seed", "1",
                      "--mu", "1.0", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[2] == "t,lambda,survival_frac,retained_mean"
    assert "# theta=0.05" in text


def test_calibrated_table_refused_on_mismatch(tmp_path, capsys):
    table = tmp_path / "table.csv"
    code, _, _ = _run(capsys, "calibrate", "--theta", "0.05", "--alpha", "0.05",
                      "--n", "2000", "--horizon", "6", "--seed", "1",
                      "--mu", "1.0", "--out", str(table))
    assert code == 0
    data = tmp_path / "obs.ndjson"
    _write_ndjson(data, _jump_rows(horizon=5))
    code, _, err = _run(capsys, "detect", "--input", str(data),
                        "--out", str(tmp_path / "o.csv"), "--model", "iid",
                        "--theta", "0.01", "--mu", "1.0", "--alpha", "0.05",
                        "--mode", "threshold", "--table", str(table))
    assert code == 1
    assert "different model" in err


def test_simulate_threshold_procedure_via_cli(tmp_path, capsys):
    table = tmp_path / "table.csv"
    code, _, _ = _run(capsys, "calibrate", "--theta", "0.05", "--alpha", "0.05",
                      "--mu", "1.0", "--n", "5000", "--horizon", "12",
                      "--seed", "9", "--out", str(table))
    assert code == 0
    out = tmp_path / "m.csv"
    code, _, _ = _run(capsys, "simulate", "--model", "iid", "--theta", "0.05",
                      "--mu", "1.0", "--k", "50", "--alpha", "0.05",
                      "--horizon", "12", "--reps", "10", "--seed", "9",
                      "--procedure", "threshold", "--table", str(table),
                      "--out", str(out))
    assert code == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(body) == 13


def test_verify_counterexample_output(capsys):
    code, out, _ = _run(capsys, "verify", "example3")
    assert code == 0
    assert "U2=7 U4=10 coexist=false" in out
    assert "PASS counterexample" in out


def test_verify_unknown_suite(capsys):
    code, _, err = _run(capsys, "verify", "nosuch")
    assert code == 1
    assert "unknown suite" in err


def test_verify_fast_suites(capsys):
    code, out, _ = _run(capsys, "verify", "posterior", "--trials", "50")
    assert code == 0 and "PASS posterior" in out
    code, out, _ = _run(capsys, "verify", "selection", "--trials", "50")
    assert code == 0 and "PASS selection" in out
    code, out, _ = _run(capsys, "verify", "ordering", "--trials", "200")
    assert code == 0 and "PASS ordering" in out


@pytest.mark.parametrize("suite", ["posterior", "selection", "ordering", "all"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_refuses_a_trial_count_below_one(capsys, suite, trials):
    code, out, err = _run(capsys, "verify", suite, "--trials", trials)
    assert code == 1 and out == ""
    assert "usage error" in err and "--trials" in err


def test_verify_posterior_checks_the_partial_backend(capsys, monkeypatch):
    from streamgate.posterior import PartialDepPosterior

    code, out, _ = _run(capsys, "verify", "posterior", "--trials", "30")
    assert code == 0 and "partial_max_abs_diff=" in out
    fold = PartialDepPosterior._fold
    # a fold that forgets the first change candidate of every frozen stream
    monkeypatch.setattr(PartialDepPosterior, "_fold",
                        lambda self, rows, u: fold(self, rows[:, 1:], u - 1))
    code, out, _ = _run(capsys, "verify", "posterior", "--trials", "30")
    assert code == 3 and out.startswith("FAIL posterior")


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[model]\nmodel = iid\ntheta = 0.05\nmu = 1.0\n"
        "[simulate]\nk = 20\nalpha = 0.05\nhorizon = 10\nreps = 5\nseed = 3\n")
    out = tmp_path / "m.csv"
    code, _, _ = _run(capsys, "simulate", "--config", str(cfg),
                      "--out", str(out), "--reps", "6")
    assert code == 0
    assert "# replications=6" in out.read_text() or ",6" not in ""
    meta = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
    assert any("seed=3" in ln for ln in meta)


def test_tabular_model_from_config(tmp_path, capsys):
    cfg = tmp_path / "tab.ini"
    cfg.write_text(
        "[model]\nmodel = tabular\np0 = 0.5\np1 = 0.51\n"
        "prior.1 = 0:0.1,3:0.9\nprior.2 = 0:0.4,1:0.6\n"
        "prior.3 = 0:0.43,1:0.57\nprior.4 = 0:0.55,3:0.45\n")
    out = tmp_path / "m.csv"
    code, _, _ = _run(capsys, "simulate", "--config", str(cfg),
                      "--out", str(out), "--k", "4", "--alpha", "0.34",
                      "--horizon", "5", "--reps", "10", "--seed", "2")
    assert code == 0
    assert out.exists()


def test_verify_all_prints_one_pass_line_per_suite(capsys, monkeypatch):
    # the optimality suite on the one instance it ran before its grid (which
    # takes about 50 s); tests/test_verify.py runs the grid's instances that
    # fit tier-1
    monkeypatch.setattr("streamgate.verify.OPTIMALITY_SETS",
                        {("3/10", "1/5", "4/5", "3/10"): True})
    monkeypatch.setattr("streamgate.verify.OPTIMALITY_SIZES", (3,))
    code, out, _ = _run(capsys, "verify")
    assert code == 0
    assert out.splitlines() == [
        "PASS posterior max_abs_diff=1.332e-15 partial_max_abs_diff=1.443e-15",
        "PASS selection 200 random instances + one 2000-stream tie-heavy instance",
        "PASS ordering 200 monotonicity + axiom trials",
        "PASS counterexample U2=7 U4=10 coexist=false",
        "PASS optimality proposed matches supremum on the grid (sets=1, n=(3,), h=4); "
        "baseline short of it on every power-checked set (1)",
    ]


@pytest.mark.parametrize("command, flags, config, names", [
    ("detect", [*_IID_ALPHA, "--eta", "0.3"], None, ["--eta"]),
    ("detect", [*_IID_ALPHA, "--table", "missing.csv"], None, ["--table"]),
    ("calibrate", [], "[model]\nmodel = partial\ntheta = 0.05\nmu = 1.0\neta = 0.3\n"
     "[calibrate]\nalpha = 0.05\nalhpa = 0.2\nn = 1000\nhorizon = 3\nthreads = 4\n",
     ["[calibrate] alhpa", "[calibrate] threads"]),
    ("detect", ["--alpha", "0.05"], "[model]\nmodel = iid\ntheta = 0.05\nmu = 1.0\n"
     "prior.1 = 0:0.1,3:0.9\n", ["[model] prior.1"]),
    ("detect", _IID_ALPHA, "[detect]\nreport = r.csv\n", ["[detect] report"]),
    ("detect", ["--model", "ms", "--theta", "0.05", "--mu", "1", "--alpha", "0.05"], None,
     ["model", "'ms'"]),
    ("detect", ["--theta", "0.7", "--alpha", "0.05"],
     "[model]\nmodel = tabular\nbuiltin = conflicting\np0 = 0.5\np1 = 0.51\n",
     ["[model] builtin", "--theta"]),
    ("simulate", [*_IID_ALPHA, "--k", "10", "--reps", "2"], None, ["horizon"]),
    ("calibrate", ["--model", "partial", "--theta", "0.05", "--mu", "1.0", "--alpha", "0.05",
                   "--n", "1000", "--horizon", "3"], None, ["iid model"]),
    ("detect", ["--alpha", "0.3"], "[model]\nmodel = tabular\nmu = 1.0\n"
     "prior.1 = 0:0.1,3:0.9\nprior.x = 0:0.4,1:0.6\n", ["prior.x"]),
    ("detect", ["--alpha", "0.3"], "[model]\nmodel = tabular\nmu = 1.0\n"
     "prior.1 = 0:0.1,3\n", ["bad value for prior.1"]),
    ("detect", ["--alpha", "0.3"], "[model]\nmodel = tabular\nmu = 1.0\n"
     "prior.1 = 0:0.1,3:0.9\nprior.01 = 0:0.4,1:0.6\n", ["prior.1", "prior.01"]),
], ids=["eta-with-iid", "table-in-adaptive-mode", "calibrate-partial-typo-threads",
        "prior-row-with-iid", "report-in-config", "model-alias-ms", "tabular-builtin",
        "simulate-no-horizon", "calibrate-partial", "prior-key-not-a-number",
        "prior-cell-without-colon", "prior-stream-twice"])
def test_an_input_the_command_does_not_read_is_refused(tmp_path, capsys, monkeypatch,
                                                      command, flags, config, names):
    monkeypatch.chdir(tmp_path)
    _write_ndjson(tmp_path / "obs.ndjson", _jump_rows(k=2, horizon=3))
    argv = [command, *flags, "--out", "o.csv"]
    if command == "detect":
        argv += ["--input", "obs.ndjson", "--report", "r.csv", "--checkpoint", "ck.json"]
    if config is not None:
        (tmp_path / "run.ini").write_text(config)
        argv += ["--config", "run.ini"]
    code, _, err = _run(capsys, *argv)
    assert code == 1 and err.startswith("usage error")
    assert all(name in err for name in names), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.ndjson"] + (
        ["run.ini"] if config else [])



@pytest.mark.parametrize("text", ["theta = 0.05\n", "[model]\ntheta = 5%\n"],
                         ids=["no-section-header", "bare-percent"])
def test_a_malformed_config_file_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    code, _, err = _run(capsys, *_SIM, "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert code == 1 and err.startswith("usage error")
    assert not (tmp_path / "x.csv").exists()
