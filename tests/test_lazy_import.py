"""Set-up imports neither scipy.special nor the process pool.

One fresh interpreter, so that no other test's imports are in
``sys.modules``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = textwrap.dedent("""
    import sys

    import streamgate as sg
    import streamgate.cli

    def loaded(name):
        return name in sys.modules

    streamgate.cli.build_parser().parse_args(
        ["detect", "--input", "in.csv", "--out", "out.csv", "--alpha", "0.05",
         "--theta", "0.01", "--mu", "1.0"])
    gauss = sg.GaussianShift(1.0)
    iid = sg.AdaptiveDetector(sg.IIDModel(sg.GeometricPrior(0.01), gauss), 0.05, 3)
    partial = sg.PartialDepModel(sg.GeometricPrior(0.05), 0.5, gauss)
    sg.AdaptiveDetector(partial, 0.3, 3)
    sg.SimConfig(model=partial, k=3, alpha=0.3, horizon=5, replications=2)
    assert not loaded("scipy.special"), "set-up imported scipy.special"
    assert not loaded("concurrent.futures.process"), "set-up imported the process pool"

    obs, out = sys.argv[1], sys.argv[2]
    with open(obs, "w") as fh:
        fh.write("t,1,2,3\\n1,0.1,2.5,-0.3\\n2,0.4,3.1,0.2\\n3,-0.2,2.8,0.1\\n")
    code = streamgate.cli.main(["detect", "--input", obs, "--out", out, "--model", "partial",
                                "--theta", "0.05", "--eta", "0.5", "--mu", "1.0",
                                "--alpha", "0.3"])
    assert code == 0, code
    assert not loaded("scipy.special"), "a partial-model detect imported scipy.special"
    cfg = obs + ".ini"
    with open(cfg, "w") as fh:
        fh.write("[model]\\nmodel = tabular\\nmu = 1.0\\nprior.1 = 0:0.1,3:0.9\\n"
                 "prior.2 = 0:0.4,1:0.6\\nprior.3 = 0:0.5,2:0.5\\n")
    code = streamgate.cli.main(["detect", "--input", obs, "--out", out, "--config", cfg,
                                "--alpha", "0.3"])
    assert code == 0, code
    assert not loaded("scipy.special"), "a tabular-model detect imported scipy.special"

    iid.observe([0.2, 1.5, -0.4])
    w = iid.w
    assert loaded("scipy.special"), "the first IID w did not import scipy.special"
    import scipy.special
    assert w.tobytes() == scipy.special.expit(iid._state.log_odds).tobytes()
    print("ok")
""")


def test_setup_leaves_scipy_special_and_the_pool_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "obs.csv"), str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
