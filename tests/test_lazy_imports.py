"""scipy.stats loads on first use, and before ``repro serve`` listens.

Importing scipy.stats costs about a second and 60 MB, and every process
that imports :mod:`repro` would pay it: the CLI, a sharded grid's
workers, each test subprocess.  Only the significance tests of
:mod:`repro.core.stats` need it, so they import it when they run.  A
server imports it up front instead, so that its first cold full report
does not import it on a compute thread while hits wait on the same
interpreter lock.

Each check runs in a fresh interpreter: in this one, other tests have
long since loaded scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

TIMEOUT_S = 300


def _run(code: str, tmp_path: Path) -> dict:
    """Run ``code`` in a fresh interpreter; return its last stdout line."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env,
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_imports_and_a_sharded_grid_leave_scipy_stats_unloaded(tmp_path):
    out = _run("""
        import json, sys

        import repro, repro.cli, repro.core.report, repro.sim.shard
        import repro.serve

        checks = {"after_imports": "scipy.stats" in sys.modules}

        from repro.sim.scenario import paper_sharded_scenario
        from repro.sim.shard import run_sharded_campaign

        sharded, origins, config = paper_sharded_scenario(
            seed=5, scale=0.02, n_shards=2)
        result = run_sharded_campaign(sharded, origins, config,
                                      n_trials=2, plane_dir="planes")
        result.report()
        checks["after_grid"] = "scipy.stats" in sys.modules

        import numpy as np
        from repro.core.stats import mcnemar, mcnemar_exact, spearman

        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        y = np.array([2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0])
        got = [mcnemar(7, 2), mcnemar_exact(3, 9), spearman(x, y)]
        checks["after_tests"] = "scipy.stats" in sys.modules

        from scipy import stats

        statistic = (abs(7 - 2) - 1) ** 2 / 9
        rho = got[2][0]
        t = rho * np.sqrt(6 / (1.0 - rho ** 2))
        expected = [
            (statistic, float(stats.chi2.sf(statistic, df=1))),
            min(1.0, 2.0 * float(stats.binom.cdf(3, 12, 0.5))),
            (float(stats.spearmanr(x, y)[0]),
             float(2.0 * stats.t.sf(abs(t), df=6))),
        ]
        checks["mcnemar"] = got[0] == expected[0]
        checks["mcnemar_exact"] = got[1] == expected[1]
        checks["spearman_p"] = got[2][1] == expected[2][1]
        checks["spearman_rho"] = abs(got[2][0] - expected[2][0]) < 1e-12
        print(json.dumps(checks))
    """, tmp_path)
    assert out == {"after_imports": False, "after_grid": False,
                   "after_tests": True, "mcnemar": True,
                   "mcnemar_exact": True, "spearman_p": True,
                   "spearman_rho": True}


def test_server_loads_scipy_stats_before_listening(tmp_path):
    out = _run("""
        import json, sys

        from repro.serve.server import ServeConfig, ThreadedServer

        checks = {"before_start": "scipy.stats" in sys.modules}
        server = ThreadedServer(ServeConfig(cache_dir="serve")).start()
        try:
            checks["listening"] = server.port > 0
            checks["after_start"] = "scipy.stats" in sys.modules
        finally:
            server.stop()
        print(json.dumps(checks))
    """, tmp_path)
    assert out == {"before_start": False, "listening": True,
                   "after_start": True}
