"""scipy loads on first use, and scipy.special before ``repro serve``
listens.

Importing scipy.stats costs about a second and 60 MB, and every process
that imports :mod:`repro` would pay it: the CLI, a sharded grid's
workers, each test subprocess.  Only the significance tests of
:mod:`repro.core.stats` need scipy, so they import it when they run, and
McNemar's and Spearman's p-values come from the ``scipy.special``
functions that ``scipy.stats`` evaluates for them (a third of the
import), as the same floats.  A server imports ``scipy.special`` up
front instead, so that its first cold full report does not import it on
a compute thread while hits wait on the same interpreter lock.

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

        def loaded():
            return ["scipy.special" in sys.modules,
                    "scipy.stats" in sys.modules]

        checks = {"after_imports": loaded()}

        from repro.sim.scenario import paper_sharded_scenario
        from repro.sim.shard import run_sharded_campaign

        sharded, origins, config = paper_sharded_scenario(
            seed=5, scale=0.02, n_shards=2)
        result = run_sharded_campaign(sharded, origins, config,
                                      n_trials=2, plane_dir="planes")
        result.report()
        checks["after_grid"] = loaded()

        import numpy as np
        from repro.core.stats import mcnemar, mcnemar_exact, spearman

        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        y = np.array([2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0])
        got = [mcnemar(7, 2), spearman(x, y)]
        checks["after_mcnemar_spearman"] = loaded()
        got.append(mcnemar_exact(3, 9))
        checks["after_exact"] = loaded()

        from scipy import stats

        statistic = (abs(7 - 2) - 1) ** 2 / 9
        rho = got[1][0]
        t = rho * np.sqrt(6 / (1.0 - rho ** 2))
        checks["mcnemar"] = got[0] == (
            statistic, float(stats.chi2.sf(statistic, df=1)))
        checks["spearman_p"] = got[1][1] == float(
            2.0 * stats.t.sf(abs(t), df=6))
        checks["spearman_rho"] = abs(
            got[1][0] - float(stats.spearmanr(x, y)[0])) < 1e-12
        checks["mcnemar_exact"] = got[2] == min(
            1.0, 2.0 * float(stats.binom.cdf(3, 12, 0.5)))
        print(json.dumps(checks))
    """, tmp_path)
    assert out == {"after_imports": [False, False],
                   "after_grid": [False, False],
                   "after_mcnemar_spearman": [True, False],
                   "after_exact": [True, True],
                   "mcnemar": True, "spearman_p": True,
                   "spearman_rho": True, "mcnemar_exact": True}


def test_p_values_equal_scipy_stats_on_a_grid():
    """McNemar's and Spearman's p-values through ``scipy.special`` are
    the floats ``scipy.stats`` returns, over a grid of discordant
    counts and of samples from 3 to 2,000 pairs."""
    import numpy as np
    from scipy import stats

    from repro.core.stats import mcnemar, spearman

    for b in range(0, 400, 3):
        for c in range(0, 400, 11):
            if b + c == 0:
                continue
            statistic, p_value = mcnemar(b, c)
            assert p_value == float(stats.chi2.sf(statistic, df=1)), (b, c)

    gen = np.random.default_rng(23)
    for n in [3, 4, 5, 7, 12, 30, 100, 999, 2000]:
        for sign, noise in ((1, 0.0), (-1, 0.0), (-1, 0.3), (1, 3.0)):
            x = gen.random(n)
            rho, p_value = spearman(x, sign * x + noise * gen.random(n))
            clamped = min(max(rho, -0.9999999), 0.9999999)
            t = clamped * np.sqrt((n - 2) / (1.0 - clamped ** 2))
            assert p_value == float(2.0 * stats.t.sf(abs(t), df=n - 2)), \
                (n, sign, noise)


def test_server_loads_scipy_special_before_listening(tmp_path):
    out = _run("""
        import json, sys

        from repro.serve.server import ServeConfig, ThreadedServer

        def loaded():
            return ["scipy.special" in sys.modules,
                    "scipy.stats" in sys.modules]

        checks = {"before_start": loaded()}
        server = ThreadedServer(ServeConfig(cache_dir="serve")).start()
        try:
            checks["listening"] = server.port > 0
            checks["after_start"] = loaded()
        finally:
            server.stop()
        print(json.dumps(checks))
    """, tmp_path)
    assert out == {"before_start": [False, False], "listening": True,
                   "after_start": [True, False]}
