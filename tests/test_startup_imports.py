"""The start-up path loads no scipy subpackage it never runs.

Every shard, merge and ``repro serve`` process starts cold, so what its
imports pull in is paid once per process.  ``scipy.stats`` alone loads
about half of scipy (``special``, ``optimize``, ``spatial``, ...), and
only the figure-4 ANOVA uses it.  This guard starts a fresh interpreter,
walks the runtime entry points up to a built scenario and a ready
verdict service, and fails if any of those subpackages was imported.
"""

import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Loaded by nothing a campaign, merge or serve process runs.
FORBIDDEN = ("scipy.stats", "scipy.special", "scipy.optimize",
             "scipy.spatial", "scipy.interpolate", "scipy.integrate",
             "scipy.ndimage", "scipy.fft")

_SCRIPT = textwrap.dedent("""
    import json, sys
    import repro.cli
    import repro.experiments.campaign
    import repro.service
    from repro.experiments import default_scenario
    from repro.service import VerdictService
    VerdictService(default_scenario(), seed=0)
    print(json.dumps(sorted(name for name in sys.modules
                            if name.startswith("scipy"))))
""")


def test_runtime_start_up_loads_no_heavy_scipy_subpackage():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
        text=True, timeout=300, check=True)
    loaded = json.loads(completed.stdout.splitlines()[-1])
    heavy = [name for name in loaded
             if ".".join(name.split(".")[:2]) in FORBIDDEN]
    assert heavy == []
