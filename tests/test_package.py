"""The package namespace: each module's ``__all__``, stated once."""

import json
import os
import subprocess
import sys

import predcal

MODULES = ("bayes", "calibrate", "experiments", "kernels", "linalg", "regression", "rng", "systems")


def test_the_package_exports_exactly_the_modules_public_names():
    # a fresh process: importing a submodule such as predcal.cli adds its name
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(predcal.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    listed = subprocess.run(
        [sys.executable, "-c",
         "import json, predcal; print(json.dumps([n for n in dir(predcal) if n[0] != '_']))"],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    modules = [getattr(predcal, name) for name in MODULES]
    public = [name for m in modules for name in m.__all__]
    # a name in two lists would be exported from whichever module came last
    assert len(public) == len(set(public))
    assert set(json.loads(listed)) == set(public) | set(MODULES)
    for m in modules:
        for name in m.__all__:
            assert getattr(predcal, name) is getattr(m, name), (m.__name__, name)
