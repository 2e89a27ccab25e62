"""What the benchmark harness under perfbench/ needs of the package.

A benchmark worker refuses to run unless every package `lru_cache` is empty
after import (each repetition must fill them cold, as a CLI user does), and
the harness's own self-test must pass.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")

PROBE = """\
import importlib, json, pkgutil, sys
import realspectra
for info in pkgutil.walk_packages(realspectra.__path__, "realspectra."):
    importlib.import_module(info.name)
filled = {}
for key, module in list(sys.modules.items()):
    if not key.startswith("realspectra."):
        continue
    for attr, value in vars(module).items():
        if hasattr(value, "cache_info") and \\
                getattr(value, "__module__", None) == key:
            filled[f"{key}.{attr}"] = value.cache_info().currsize
print(json.dumps(filled))
"""


def _env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REALSPECTRA_CACHE_DIR", None)
    return env


def test_every_lru_cache_is_empty_after_import():
    done = subprocess.run([sys.executable, "-c", PROBE], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    caches = json.loads(done.stdout)
    assert "realspectra.localcoh._gens" in caches
    assert "realspectra.coefficients.weight_tuples" in caches
    assert {name: size for name, size in caches.items() if size} == {}


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
