"""Every ``repro`` module imports first in a fresh interpreter.

An import cycle shows only for the module that opens it: a test run
that imports ``repro.serve`` before ``repro.storage`` never sees a
``storage -> serve -> checkpoint -> storage`` loop.  So each top-level
module (and the ``python -m repro.tune`` entry point CI runs) is
imported first, in its own subprocess."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
MODULES = sorted(f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__))


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    proc = _run("-c", f"import {module}")
    assert proc.returncode == 0, proc.stderr


def test_tune_cli_help():
    proc = _run("-m", "repro.tune", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--algo" in proc.stdout
