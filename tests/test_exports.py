"""Every name a module exports through __all__ resolves, importing the
package stays light, the CLI imports only public names, and no module
imports a thread library."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repeatcap
import repeatcap.numerics

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", (repeatcap, repeatcap.numerics), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_cold_import_loads_no_scipy_mpmath_or_process_pool():
    # A fresh interpreter importing the package and its CLI must not pull in
    # scipy or mpmath (log-gamma and Ei live in numerics) nor the process
    # pool (bounds imports it only when it opens one).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    heavy = ["scipy", "mpmath", "concurrent.futures.process"]
    code = (
        "import json, sys\n"
        "import repeatcap, repeatcap.cli\n"
        f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_the_cli_imports_only_public_names():
    # The CLI is a client of the package's public interface: a private
    # name it needs is a sign that a rule lives in the wrong module.
    tree = ast.parse((ROOT / "src" / "repeatcap" / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repeatcap")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_module_imports_a_thread_library():
    # The package starts no thread (its pool uses processes), and its q-free
    # caches hold values that do not depend on the order they were filled
    # in, so a lock would guard traffic that no caller produces.
    found = []
    for path in sorted((ROOT / "src" / "repeatcap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names
                      if n.split(".")[0] in ("threading", "_thread")]
    assert found == []
