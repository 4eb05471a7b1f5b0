"""What a command's start-up imports, checked in a fresh interpreter.

The benchmark's setup_s is the start-up a user's first command pays: the CLI
import plus the curve registry or the graph catalog.  quaddyn.jacobian and
quaddyn.chabauty load on use, so neither may be imported by then.  The
Chabauty proof reads its kernel generators as data, so a chabauty command
never loads quaddyn.jacobian.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("setup", ["from quaddyn.curves import load_registry; load_registry()",
                                   "from quaddyn.graphcat import builtin_catalog; builtin_catalog()"])
def test_start_up_imports_neither_the_jacobian_nor_chabauty(setup):
    code = (f"import sys\nimport quaddyn.cli\n{setup}\n"
            "print([m for m in ('quaddyn.jacobian', 'quaddyn.chabauty') if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_chabauty_runs_without_the_jacobian():
    code = ("import contextlib, io, sys\nimport quaddyn.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = quaddyn.cli.main(['chabauty', '--json'])\n"
            "print(rc, 'quaddyn.chabauty' in sys.modules, 'quaddyn.jacobian' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0 True False"


# dataclasses brings inspect, ast, dis and tokenize; importlib.resources brings
# pathlib, tempfile and urllib; argparse parses only help and malformed argv; a graph
# command needs none of them, nor the curves, nor quaddyn.factor and random, which
# only the dynatomic fallback uses
START_UP_FREE = ("dataclasses", "inspect", "typing", "importlib.resources", "argparse")


@pytest.mark.parametrize("setup, free", [
    ("from quaddyn.graphcat import builtin_catalog; builtin_catalog()",
     START_UP_FREE + ("quaddyn.curves", "quaddyn.factor", "random")),
    ("from quaddyn.curves import load_registry; load_registry()", START_UP_FREE),
], ids=["graph", "genus2"])
def test_start_up_without_site_loads_only_what_it_uses(setup, free):
    # -S: no site-packages .pth file may import these modules on the command's behalf
    code = (f"import sys\nimport quaddyn.cli\n{setup}\n"
            f"print([m for m in {free!r} if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
