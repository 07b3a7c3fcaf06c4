"""A fresh process that imports the package and its CLI loads no annotation-only module.

Every ``cauchykit`` command runs in a new interpreter and pays for its imports
before its first useful instruction.  ``dataclasses`` pulls in ``inspect``
(and with it ``ast``, ``dis`` and ``tokenize``); ``typing`` is only ever
needed for annotations, which ``from __future__ import annotations`` leaves
unevaluated.  The probe runs with ``-S`` so that modules preloaded by site
hooks cannot hide one of them coming back.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "typing")

PROBE = f"""
import sys
sys.path.insert(0, sys.argv[1])
import cauchykit, cauchykit.cli
print(cauchykit.__file__)
print(" ".join(name for name in {HEAVY!r} if name in sys.modules))
"""


def test_the_package_and_its_cli_import_without_dataclasses_inspect_or_typing():
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, check=True)
    origin, loaded = proc.stdout.split("\n")[:2]
    assert Path(origin).resolve().parent == SRC / "cauchykit"
    assert loaded == ""
