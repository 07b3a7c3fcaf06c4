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


# The forked ``verify`` sends its reports back with ``marshal``, which every
# interpreter has loaded at start-up.  ``pickle`` alone adds about 0.4 MB of
# RSS to the CLI process, and a pool module far more start-up.
TRANSPORTS = ("pickle", "multiprocessing", "concurrent", "subprocess")

VERIFY_PROBE = f"""
import io, os, sys
sys.path.insert(0, sys.argv[1])
import cauchykit.cli
os.sched_getaffinity = lambda pid: {{0, 1}}  # the forked path, whatever the host
real, sys.stdout = sys.stdout, io.StringIO()
code = cauchykit.cli.main(["verify", "--grid", "n=3"])
sys.stdout = real
print(code)
print(" ".join(name for name in {TRANSPORTS!r} if name in sys.modules))
"""


def test_verify_loads_no_pickle_pool_or_subprocess_module():
    proc = subprocess.run([sys.executable, "-S", "-c", VERIFY_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True)
    code, loaded = proc.stdout.split("\n")[:2]
    assert code == "0"
    assert loaded == ""
