"""Start-up of the command line: importing it and parsing load no numpy.

``import loopwalk`` resolves its public names lazily (PEP 562), so every
check runs in a fresh interpreter: once any test has imported numpy or a
physics module it stays loaded for the rest of the session.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# argv after the source path goes to main; prints main's return value or
# exit code, then whether numpy was loaded
CLI_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from loopwalk.cli import main
argv = sys.argv[2:]
code = None
if argv:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
print(code, "numpy" in sys.modules)
"""


def _python(code: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, SRC, *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, result",
    [
        ([], "None False"),  # import loopwalk.cli alone
        (["--version"], "0 False"),
        (["correlate", "--help"], "0 False"),
        (["correlate", "--n-modes", "many"], "2 False"),  # argparse usage error
        (["theta-opt", "--n", "2"], "0 True"),  # a command that runs loads the physics
    ],
)
def test_parsing_loads_no_numpy(argv, result):
    assert _python(CLI_PROBE, *argv) == result


# each probe starts from a package none of whose names has been resolved
EXPORT_PROBES = {
    "getattr": """
import sys
sys.path.insert(0, sys.argv[1])
import loopwalk
values = {name: getattr(loopwalk, name) for name in loopwalk.__all__}
ns = {}
exec("from loopwalk import *", ns)
assert all(ns[name] is value for name, value in values.items())
print("ok")
""",
    "star": """
import sys
sys.path.insert(0, sys.argv[1])
ns = {}
exec("from loopwalk import *", ns)
import loopwalk
assert set(loopwalk.__all__) <= set(ns) and set(loopwalk.__all__) <= set(dir(loopwalk))
assert all(ns[name] is getattr(loopwalk, name) for name in loopwalk.__all__)
print("ok")
""",
}


@pytest.mark.parametrize("first", sorted(EXPORT_PROBES))
def test_every_public_name_resolves(first):
    assert _python(EXPORT_PROBES[first]) == "ok"


def test_public_names_come_from_their_modules():
    import loopwalk
    import loopwalk.model

    assert loopwalk.ConfigError is loopwalk.model.ConfigError
    assert loopwalk.DeviceConfig is loopwalk.model.DeviceConfig
    assert loopwalk.spectra is sys.modules["loopwalk.spectra"]


def test_unknown_name_is_attribute_error():
    import loopwalk

    with pytest.raises(AttributeError, match="no_such_name"):
        loopwalk.no_such_name
    with pytest.raises(ImportError):
        exec("from loopwalk import no_such_name", {})
