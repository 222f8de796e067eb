"""Prints the acceptance scoreboard after the run.

pytest captures file descriptors while tests execute, so the acceptance
tests record their verdicts in test_acceptance.RESULTS and this summary
hook writes the one-line-per-criterion scoreboard where it is actually
visible (including under `pytest ... | tee`).

Property tests draw their examples from a seed derived from each test
function, so a run's examples depend only on the commit; each test's own
``@settings(max_examples=...)`` still sets how many it draws.  With
``HYPOTHESIS_PROFILE=deep`` in the environment they draw ten times as
many, from a fresh random seed each run: a search for inputs that the
fixed examples miss.  Pin what it finds as an ``@example``.
"""

import os
import sys

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("deep", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))


def pytest_collection_modifyitems(items):
    """Under the deep profile, scale every property test's example count."""
    if settings.get_current_profile_name() != "deep":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "obj", None)
        if getattr(test, "is_hypothesis_test", False) and id(test) not in scaled:
            scaled.add(id(test))  # parametrised cases share one function
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(own, max_examples=10 * own.max_examples)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    recorded = dict(getattr(mod, "RESULTS", {})) if mod else {}

    # Outcomes straight from the reports, so a crash before the verdict
    # line still shows up as a FAIL row.
    outcomes = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, ()):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_" not in nodeid:
                continue
            name = nodeid.split("::test_", 1)[1]
            num = int(name[:2])
            ok = key == "passed"
            prev = outcomes.get(num)
            outcomes[num] = (ok if prev is None else prev[0] and ok, name[3:])

    if not outcomes and not recorded:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(set(outcomes) | set(recorded)):
        if num in recorded:
            label, ok, detail = recorded[num]
        else:
            ok, label = outcomes[num]
            detail = "" if ok else "did not complete"
        if num in outcomes and not outcomes[num][0]:
            ok = False
        line = f"acceptance {num:2d}/10 [{'PASS' if ok else 'FAIL'}] {label}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
