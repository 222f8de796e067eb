"""Prints the acceptance scoreboard after the run.

pytest captures file descriptors while tests execute, so the acceptance
tests record their verdicts in test_acceptance.RESULTS and this summary
hook writes the one-line-per-criterion scoreboard where it is actually
visible (including under `pytest ... | tee`).

Property tests draw their examples from a seed derived from each test
function, so a run's examples depend only on the commit; each test's own
``@settings(max_examples=...)`` still sets how many it draws.
"""

import sys

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


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
