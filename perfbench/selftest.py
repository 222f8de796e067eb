"""Self-test of the benchmark's tracer wiring.

    python3 perfbench/selftest.py

Checks that the tracer wraps a name in every module that imported it,
records spans from many threads without losing any, reports a renamed
entry point as absent instead of crashing, and that a traced run of each
workload records at least one span for every layer the workload claims
to exercise.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import types

from run import HERE, ROOT
from tracer import Target, Tracer
from workloads import WORKLOADS


def _probe_modules():
    """A defining module and one that copied the binding with from-import."""
    home = types.ModuleType("loopwalk._perfbench_probe_home")
    exec("def work(x):\n    return x + 1\n", home.__dict__)
    user = types.ModuleType("loopwalk._perfbench_probe_user")
    user.work = home.work
    return home, user


def test_wraps_every_binding():
    home, user = _probe_modules()
    original = home.work
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        tracer = Tracer([Target("probe", home.__name__, "work")])
        with tracer:
            assert user.work is not original and home.work is not original
            assert user.work(1) == 2
        assert user.work is original and home.work is original
        assert [s.name for s in tracer.take()] == ["_perfbench_probe_home.work"]
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_wraps_loopwalk_imports():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import loopwalk.cli
    import loopwalk.correlations

    original = loopwalk.correlations.compose
    with Tracer() as tracer:
        bound = set(tracer.bindings())
        assert {"loopwalk.cli.device_correlation", "loopwalk.correlations.compose",
                "loopwalk.correlations.eigensystem_for", "loopwalk.cli.delayed_run",
                "loopwalk.fock_oracle.lift_to_two_photon"} <= bound, bound
        assert loopwalk.correlations.compose is not original
    assert loopwalk.correlations.compose is original
    assert tracer.absent == [], tracer.absent


def test_threads_lose_no_span():
    home, _ = _probe_modules()
    sys.modules[home.__name__] = home
    threads_n, calls = 8, 500
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer([Target("probe", home.__name__, "work")]) as tracer:
            def hammer():
                for i in range(calls):
                    home.work(i)
            threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        spans = tracer.take()
        assert len(spans) == threads_n * calls, len(spans)
        assert len({s.id for s in spans}) == len(spans)
        assert all(s.parent is None for s in spans)
    finally:
        sys.setswitchinterval(interval)
        del sys.modules[home.__name__]


def test_renamed_entry_point_is_absent():
    tracer = Tracer([Target("propagate", "loopwalk.propagate", "no_such_entry_point")])
    with tracer:
        pass
    assert tracer.absent == ["propagate.no_such_entry_point"], tracer.absent


def test_traced_run_covers_claimed_layers(name: str):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"], summary
    with open(os.path.join(ROOT, ".perfbench_out", f"{name}-seed1-trace1.json")) as fh:
        trace = json.load(fh)["trace"]
    assert trace["missing_layers"] == [], trace["missing_layers"]
    assert trace["absent"] == [], trace["absent"]
    for layer in WORKLOADS[name].layers:
        assert trace["layer_spans"].get(layer, 0) >= 1, (layer, trace["layer_spans"])


def main() -> int:
    test_wraps_every_binding()
    test_wraps_loopwalk_imports()
    test_threads_lose_no_span()
    test_renamed_entry_point_is_absent()
    print("tracer wiring: ok")
    for name in WORKLOADS:
        test_traced_run_covers_claimed_layers(name)
        print(f"{name}: every claimed layer traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
