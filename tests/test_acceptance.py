"""Acceptance suite: one test per entry of ``selftest.ACCEPTANCE_CHECKS``,
each printing its PASS line.

The tests are generated from that list, numbered in its order and named
after the check function, so the list is the only place the criteria are
enumerated.  The same checks back the ``cl33 selftest`` command; the full run
stays well inside a one-minute budget.
"""

import re

import pytest

from cl33.selftest import ACCEPTANCE_CHECKS, check_algebra_axioms


def _criterion_test(name, check):
    def test():
        ok, detail = check()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return test


for _number, (_name, _check) in enumerate(ACCEPTANCE_CHECKS, start=1):
    _test_name = f"test_criterion_{_number}_{_check.__name__.removeprefix('check_')}"
    globals()[_test_name] = _criterion_test(_name, _check)


def test_selftest_budget():
    import time

    from cl33.selftest import run_selftest

    start = time.perf_counter()
    lines = []
    assert run_selftest(emit=lines.append)
    elapsed = time.perf_counter() - start
    print(f"selftest wall time {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0
    assert len(lines) == 11
    # each check line ends in its own wall time; the total line keeps its form
    assert all(re.search(r" \[\d+\.\d\ds\]$", line) for line in lines[:-1]), lines
    assert re.fullmatch(r"PASS total \(\d+\.\ds\)", lines[-1]), lines[-1]


def test_selftest_perturbed_signature_fails():
    ok, _ = check_algebra_axioms(squares=(1, 1, 1, -1, -1, 1))
    assert not ok


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
