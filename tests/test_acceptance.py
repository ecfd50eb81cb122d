"""Acceptance suite: every criterion at its stated tolerance, one line each.

The criteria live in superflows.selftest so that `superflows selftest` and
this module run the identical checks.  Run with `pytest -v -s` to see the
pass/fail line per criterion.
"""

from types import SimpleNamespace

import pytest

from superflows import engine, selftest
from superflows.engine import SuperflowVerdict, find_superflow
from superflows.homog import RatVF
from superflows.matgroup import alpha_group, tau

NAMES = [name for name, _ in selftest.CRITERIA]


@pytest.mark.parametrize("name", NAMES)
def test_acceptance_criterion(name):
    result = dict(selftest.CRITERIA)[name]()
    print(f"{'PASS' if result.passed else 'FAIL'}  {name}  ({result.elapsed:.2f}s)  {result.detail}")
    assert result.name == name
    assert result.passed, f"{name}: {result.detail}"


def test_every_criterion_is_registered_once_in_order():
    defined = [value for attr, value in vars(selftest).items() if attr.startswith("criterion_")]
    assert [criterion for _, criterion in selftest.CRITERIA] == defined
    assert NAMES == [
        "classification", "character_sum_oracle", "reynolds_properties", "flow_identities",
        "orbit_checks", "symmetry_families", "impossibility", "tau_reduction",
    ]


def test_reynolds_properties_fails_on_a_zero_map(monkeypatch):
    # the zero field is idempotent and invariant, so only the comparison with
    # the definitional sum and the nonzero count catch a map to zero
    monkeypatch.setattr(selftest, "reynolds_average", lambda group, field: RatVF.zero())
    result = selftest.criterion_reynolds()
    assert not result.passed
    assert "definition" in result.detail


def test_reynolds_properties_fails_when_every_average_is_zero(monkeypatch):
    # alpha(4m) holds -I, so every average is zero and rightly so: the
    # definitional sum, idempotence and invariance hold, and only the
    # nonzero count fails
    monkeypatch.setattr(selftest, "alpha_group", lambda m: alpha_group(4 * m))
    result = selftest.criterion_reynolds()
    assert not result.passed
    assert "every average is zero" in result.detail and "definition" not in result.detail


def test_classification_names_each_wrong_row(monkeypatch):
    # m = 4 given a superflow, and m = 7 given the field of m = 11
    rows = [(4, None, find_superflow(alpha_group(7))), (7, None, find_superflow(alpha_group(11)))]
    monkeypatch.setattr(engine, "classify_alpha", lambda m_lo, m_hi: iter(rows))
    result = selftest.criterion_classification()
    assert not result.passed
    assert result.detail == f"m=4: status superflow; m=7: field {rows[1][2].field!r}"
    assert repr(rows[1][2].field) == "RatVF(y^6/x^4 • 0)"


def test_a_criterion_past_its_time_limit_fails(monkeypatch):
    clock = iter([0.0, 45.0])
    monkeypatch.setattr(selftest, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    result = selftest.criterion_classification()
    assert not result.passed and result.elapsed == 45.0
    assert result.detail == "runtime 45.0s exceeds 30s"


def test_impossibility_fails_on_a_verdict_without_the_shortcut(monkeypatch):
    superflow = find_superflow(alpha_group(7))
    monkeypatch.setattr(engine, "find_superflow", lambda group: superflow)
    result = selftest.criterion_impossibility()
    assert not result.passed
    assert result.detail.startswith(
        "m=4: shortcut not taken; m=4: superflow, survivor classes [None, None]")


def test_tau_reduction_names_a_missing_and_a_wrong_superflow(monkeypatch):
    # in call order: m = 6 gets no superflow, and m = 10 is compared with the odd case m = 7
    calls = []

    def find(group):
        calls.append(group)
        if len(calls) == 1:
            return SuperflowVerdict("none", None, None, 0)
        return find_superflow(alpha_group(7) if len(calls) == 4 else group)

    monkeypatch.setattr(engine, "find_superflow", find)
    result = selftest.criterion_tau_reduction()
    assert not result.passed and len(calls) == 6
    odd = find_superflow(alpha_group(7)).field.conjugate(tau()).normalized()
    even = find_superflow(alpha_group(10)).field
    assert result.detail == (
        f"m=6: missing superflow; m=10: {even.pretty()} != tau-conj {odd.pretty()}")
