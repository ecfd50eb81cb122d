"""Acceptance suite: every criterion at its stated tolerance, one line each.

The criteria live in superflows.selftest so that `superflows selftest` and
this module run the identical checks.  Run with `pytest -v -s` to see the
pass/fail line per criterion.
"""

import pytest

from superflows import selftest
from superflows.homog import RatVF
from superflows.matgroup import alpha_group

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
