"""Acceptance suite: every criterion at its stated tolerance, one line each.

The criteria live in superflows.selftest so that `superflows selftest` and
this module run the identical checks.  Run with `pytest -v -s` to see the
pass/fail line per criterion.
"""

from types import SimpleNamespace

import pytest

from superflows import engine, selftest, symmetry
from superflows.cyclotomic import root_of_unity
from superflows.engine import SuperflowVerdict, find_superflow
from superflows.errors import BranchError
from superflows.flows import catalog
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


def test_character_sums_name_each_disagreeing_monomial(monkeypatch):
    # an "average" that returns every monomial unchanged keeps the ones off
    # their survivor class too: over a = -2..3 of alpha(3), all but a = 0
    monkeypatch.setattr(selftest, "reynolds_average", lambda group, field: field)
    result = selftest.criterion_character_sums()
    assert not result.passed
    assert result.detail == "; ".join(
        f"disagreement: alpha(3) component 0 a={a}" for a in (-2, -1, 1, 2, 3))


def test_reynolds_properties_fail_on_a_doubled_average(monkeypatch):
    # twice the identity is neither idempotent nor, on a field that is not
    # already invariant, invariant; trial 0 of m = 3 fails all three checks
    monkeypatch.setattr(selftest, "reynolds_average", lambda group, field: field.scale(2))
    result = selftest.criterion_reynolds()
    assert not result.passed
    assert result.detail.startswith(
        "m=3 trial 0: definition; m=3 trial 0: idempotence; m=3 trial 0: invariance")


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


def _paired_labels():
    return [flow.label for flow in catalog() if flow.family != "level0"]


def test_symmetry_families_name_each_random_matrix_that_passes(monkeypatch):
    monkeypatch.setattr(symmetry, "check_flow_symmetry", lambda L, flow, samples: (True, 0.0))
    result = selftest.criterion_symmetry_families()
    assert not result.passed
    assert result.detail == "; ".join(
        f"{label}: random matrix passed (0.00e+00)" for label in _paired_labels() for _ in range(20))


def test_symmetry_families_skip_a_draw_off_the_branch(monkeypatch):
    # a draw that leaves the flow's branch is skipped, not counted: with every
    # other draw skipped the criterion still passes, and with all of them no
    # flow gets its 20 usable draws within 200 attempts
    check = symmetry.check_flow_symmetry
    calls = []

    def every_other(L, flow, samples):
        calls.append(L)
        if len(calls) % 2:
            raise BranchError("radicand path meets zero")
        return check(L, flow, samples)

    monkeypatch.setattr(symmetry, "check_flow_symmetry", every_other)
    assert selftest.criterion_symmetry_families().passed
    assert len(calls) >= 2 * 20 * len(_paired_labels())

    def never(L, flow, samples):
        raise BranchError("radicand path meets zero")

    monkeypatch.setattr(symmetry, "check_flow_symmetry", never)
    result = selftest.criterion_symmetry_families()
    assert not result.passed
    assert result.detail == "; ".join(
        f"{label}: only 0 usable off-family draws" for label in _paired_labels())


def test_symmetry_families_fail_on_wrong_finite_orders(monkeypatch):
    # zeta_4 in place of zeta_3 makes the order-6 generator the identity,
    # and a law that answers 1 everywhere misses both other orders
    monkeypatch.setattr(selftest, "root_of_unity", lambda n: root_of_unity(n + 1))
    monkeypatch.setattr(symmetry, "family_finite_order", lambda family, params: 1)
    result = selftest.criterion_symmetry_families()
    assert not result.passed
    assert result.detail == (
        "order-6 generator fails exact powering; gamma(d=1, b=2) should be infinite; "
        "delta(b, zeta_6) should have order 6")
