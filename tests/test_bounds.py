import math

import pytest

from polyapprox import bounds
from polyapprox.bounds import (C_SEL, consistency_sweep, ed_closed,
                               ed_large_range_step, ed_range_closed,
                               ed_range_sweep, ed_small_range_step, ed_sweep,
                               entropy_binom_check, kdnf_closed, kdnf_step,
                               kdnf_sweep, symmetric_closed)


def test_entropy_binomial_upper_bound():
    for n in (4, 16, 60):
        for k in range(1, n):
            assert entropy_binom_check(n, k)


def test_kdnf_closed_form_base_cases():
    assert kdnf_closed(64, 0, 0.5) == 0
    assert kdnf_closed(0, 3, 0.5) == 0
    v = kdnf_closed(64, 2, 0.25)
    assert 0 < v <= 64


def test_ed_closed_k1_is_sqrt():
    for n in (64, 256, 1024):
        for delta in (1, 4):
            expect = min(n, C_SEL * math.sqrt(n * delta))
            assert ed_closed(n, 1, delta) == pytest.approx(expect, rel=1e-9)


def test_closed_forms_clamp_at_n():
    assert kdnf_closed(8, 3, 100) <= 8
    assert ed_closed(8, 2, 100) <= 8
    assert ed_range_closed(8, 4, 2, 100) <= 8
    assert symmetric_closed(8, 2, 100) <= 8


def test_recurrence_steps_dominated_by_closed_forms():
    assert not kdnf_sweep()
    assert not ed_sweep()
    assert not ed_range_sweep()


def test_consistency_sweep_clean():
    assert consistency_sweep() == []


def test_sweeps_do_flag_deficient_constants(monkeypatch):
    monkeypatch.setattr(bounds, "C_SEL", 0.01)
    assert kdnf_sweep() or ed_sweep() or ed_range_sweep()


def test_step_functions_monotone_in_inner():
    a = kdnf_step(64, 2, 0.5, lambda *args: 1.0)
    b = kdnf_step(64, 2, 0.5, lambda *args: 2.0)
    assert a <= b
    a = ed_small_range_step(64, 4, 2, 1, lambda *args: 1.0)
    b = ed_small_range_step(64, 4, 2, 1, lambda *args: 2.0)
    assert a <= b
    a = ed_large_range_step(64, 2, 1, lambda *args: 1.0)
    b = ed_large_range_step(64, 2, 1, lambda *args: 2.0)
    assert a <= b
