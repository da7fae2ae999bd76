"""Tests for the host-speed calibration helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import calib  # noqa: E402
from calib import REFERENCE_SLICE_S as REF  # noqa: E402
from calib import HostSpeed, measure, scale_factor  # noqa: E402


def test_factor_is_reference_over_local_median():
    marks = [(1.0, 1.002, REF), (1.05, 1.052, 2 * REF), (1.1, 1.102, 2 * REF)]
    assert scale_factor(marks, 1.0, 1.1) == pytest.approx(0.5)


def test_factor_uses_only_slices_near_the_interval():
    marks = [(1.0, 1.002, REF), (5.0, 5.002, 4 * REF)]
    assert scale_factor(marks, 0.95, 0.99) == pytest.approx(1.0)
    assert scale_factor(marks, 5.01, 5.05) == pytest.approx(0.25)


def test_factor_falls_back_to_nearest_slices():
    marks = [(1.0, 1.002, 2 * REF)]
    assert scale_factor(marks, 9.0, 10.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        scale_factor([], 0.0, 1.0)


def test_measure_cuts_slices_out_and_scales_each_segment():
    # A quiet host until t=3, then one twice as slow.
    marks = [(1.0, 1.002, REF), (3.0, 3.002, 2 * REF)]
    raw, scaled = measure(marks, 0.9, 4.0)
    assert raw == pytest.approx(0.1 + 1.998 + 0.998)
    # [0.9, 1.0] sees the quiet slice, [1.002, 3.0] both (median 1.5 REF),
    # [3.002, 4.0] the slow one.
    assert scaled == pytest.approx(0.1 + 1.998 / 1.5 + 0.998 / 2)


def test_measure_without_slices_inside():
    marks = [(0.0, 0.002, 2 * REF), (2.0, 2.002, 2 * REF)]
    assert measure(marks, 0.05, 1.95) == pytest.approx((1.9, 0.95))


def test_hooked_call_is_a_checkpoint(monkeypatch):
    monkeypatch.setattr(calib, "CHECKPOINT_S", 0.0)

    class Model:
        def evaluate(self, x):
            return 2 * x

    speed = HostSpeed()
    speed.hook(Model, "evaluate")
    assert Model().evaluate(3) == 6
    assert Model().evaluate(4) == 8
    assert len(speed.marks) == 2
    before, after, seconds = speed.marks[0]
    assert before < after and seconds > 0
