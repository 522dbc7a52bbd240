"""The input checks of the library that no other test reaches: each one
raises its own exception type with its own message."""

import argparse
import re

import pytest

from sc7core import cli
from sc7core.arith import factorize, kronecker_row
from sc7core.eisenstein import class_number_factor, eisenstein_coeff, theta_from_eisenstein
from sc7core.partitions import c_count, is_t_core, partitions_of
from sc7core.qseries import SC7_ETA_QUOTIENT, QSeries, eta_quotient_series
from sc7core.ternary import DECOMPOSITION_FORMS, sc7_from_thetas, theta_coeffs


@pytest.mark.parametrize("call, kind, message", [
    (lambda: factorize(0), ValueError, "cannot factor 0: need a positive integer"),
    (lambda: kronecker_row(-7, -1), ValueError, "limit must be non-negative"),
    (lambda: cli._positive("0"), argparse.ArgumentTypeError, "must be >= 1, got 0"),
    (lambda: class_number_factor(0), ValueError, "need a positive m, got 0"),
    (lambda: eisenstein_coeff(1, 0), ValueError, "need a positive m, got 0"),
    (lambda: theta_from_eisenstein(4, 1), ValueError, "theta index must be 1, 2 or 3, got 4"),
    (lambda: is_t_core((3, 1), 0), ValueError, "t must be a positive integer, got 0"),
    (lambda: next(partitions_of(-1)), ValueError, "n must be non-negative"),
    (lambda: c_count(-1, 7), ValueError, "n must be non-negative"),
    (lambda: c_count(3, 0), ValueError, "t must be a positive integer, got 0"),
    (lambda: QSeries([]), ValueError, "a QSeries needs at least the constant term"),
    (lambda: eta_quotient_series(SC7_ETA_QUOTIENT, 0), ValueError, "precision must be positive"),
    (lambda: theta_coeffs(DECOMPOSITION_FORMS[0], 0), ValueError, "precision must be positive"),
    (lambda: sc7_from_thetas(-1), ValueError, "need a non-negative n, got -1"),
], ids=["factorize", "kronecker_row", "_positive", "class_number_factor", "eisenstein_coeff",
        "theta_from_eisenstein", "is_t_core", "partitions_of", "c_count_n", "c_count_t",
        "QSeries", "eta_quotient_series", "theta_coeffs", "sc7_from_thetas"])
def test_input_check_raises(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as exc:
        call()
    assert type(exc.value) is kind


def test_qseries_repr_and_foreign_equality():
    assert repr(QSeries([1, 2])) == "QSeries([1, 2], precision=2)"
    assert repr(QSeries(range(10))) == "QSeries([0, 1, 2, 3, 4, 5, 6, 7, ...], precision=10)"
    # a QSeries never equals a plain sequence of the same coefficients
    assert QSeries([1]) != [1] and QSeries([1]).__eq__((1,)) is NotImplemented
