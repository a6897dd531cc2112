"""The short form of huge integers in error texts, and the one finiteness
rule: a whole number past the float range is not finite, and every public
call that converts it raises a typed error instead of a bare OverflowError."""

import math
import sys
import warnings

import numpy as np
import pytest

from helpers import SIGNED_PAST_FLOAT_RANGE
from polarjiou import (
    OrientedBox,
    corner_set_distance,
    corners_to_box,
    decode_detections,
    encode_offset,
    extract_peaks,
    focal_loss,
    group_softmax,
    phi_distance,
    radius_at,
    render_heatmap,
    signed_area,
    smooth_l1,
    total_loss,
)
from polarjiou.errors import (
    MAX_PRINTED_DIGITS,
    GridAllocationError,
    InvalidBoxError,
    InvalidLossError,
    ShapeError,
    check_count,
    finite,
    short_int,
)


SHORT_FORMS = [
    (10**MAX_PRINTED_DIGITS - 1, "9" * MAX_PRINTED_DIGITS),
    (-(10**MAX_PRINTED_DIGITS - 1), "-" + "9" * MAX_PRINTED_DIGITS),
    (10**20, "100000000000000000000"),
    (10**MAX_PRINTED_DIGITS, f"1e+{MAX_PRINTED_DIGITS}"),
    (int(1e300), "1e+300"),
    (int(1.5e300), "1.5e+300"),
    (123456789 * 10**30, "1.23456e+38"),
    (10**400, "1e+400"),
    (10**400 - 1, "9.99999e+399"),
    (-(10**400 - 1), "-9.99999e+399"),
    (10**400 + 10**395, "1.00001e+400"),
]


@pytest.mark.parametrize("value, text", [pytest.param(v, t, id=t) for v, t in SHORT_FORMS])
def test_short_int(value, text):
    assert short_int(value) == text


def test_short_int_past_the_decimal_string_limit():
    """Python refuses str() of an int past 4300 digits by default; the
    short form never builds that string."""
    assert short_int(7 * 10**5000) == "7e+5000"


@pytest.mark.parametrize("value", [True, 2.5, 1e300, "abc", (1, 2)])
def test_other_values_print_as_str(value):
    assert short_int(value) == str(value)


def test_check_count_text_is_short():
    with pytest.raises(ValueError) as info:
        check_count("num_cases", -(10**400), 0)
    assert str(info.value) == "num_cases must be a whole number >= 0, got -1e+400"


FINITE_CASES = [
    pytest.param((0, 1.5, -2), True, id="small"),
    pytest.param((sys.float_info.max, -sys.float_info.max), True, id="largest-float"),
    pytest.param((int(sys.float_info.max), 10**308), True, id="int-inside-range"),
    pytest.param((np.float64(1.0), np.float32(2.5), np.int64(-3)), True, id="numpy-scalars"),
    pytest.param((2**1024,), False, id="2**1024"),
    pytest.param((10**400,), False, id="10**400"),
    pytest.param((-(10**400),), False, id="-10**400"),
    pytest.param((1.0, 10**400), False, id="one-past-range"),
    pytest.param((math.nan,), False, id="nan"),
    pytest.param((1.0, math.inf), False, id="inf"),
    pytest.param((-math.inf,), False, id="-inf"),
    pytest.param((np.float64(np.inf),), False, id="numpy-inf"),
    pytest.param((np.float32(np.nan),), False, id="numpy-nan"),
]


@pytest.mark.parametrize("values, expected", FINITE_CASES)
def test_finite(values, expected):
    assert finite(*values) is expected


def test_finite_refuses_a_str():
    with pytest.raises(TypeError):
        finite(1.0, "1.0")


QUAD = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]


def _quad_with(value):
    return [[0.0, 0.0], [2.0, 0.0], [2.0, value], [0.0, 1.0]]


# Each call with a whole number past the float range in one argument: the
# error type it documents, and its text with the value as errors.short_int
# prints it.
PAST_RANGE_CALLS = {
    "phi_distance": (lambda v: phi_distance(0.0, v), ValueError,
                     "angles must be finite, got a=0.0 and b={}"),
    "total_loss": (lambda v: total_loss(0.5, v, 0.0), InvalidLossError,
                   "non-finite loss components (0.5, {}, 0.0, 5.0)"),
    "encode_offset": (lambda v: encode_offset(3.0, v, 4), InvalidBoxError,
                      "non-finite center (3.0, {})"),
    "smooth_l1": (lambda v: smooth_l1((0.0, 1.0, 1.0, 0.0, v), [0.0, 1.0, 1.0, 0.0, 0.0]),
                  InvalidLossError, "non-finite SmoothL1 component"),
    "radius_at": (lambda v: radius_at(OrientedBox(0, 0, 2, 1, 0.3), v), ValueError,
                  "theta must be finite angles, got {}"),
    # A nested list names only its bad entry, not the whole list; a numeric str
    # in it converts as numpy converts it.
    "radius_at-list": (lambda v: radius_at(OrientedBox(0, 0, 2, 1, 0.3), [["0.0", 1.0], [2.0, v]]),
                       ValueError, "theta must be finite angles, got {}"),
    "corners_to_box": (lambda v: corners_to_box(_quad_with(v)), InvalidBoxError,
                       "non-finite corner coordinates"),
    "corner_set_distance": (lambda v: corner_set_distance(QUAD, _quad_with(v)),
                            InvalidBoxError, "non-finite corner coordinates"),
    "signed_area": (lambda v: signed_area(_quad_with(v)), InvalidBoxError,
                    "non-finite corner coordinates"),
    "extract_peaks": (lambda v: extract_peaks([[[0.5, v], [0.1, 0.2]]]), ShapeError,
                      "heatmap value {} is not finite"),
    "focal_loss-pred": (lambda v: focal_loss([[[0.5, v]]], [[[1.0, 0.0]]]), InvalidLossError,
                        "non-finite heatmap prediction {}"),
    "focal_loss-target": (lambda v: focal_loss([[[0.5, 0.2]]], [[[1.0, v]]]), ValueError,
                          "target values must lie in [0, 1], got {}"),
    "decode_detections-offset": (lambda v: decode_detections(
        [(0, 0, 0, 0.9)], [[[v]], [[0.0]]], [[[0.1]], [[2.0]], [[1.0]]], 4),
        InvalidBoxError, "non-finite offset map value {}"),
    "decode_detections-param": (lambda v: decode_detections(
        [(0, 0, 0, 0.9)], [[[0.0]], [[0.0]]], [[[0.1]], [[v]], [[1.0]]], 4),
        InvalidBoxError, "non-finite param map value {}"),
    "group_softmax-descriptor": (lambda v: group_softmax([1.0, v], [[[1.0, 0.0]]]), ShapeError,
                                 "non-finite descriptor values"),
    "group_softmax-map": (lambda v: group_softmax([1.0, 1.0], [[[1.0, v]]]), ShapeError,
                          "non-finite group map values"),
}


@pytest.mark.parametrize("name", PAST_RANGE_CALLS)
@pytest.mark.parametrize("value, text", SIGNED_PAST_FLOAT_RANGE)
def test_whole_number_past_the_float_range_raises_typed_error(name, value, text):
    """Not a bare OverflowError from the conversion to float, and no numpy warning."""
    call, error, message = PAST_RANGE_CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call(value)
    assert type(info.value) is error
    assert str(info.value) == message.format(text)


# Each call with a NaN or a float infinity where the calls above take an int
# past the float range: the same error type and text template, with the
# float in place of the int.
NON_FINITE_FLOAT_CALLS = {
    "radius_at": (lambda v: radius_at(OrientedBox(0, 0, 2, 1, 0.3), v), ValueError,
                  "theta must be finite angles, got {}"),
    "radius_at-list": (lambda v: radius_at(OrientedBox(0, 0, 2, 1, 0.3), [["0.0", 1.0], [2.0, v]]),
                       ValueError, "theta must be finite angles, got {}"),
    "corners_to_box": (lambda v: corners_to_box(_quad_with(v)), InvalidBoxError,
                       "non-finite corner coordinates"),
    "corner_set_distance": (lambda v: corner_set_distance(QUAD, _quad_with(v)),
                            InvalidBoxError, "non-finite corner coordinates"),
    "signed_area": (lambda v: signed_area(_quad_with(v)), InvalidBoxError,
                    "non-finite corner coordinates"),
    "extract_peaks": (lambda v: extract_peaks([[[0.5, v], [0.1, 0.2]]]), ShapeError,
                      "heatmap value {} is not finite"),
    "focal_loss-pred": (lambda v: focal_loss([[[0.5, v]]], [[[1.0, 0.0]]]), InvalidLossError,
                        "non-finite heatmap prediction {}"),
    "focal_loss-target": (lambda v: focal_loss([[[0.5, 0.2]]], [[[1.0, v]]]), ValueError,
                          "target values must lie in [0, 1], got {}"),
    "group_softmax-descriptor": (lambda v: group_softmax([1.0, v], [[[1.0, 0.0]]]), ShapeError,
                                 "non-finite descriptor values"),
    "group_softmax-map": (lambda v: group_softmax([1.0, 1.0], [[[1.0, v]]]), ShapeError,
                          "non-finite group map values"),
}


@pytest.mark.parametrize("name", NON_FINITE_FLOAT_CALLS)
def test_non_finite_float_and_past_range_int_share_error_and_text(name):
    """One rule for every kind of value that is not finite: a NaN, an
    infinity and an int past the float range get one error type and one
    text template."""
    assert NON_FINITE_FLOAT_CALLS[name][1:] == PAST_RANGE_CALLS[name][1:]


@pytest.mark.parametrize("name", NON_FINITE_FLOAT_CALLS)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_float_nan_or_infinity_raises_typed_error(name, value):
    """Not a peak at inf, an ignored cell at -inf or NaN, a focal loss
    that the clip of an infinite prediction keeps finite, nor an area or
    a profile that is NaN; and no numpy warning."""
    call, error, message = NON_FINITE_FLOAT_CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call(value)
    assert type(info.value) is error
    assert str(info.value) == message.format(value)


@pytest.mark.parametrize("shape", [(2**63, 0, 4), (0, 2**63, 0), (10**400, 0, 0)],
                         ids=["classes-2**63", "height-2**63", "classes-10**400"])
def test_size_past_intp_is_a_grid_allocation_error(shape):
    """One size past intp with another size 0 asks for no bytes, and numpy
    still refuses the shape; it is refused as the docstring promises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridAllocationError) as info:
            render_heatmap([], *shape, 1)
    assert info.value.shape == shape
