"""The short form of huge integers in error texts."""

import pytest

from polarjiou.errors import MAX_PRINTED_DIGITS, check_count, short_int


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
