"""The four value rules, and every config field going through one of them."""

import dataclasses
import math
import re

import numpy as np
import pytest

from sparsedistill.errors import FormatError, UsageError, as_choice, as_distinct, as_int, as_real
from sparsedistill.losses import LossConfig
from sparsedistill.optim import StudentTrainConfig
from sparsedistill.teacher import TeacherConfig


class TestRules:
    def test_real_bounds_and_infinity(self):
        assert as_real(2, "x") == 2.0 and type(as_real(2, "x")) is float
        assert as_real(np.float32(0.5), "x", 0, strict=True) == 0.5
        assert as_real(0, "x", 0) == 0.0
        assert as_real(-math.inf, "x", inf=True) == -math.inf
        for value, bound, named in ((0.0, dict(low=0, strict=True), "x must be positive, got 0.0"),
                                    (0.5, dict(low=1), "x must be >= 1, got 0.5"),
                                    (1.0, dict(low=1, strict=True), "x must be > 1, got 1.0"),
                                    (math.inf, {}, "x must be finite, got inf"),
                                    (-math.inf, dict(low=0, inf=True), "x must be >= 0, got -inf")):
            with pytest.raises(UsageError, match=re.escape(named)):
                as_real(value, "x", **bound)

    def test_real_refuses_what_is_not_a_real_number(self):
        for bad in (True, np.False_, "1.5", b"1.5", None, math.nan, [1.0], 1j, 10 ** 400):
            with pytest.raises(FormatError, match=re.escape(f"x must be a real number, got {bad!r}")):
                as_real(bad, "x", error=FormatError)

    def test_int_bound(self):
        assert as_int(np.int64(3), "n", 1) == 3 and type(as_int(3.0, "n")) is int
        with pytest.raises(UsageError, match="n must be >= 1, got 0"):
            as_int(0, "n", 1)

    def test_choice_compares_type_and_value(self):
        assert as_choice(None, "letter", (None, "a")) is None
        assert as_choice(True, "letter", (False, True)) is True
        for bad, options in (("c", ("a", "b")), (1, (False, True)), (0.0, (False, True)),
                             (None, ("a", "b")), ("None", (None, "a"))):
            with pytest.raises(UsageError, match=re.escape(f"unknown letter {bad!r}; expected one of")):
                as_choice(bad, "letter", options)

    def test_distinct_names_the_values_as_written(self):
        assert as_distinct((3, 1), "seed") == [3, 1]
        with pytest.raises(UsageError, match=re.escape("seed list [1, 0, 1] repeats a seed")):
            as_distinct([1, 0, 1], "seed")
        with pytest.raises(FormatError, match=re.escape("size list '30,30' repeats a size")):
            as_distinct([30, 30], "size", "30,30", error=FormatError)


CONFIG_FIELDS = [(cls, f) for cls in (LossConfig, StudentTrainConfig, TeacherConfig)
                 for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls, field", CONFIG_FIELDS,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f in CONFIG_FIELDS])
def test_every_config_field_states_a_rule(cls, field):
    """True (unless the field is a bool), a string and NaN are refused, naming the value; a field
    added without a rule fails here.  ``arch`` is parsed as an architecture, which raises
    FormatError.  A field whose default is None keeps accepting None."""
    error = FormatError if field.name == "arch" else UsageError
    bad_values = ([] if isinstance(field.default, bool) else [True]) + ["bogus", math.nan]
    for bad in bad_values:
        with pytest.raises(error, match=re.escape(repr(bad))):
            cls(**{field.name: bad})
    if field.default is None:
        assert getattr(cls(**{field.name: None}), field.name) is None


def test_q_of_the_active_l1lq_norm_must_be_a_real_number():
    for bad in (True, "2"):
        with pytest.raises(UsageError, match=re.escape(f"q must be a real number, got {bad!r}")):
            LossConfig(q=bad, bsr_variant="l1lq")
