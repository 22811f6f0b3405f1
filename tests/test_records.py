"""The package's value records: fields, defaults, input checks, equality and immutability."""

import math
import re

import numpy as np
import pytest

from pagecurve import InputError, analytic, gaussian, haar, montecarlo, verify

SQUEEZE = analytic.SqueezingConfig((0.5, 0.5, 0.5))
MEAN = np.eye(2)
STDERR = np.zeros((2, 2))

# class, every field by keyword in declared order, the fields that have
# defaults, one field changed, and bad keyword arguments with the InputError
# message each gives
CASES = [
    (analytic.SqueezingConfig, {"values": (0.5, -0.25)}, {}, {"values": (0.5,)}, [
        ({"values": ()}, "need at least one mode"),
        ({"values": (0.5, math.nan)}, "squeezing values must be finite, got (0.5, nan)"),
    ]),
    (analytic.SeriesInfo, {"value": 0.25, "tail_bound": 1e-11, "terms": 40, "mode": "kink"},
     {}, {"mode": "direct"}, []),
    (gaussian.SymplecticSpectrum, {"values": (3.0, 1.5, 1.0)}, {}, {"values": (3.0, 1.0)}, [
        ({"values": (2.0, 0.5)}, "symplectic eigenvalues must be >= 1, got 0.5"),
    ]),
    (haar.SeededStream, {"master_seed": 7, "stream_index": 3}, {"stream_index": 0},
     {"stream_index": 4}, [
        ({"master_seed": -1}, "master_seed must fit in 64 bits, got -1"),
        ({"master_seed": 1, "stream_index": 2**64},
         f"stream_index must fit in 64 bits, got {2**64}"),
    ]),
    (montecarlo.RunConfig,
     {"n": 3, "squeezing": SQUEEZE, "subsystem_sizes": (0, 1, 3), "samples": 10,
      "master_seed": 5, "workers": 2, "stream_namespace": 4},
     {"master_seed": 0, "workers": 1, "stream_namespace": 0}, {"stream_namespace": 5}, [
        ({"n": 0, "squeezing": SQUEEZE, "subsystem_sizes": (), "samples": 1},
         "n must be >= 1, got 0"),
        ({"n": 2, "squeezing": SQUEEZE, "subsystem_sizes": (1,), "samples": 1},
         "squeezing has 3 entries for n=2 modes"),
        ({"n": 3, "squeezing": SQUEEZE, "subsystem_sizes": (4,), "samples": 1},
         "subsystem sizes must lie in [0, 3]"),
        ({"n": 3, "squeezing": SQUEEZE, "subsystem_sizes": (1,), "samples": 0},
         "samples must be >= 1, got 0"),
        ({"n": 3, "squeezing": SQUEEZE, "subsystem_sizes": (1,), "samples": 1, "workers": 0},
         "workers must be >= 1, got 0"),
    ]),
    (montecarlo.CurveEstimate,
     {"subsystem_sizes": (0, 1), "mean_s2": (0.0, 0.5), "var_s2": (0.0, 0.1),
      "stderr_s2": (0.0, 0.01), "samples": 10, "master_seed": 1,
      "rng_algorithm": "philox4x64", "sampler": "haar-row-frame-jacobi", "n": 2,
      "squeezing": (0.5, 0.5)}, {}, {"samples": 11}, []),
    (montecarlo.ConstantEstimate,
     {"value": 0.1, "stderr": 0.01, "ladder": (8, 16), "per_n": (0.12, 0.11), "samples": 10,
      "master_seed": 1, "rng_algorithm": "philox4x64", "sampler": "haar-row-frame-jacobi"},
     {}, {"value": 0.2}, []),
    (montecarlo.TypicalityRecord,
     {"n": 20, "k": 5, "epsilon": 0.1, "strong_deviation_frequency": 0.2,
      "weak_deviation_frequency": 0.0, "mean_s2": 3.5, "samples": 10}, {}, {"k": 4}, []),
    (montecarlo.DerivativeEstimate,
     {"derivative": 0.3, "stderr": 0.01, "negative_fraction": 0.0, "h_plus": 0.251,
      "h_minus": 0.249, "samples": 10}, {}, {"stderr": 0.02}, []),
    (montecarlo.MeanCovarianceResult,
     {"max_abs_deviation": 0.01, "max_sigma_units": 1.5, "target_diagonal": 1.2,
      "mean": MEAN, "stderr": STDERR, "samples": 10}, {}, {"max_sigma_units": 2.0}, []),
    (verify.CheckResult,
     {"name": "a check", "passed": True, "observed": "1", "expected": "1",
      "tolerance": "exact", "seconds": 0.5}, {}, {"passed": False}, []),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, changed, bad", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_contract(cls, fields, defaults, changed, bad):
    record = cls(**fields)
    # field names and order: positional construction agrees, and the repr names each field
    assert cls(*fields.values()) == record
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    for name, value in fields.items():
        assert getattr(record, name) is value or getattr(record, name) == value

    required = {name: value for name, value in fields.items() if name not in defaults}
    bare = cls(**required)
    for name, value in defaults.items():
        assert getattr(bare, name) == value

    for kwargs, message in bad:
        with pytest.raises(InputError, match=re.escape(message)):
            cls(**kwargs)

    # equality and hashing by value, against a copy that holds the same field objects
    twin = cls(**fields)
    assert twin == record and not twin != record
    other = cls(**{**fields, **changed})
    assert other != record and not other == record
    if any(isinstance(value, np.ndarray) for value in fields.values()):
        with pytest.raises(TypeError):  # an array field makes the record unhashable
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert len({record, twin, other}) == 2

    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)

    if cls is verify.CheckResult:
        assert record.as_dict() == fields
        assert type(record.as_dict()) is dict
