"""The package's records are immutable named tuples.

Each record compares and hashes by its fields.  The three input records
check their fields on every construction path, ``_replace`` included,
and the check of :class:`QuantumCheckMatrix` runs in a method named
``__post_init__``, which the benchmark's tracer wraps by that name.
"""

import pytest

from ebitcalc import (
    BinMatrix,
    CodeParameters,
    DependentRowsError,
    LaurentCheckMatrix,
    LaurentMatrix,
    QuantumCheckMatrix,
    RealCheckMatrix,
    RowReduction,
    SgsopResult,
    ShapeError,
    SweepResult,
    VerificationReport,
)

ONE = BinMatrix.from_strings(["1"])
ZERO = BinMatrix.from_strings(["0"])

# name -> a function that builds the same record afresh on each call
RECORDS = {
    "RowReduction": lambda: RowReduction(ONE, ONE, (0,), 1),
    "QuantumCheckMatrix": lambda: QuantumCheckMatrix(ONE, ZERO),
    "SgsopResult": lambda: SgsopResult(
        ONE, QuantumCheckMatrix(ONE, ZERO), (), (0,), 0
    ),
    "CodeParameters": lambda: CodeParameters(5, 4, 0),
    "LaurentCheckMatrix": lambda: LaurentCheckMatrix(
        LaurentMatrix.zeros(1, 2), LaurentMatrix.zeros(1, 2)
    ),
    "RealCheckMatrix": lambda: RealCheckMatrix([[1.0]], [[0.0]]),
    "VerificationReport": lambda: VerificationReport(
        "1 generators on 1 qubits", 0, 0, 0, True, "formula 0"
    ),
    "SweepResult": lambda: SweepResult(1, 3, ()),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_and_compare_by_fields(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b
    if name != "RealCheckMatrix":  # its fields are numpy arrays, which do not hash
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], b[0])
    with pytest.raises(AttributeError):
        a.extra = 1  # no instance dict
    assert repr(a).startswith(f"{name}({a._fields[0]}=")


def test_code_parameters_distance_defaults_to_none():
    assert CodeParameters(5, 4, 0).distance is None
    assert CodeParameters(5, 4, 0) != CodeParameters(5, 4, 0, 3)


def test_replace_runs_the_constructor_checks():
    with pytest.raises(DependentRowsError):
        QuantumCheckMatrix(ONE, ZERO)._replace(hz=ZERO)
    with pytest.raises(ShapeError):
        RECORDS["LaurentCheckMatrix"]()._replace(hx=LaurentMatrix.zeros(1, 3))
    with pytest.raises(ValueError, match="below 1"):
        RECORDS["RealCheckMatrix"]()._replace(tolerance=1.0)
    assert RECORDS["RealCheckMatrix"]()._replace(tolerance=0.5).tolerance == 0.5


def test_quantum_check_runs_in_post_init(monkeypatch):
    # Every construction path calls __post_init__ by name, so a tracer or
    # a spy that replaces it sees every check.
    checked = []
    check = QuantumCheckMatrix.__post_init__

    def spy(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(QuantumCheckMatrix, "__post_init__", spy)
    h = QuantumCheckMatrix(ONE, ZERO)
    QuantumCheckMatrix.from_stacked(BinMatrix.from_strings(["01"]))
    QuantumCheckMatrix.reduced(
        BinMatrix.from_strings(["1", "1"]), BinMatrix.from_strings(["0", "0"])
    )
    h._replace(hx=ONE)
    assert len(checked) == 4
