"""Value semantics of the package's records.

Every record is immutable, equals another of its own type with equal
fields, hashes by its fields when they are hashable, prints as
``Type(field=value, ...)`` and changes only through ``_replace``, which
builds and checks a new record.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from rootstack_gw import (
    Divisor,
    DivisorArrangement,
    GradedSeries,
    LaurentPolynomial,
    PeriodSequence,
    RootData,
    TargetSpace,
    check_assumption,
    check_identities,
    classical_period_orbifold,
    compare_periods,
    config_from_dict,
    mirror_map,
    stabilization_check,
)
from rootstack_gw.algebra import AmbientRing, Record
from rootstack_gw.invariants import InvariantTable, TableEntry
from rootstack_gw.targets import ConfigurationError

PLANE = TargetSpace((2,))
LINE_CONIC = DivisorArrangement((Divisor("L", (1,)), Divisor("C", (2,))))
ENTRY = TableEntry((1,), (), (1,), 0, (0, 0))

# One small instance of every record type, built afresh on each call.
BUILDERS = {
    "AmbientRing": lambda: AmbientRing.for_product((2,)),
    "SeriesContext": lambda: PLANE.context(2, 3, z_floor=-1, roots=(7, 11)),
    "JobConfig": lambda: config_from_dict(
        {
            "target": {"factors": [2]},
            "divisors": [{"name": "L", "coeffs": [1]}, {"name": "C", "coeffs": [2]}],
            "roots": [7, 11],
            "cap": 3,
        }
    ),
    "TargetSpace": lambda: TargetSpace((1, 1)),
    "Divisor": lambda: Divisor("L", (1,)),
    "DivisorArrangement": lambda: DivisorArrangement((Divisor("C", (2,)),)),
    "RootData": lambda: RootData((7, 11)),
    "AssumptionReport": lambda: check_assumption(PLANE, LINE_CONIC, 3),
    "IdentityReport": lambda: check_identities(PLANE, LINE_CONIC, (1,))[0],
    "MirrorMapReport": lambda: mirror_map(GradedSeries.z_power(PLANE.context(2, 3), 1)),
    "StabilizationCase": lambda: stabilization_check(
        PLANE, LINE_CONIC, [RootData((7, 11))], 2
    ).cases[0],
    "StabilizationReport": lambda: stabilization_check(
        PLANE, LINE_CONIC, [RootData((7, 11))], 2
    ),
    "InvariantTable": lambda: InvariantTable({ENTRY: F(2)}, []),
    "PeriodSequence": lambda: PeriodSequence("quantum", (F(1), F(0), F(6))),
    "ClassicalPeriod": lambda: classical_period_orbifold(PLANE, LINE_CONIC, 3),
    "PeriodComparison": lambda: compare_periods(PLANE, LINE_CONIC, 3),
    "LaurentPolynomial": lambda: LaurentPolynomial.parse("x + 1/x"),
}

# Records holding a series or a table view are unhashable, as their fields are.
UNHASHABLE = {
    "IdentityReport",
    "MirrorMapReport",
    "StabilizationCase",
    "StabilizationReport",
    "InvariantTable",
}


@pytest.fixture(params=sorted(BUILDERS))
def pair(request):
    """Two independently built, equal records of one type."""
    build = BUILDERS[request.param]
    first, second = build(), build()
    assert type(first).__name__ == request.param
    return first, second


def test_every_record_type_is_covered():
    # the imports above load every module that defines a record
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(BUILDERS)


def test_fields_refuse_assignment_and_deletion(pair):
    record, _ = pair
    for name in record._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_values_make_equal_records(pair):
    first, second = pair
    assert first is not second
    assert first == second
    assert not first != second
    if type(first).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


def test_replace_builds_a_new_record(pair):
    record, twin = pair
    same = record._replace()
    assert same == record and same is not record
    name = record._fields[0]
    changed = record._replace(**{name: getattr(twin, name)})
    assert changed == record
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)
    assert record == twin


def test_records_of_different_types_differ():
    assert TargetSpace((7, 11)) != RootData((7, 11))
    assert RootData((7, 11)) != (7, 11)
    assert PeriodSequence("classical", (F(1),)) != PeriodSequence("laurent", (F(1),))


def test_replace_leaves_the_original_and_checks_again():
    roots = RootData((7, 11))
    assert roots._replace(orders=(5, 7)) == RootData((5, 7))
    assert roots.orders == (7, 11)
    with pytest.raises(ConfigurationError):
        roots._replace(orders=())
    with pytest.raises(ConfigurationError):
        TargetSpace((2,))._replace(factors=(0,))
    with pytest.raises(ConfigurationError):
        LINE_CONIC._replace(divisors=())
    with pytest.raises(ValueError, match="must start 1, 0"):
        PeriodSequence("quantum", (F(1), F(0)))._replace(coeffs=(F(2), F(0)))


def test_constructor_takes_fields_by_position_or_keyword():
    assert Divisor("L", (1,)) == Divisor(coeffs=(1,), name="L")
    ctx = PLANE.context(2, 3)
    assert ctx.z_floor is None and ctx.roots is None
    with pytest.raises(TypeError, match="missing field 'coeffs'"):
        Divisor("L")
    with pytest.raises(TypeError, match="takes 2 fields"):
        Divisor("L", (1,), 3)
    with pytest.raises(TypeError, match="repeated field 'name'"):
        Divisor("L", name="M")


def test_cached_ring_is_kept_and_ignored_by_equality():
    target = TargetSpace((2, 1))
    assert target.ring is target.ring
    assert target == TargetSpace((2, 1))
    assert hash(target) == hash(TargetSpace((2, 1)))


def test_invariant_table_cannot_be_changed():
    source = {ENTRY: F(2)}
    flagged = []
    table = InvariantTable(source, flagged)
    source[ENTRY] = F(3)
    flagged.append(None)
    assert table.value((1,), insertion=(1,), sector=(0, 0)) == 2
    assert table.flagged == ()
    with pytest.raises(TypeError):
        table.entries[ENTRY] = F(5)
    with pytest.raises(AttributeError):
        table.flagged.append(None)
    assert InvariantTable() == InvariantTable({}, ())


# One repr per module, in the form of a dataclass repr.
@pytest.mark.parametrize(
    "record, text",
    [
        (AmbientRing.for_product((2, 1)), "AmbientRing(caps=(2, 1), names=('P1', 'P2'))"),
        (
            BUILDERS["JobConfig"]()._replace(cap=1, roots=None),
            "JobConfig(target=TargetSpace(factors=(2,)), arrangement=DivisorArrangement("
            "divisors=(Divisor(name='L', coeffs=(1,)), Divisor(name='C', coeffs=(2,)))), "
            "roots=None, cap=1, m=None)",
        ),
        (TargetSpace((2,)), "TargetSpace(factors=(2,))"),
        (
            BUILDERS["IdentityReport"](),
            "IdentityReport(name='local-tangency', beta=(1,), sign=-1, left=GradedSeries("
            "2*TermKey(beta=(1,), zpow=-1, xexp=(), sector=(0, 0), mono=(2,), lam=(0, 0))), "
            "right=GradedSeries(2*TermKey(beta=(1,), zpow=-1, xexp=(), sector=(0, 0), "
            "mono=(2,), lam=(0, 0))))",
        ),
        (
            InvariantTable({ENTRY: F(2)}, ()),
            "InvariantTable(entries=mappingproxy({TableEntry(beta=(1,), xexp=(), "
            "insertion=(1,), psi=0, sector=(0, 0)): Fraction(2, 1)}), flagged=())",
        ),
        (
            PeriodSequence("quantum", (F(1), F(0))),
            "PeriodSequence(kind='quantum', coeffs=(Fraction(1, 1), Fraction(0, 1)))",
        ),
    ],
)
def test_repr_is_pinned(record, text):
    assert repr(record) == text

