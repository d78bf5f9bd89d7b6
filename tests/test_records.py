"""The package's record types are named tuples, which cost far less to
define at import than dataclasses.  Each keeps the fields, keyword
construction, defaults, value equality, hashing, immutability and repr text
that it had as a dataclass.  ``CorpusResult`` and ``SuiteReport`` are plain
mutable classes, since their lists are filled or set after they are built."""

import pytest

from hyperrings.bitsets import mask_of
from hyperrings.classifiers import classify_ideal
from hyperrings.construct import (
    check_good_homomorphism,
    fundamental_ring,
    quotient,
    subhyperring_restrict,
)
from hyperrings.core import classify_ring
from hyperrings.corpus import CorpusResult, CorpusSpec, ordinary_ring
from hyperrings.ideals import profile
from hyperrings.theorems import (
    HOLDS,
    READING_AXES,
    REGISTRY_BY_ID,
    Reading,
    SuiteReport,
    TheoremVerdict,
    run_theorem,
)

Z4, Z2 = ordinary_ring(4), ordinary_ring(2)
HALF = mask_of([0, 2])

# one instance of each record type, with the repr its dataclass printed
RECORDS = {
    "RingFlags": (
        classify_ring(Z4),
        "RingFlags(integral_hyperdomain=False, reduced=False, regular_ring=False, "
        "invertible_ring=False)"),
    "ClassificationFlags": (
        classify_ideal(Z4, HALF),
        "ClassificationFlags(prime=True, primary=True, maximal=True, "
        "minimal_nonzero=True, essential=True, r_ideal=True, n_ideal=True, "
        "is_C=True, witnesses=())"),
    "IdealProfile": (
        profile(Z4, HALF),
        "IdealProfile(ring=HyperRing('Z4', size=4), members=5, is_hyperideal=True, "
        "is_C=True, is_proper=True)"),
    "QuotientImage": (
        quotient(Z4, HALF),
        "QuotientImage(ring=HyperRing('Z4/{0,2}', size=2), projection=(0, 1, 0, 1), "
        "source_name='Z4', ideal=5)"),
    "GoodHomomorphism": (
        check_good_homomorphism((0, 1, 0, 1), Z4, Z2),
        "GoodHomomorphism(source=HyperRing('Z4', size=4), "
        "target=HyperRing('Z2', size=2), mapping=(0, 1, 0, 1))"),
    "SubringImage": (
        subhyperring_restrict(Z4, HALF),
        "SubringImage(ring=HyperRing('Z4|{0,2}', size=2), embedding=(0, 2))"),
    "OrdinaryRing": (
        fundamental_ring(Z2).ring,
        "OrdinaryRing(name='Z2/fundamental', size=2, add=((0, 1), (1, 0)), "
        "mul=((0, 0), (0, 1)))"),
    "FundamentalRingImage": (
        fundamental_ring(Z2),
        "FundamentalRingImage(source_name='Z2', classes=(1, 2), projection=(0, 1), "
        "ring=OrdinaryRing(name='Z2/fundamental', size=2, add=((0, 1), (1, 0)), "
        "mul=((0, 0), (0, 1))))"),
    "CorpusSpec": (
        CorpusSpec(),
        "CorpusSpec(ordinary_range=(2, 12), zna_range=(2, 13), "
        "a_sets=((1,), (5, 7), (2, 3), (-1, 1)), total_range=None, closure_depth=1)"),
    "Reading": (
        Reading(standing="waived"),
        "Reading(regular='nzd', product='raw', prime_mode='relaxed', "
        "idempotent='weak', closed_subset='lenient', mult_subset='regular', "
        "standing='waived')"),
    "TheoremVerdict": (
        TheoremVerdict(theorem="T01", ring="Z4", status=HOLDS, witness=None,
                       readings={"standing": "required"}, reading_results={},
                       wall_ms=1.5),
        "TheoremVerdict(theorem='T01', ring='Z4', status='holds', witness=None, "
        "readings={'standing': 'required'}, reading_results={}, "
        "reading_sensitive=False, reverified=False, wall_ms=1.5)"),
}
# the dataclass was not frozen and held dicts, so it had no hash
UNHASHABLE = {"TheoremVerdict"}


def rebuilt(record):
    """An equal record built again by keyword from copies of its fields."""
    return type(record)(**{name: value.copy() if isinstance(value, dict) else value
                           for name, value in record._asdict().items()})


@pytest.mark.parametrize("name", RECORDS)
class TestRecord:
    def test_type_name_and_repr(self, name):
        record, text = RECORDS[name]
        assert type(record).__name__ == name
        assert repr(record) == text

    def test_equal_to_a_rebuilt_value(self, name):
        record, _ = RECORDS[name]
        again = rebuilt(record)
        assert again is not record and again == record
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(again)
        else:
            assert hash(again) == hash(record)
            assert len({record, again}) == 1

    def test_fields_refuse_assignment(self, name):
        record, _ = RECORDS[name]
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert rebuilt(record) == record


class TestReading:
    def test_with_flags_is_direct_construction(self):
        base = Reading(regular="vnr")
        flipped = base.with_flags(standing="waived", product="closed")
        direct = Reading(regular="vnr", product="closed", standing="waived")
        assert flipped == direct and hash(flipped) == hash(direct)
        assert base == Reading(regular="vnr")

    def test_with_flags_rejects_an_unknown_axis(self):
        with pytest.raises(TypeError):
            Reading().with_flags(standings="waived")

    def test_axes_list_the_field_defaults_first(self):
        """``Reading``'s field defaults are the default reading; the axis
        table names the same axes, in field order, each default first."""
        assert tuple(READING_AXES) == Reading._fields
        assert Reading() == Reading(**{axis: options[0]
                                       for axis, options in READING_AXES.items()})


class TestMutableResults:
    def test_verdicts_share_no_default_dict(self):
        with pytest.raises(TypeError):
            TheoremVerdict(theorem="T01", ring="Z4", status=HOLDS, witness=None)
        entry = REGISTRY_BY_ID["T01"]
        first, second = run_theorem(entry, Z4), run_theorem(entry, Z2)
        assert first.readings is not second.readings
        assert first.reading_results is not second.reading_results

    def test_corpus_result_lists_are_its_own(self):
        one, two = CorpusResult(), CorpusResult()
        one.rings.append(Z2)
        one.discarded.append(("Z1", "empty"))
        assert two.rings == [] and two.discarded == []
        built = CorpusResult(rings=[Z4], discarded=[])
        assert built.rings == [Z4] and built.discarded == []

    def test_suite_report_discarded_is_set_after(self):
        one = SuiteReport(readings={}, rings=[], verdicts=[])
        two = SuiteReport(readings={}, rings=[], verdicts=[])
        one.discarded.append(("Z1", "empty"))
        assert two.discarded == []
        two.discarded = [("Z0", "empty")]
        assert two.discarded == [("Z0", "empty")]
