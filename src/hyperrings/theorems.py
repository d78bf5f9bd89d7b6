"""Registry of machine-checkable propositions about r- and n-hyperideals,
with an exhaustive runner over a corpus of finite hyperrings.

Every registry entry instantiates its quantifiers exhaustively over the
ring under test (ideals, elements, bounded families of subsets, irredundant
covers by ideals of any size, and good homomorphisms between corpus members
within a size cap) and returns one of three verdicts: ``holds``,
``counterexample`` (with the lexicographically least witness), or
``not-applicable`` with a reason: the first of its ``HYPOTHESES`` the ring
fails, or a ``CapExceeded`` at run time (T35's hom candidates).

Readings
--------
A handful of notions are genuinely ambiguous in the underlying theory, so
entries are evaluated under explicit reading flags and any divergence from
the default reading is reported as reading-sensitive rather than as a
failure:

* ``regular``: whether "regular element" means non-zero-divisor (default)
  or von Neumann regular.
* ``product``: whether an ideal product means the literal set product
  (default) or its additive/ideal closure.
* ``prime_mode``: whether the zero ideal may be classified prime (default
  ``relaxed``) or primes must be nonzero (``strict``).
* ``idempotent``: ``x in x o x`` (default ``weak``) or ``x o x = {x}``.
* ``closed_subset``: the extra-regular-element clause of r-closed subsets,
  waived when no such element exists in the ring (default ``lenient``) or
  enforced literally (``literal``).
* ``standing``: every entry assumes a commutative carrier with identity in
  which every hyperideal is a C-hyperideal; rings violating the C part are
  skipped by default (``required``) or tested anyway (``waived``).

The default reading of each axis is its ``Reading`` field default, and
``READING_AXES`` lists it first.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from io import BytesIO
from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import BinaryIO, Callable, NamedTuple, Optional

from .bitsets import bits, elements_of, is_subset, singleton, subset_key
from .core import (
    CapExceeded,
    HyperRing,
    ZERO_MASK,
    classify_ring,
    hprod,
    set_sum,
)
from .classifiers import (
    CLASS_HYPERIDEAL,
    CLASS_N,
    CLASS_PRIME,
    CLASS_R,
    MODE_RELAXED,
    MODE_STRICT,
    class_members,
    is_essential,
    is_minimal_nonzero,
    is_n_mult_closed,
    is_primary,
    is_r_mult_closed,
    maximal_disjoint_masks,
    maximal_members,
    minimal_primes,
    r_witness,
    regular_mask,
)
from .construct import (
    classical_n_ideal,
    enumerate_good_homomorphisms,
    fundamental_ring,
    matrix_cap_exceeded,
    matrix_hyperring,
    matrix_ideal_mask,
    product_factor_sizes,
    quotient,
    subhyperring_masks,
    subhyperring_restrict,
)
from .ideals import (
    ann_of_set,
    colon,
    generated_ideal_mask,
    hyperideal_masks,
    ideal_product,
    is_C_hyperideal,
    is_hyperideal,
    principal_masks,
    set_product,
    zero_radical,
)

GAMMA_CAP = 10  # carrier size up to which T40 builds the fundamental ring
HOM_SIZE_CAP = 36

HOLDS = "holds"
COUNTEREXAMPLE = "counterexample"
NOT_APPLICABLE = "not-applicable"

READING_AXES: dict[str, tuple[str, ...]] = {
    "regular": ("nzd", "vnr"),
    "product": ("raw", "closed"),
    "prime_mode": (MODE_RELAXED, MODE_STRICT),
    "idempotent": ("weak", "strict"),
    "closed_subset": ("lenient", "literal"),
    "mult_subset": ("regular", "any"),
    "standing": ("required", "waived"),
}

class Reading(NamedTuple):
    regular: str = "nzd"
    product: str = "raw"
    prime_mode: str = MODE_RELAXED
    idempotent: str = "weak"
    closed_subset: str = "lenient"
    mult_subset: str = "regular"
    standing: str = "required"

    def with_flags(self, **kw: str) -> "Reading":
        return Reading(**(self._asdict() | kw))

    def label(self, axes: tuple[str, ...]) -> str:
        return ",".join(f"{a}={getattr(self, a)}" for a in sorted(axes))


class _RecordingReading:
    """A :class:`Reading` that notes each axis an evaluation reads.

    It forwards only the names in ``READING_AXES`` and raises on any other
    attribute: ``with_flags`` or ``label`` would read every axis without
    recording it.  It compares and hashes equal to the reading it wraps.
    """

    def __init__(self, reading: Reading):
        self._reading = reading

    def __getattr__(self, name: str) -> str:
        if name not in READING_AXES:
            raise AttributeError(f"a recorded reading has only its axes, "
                                 f"not {name!r}")
        value = getattr(self._reading, name)
        # kept on the instance, so later reads of the axis skip this hook
        # and the instance dict is the record
        setattr(self, name, value)
        return value

    def axes_read(self) -> dict[str, str]:
        """Each axis read so far, with its value."""
        return {a: v for a, v in vars(self).items() if a in READING_AXES}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _RecordingReading):
            other = other._reading
        return self._reading == other

    def __hash__(self) -> int:
        return hash(self._reading)


def reading_from_flags(flags: dict[str, str]) -> Reading:
    for axis, value in flags.items():
        if axis not in READING_AXES:
            raise ValueError(f"unknown reading axis {axis!r}")
        if value not in READING_AXES[axis]:
            raise ValueError(f"axis {axis!r} has no reading {value!r}")
    return Reading(**flags)


# ---------------------------------------------------------------------------
# per-ring workspace


class RingContext:
    """The registry's view of one ring, shared by all registry entries.

    Ideal families and the radical of zero come from the library functions
    that define them, which keep them on the :class:`HyperRing`, on a
    carrier of any size.  ``r_ok`` and ``is_n`` read the r- and n-law of a
    hyperideal off those cached classes.
    Only registry-specific values are memoised here: the standing gate, the
    candidate-subset families, colons, ideal products, the irredundant
    covers of each ideal, factor witnesses, and T35's first failure on each
    target.  None of them depends on a reading except through the axis
    value in its key, so every reading and every entry shares them.  No key
    carries the ``product`` axis: an ideal product is kept as its raw and
    closed forms together.  T35 keys its targets by their position in the
    run, so a context serves the one run whose suite lists its targets.

    An axis is read only where its options differ on the ring
    (:meth:`primes`, :meth:`prod`, :meth:`lenient`), so an evaluation that
    skips the read is also the evaluation of the other option, and the
    sweep reuses its status.  Derived rings are built by the checker that
    reads them, once per evaluation, and are dropped with it.
    """

    def __init__(self, ring: HyperRing):
        self.ring = ring
        self._cache: dict = {}

    def _memo(self, key, producer):
        if key not in self._cache:
            self._cache[key] = producer()
        return self._cache[key]

    # -- basic families ----------------------------------------------------
    @property
    def size(self) -> int:
        return self.ring.size

    @property
    def e(self) -> Optional[int]:
        return self.ring.identity

    def ideals(self) -> tuple[int, ...]:
        return hyperideal_masks(self.ring)

    def proper(self) -> tuple[int, ...]:
        return self._class(CLASS_HYPERIDEAL)

    def genzero(self) -> int:
        return self._memo("genzero",
                          lambda: generated_ideal_mask(self.ring, ZERO_MASK))

    def rad0(self) -> int:
        return zero_radical(self.ring)

    def standing_ok(self) -> bool:
        """Whether every proper hyperideal is a C-hyperideal."""
        return self._memo("standing", lambda: all(
            is_C_hyperideal(self.ring, m) for m in self.proper()))

    # -- element sets -------------------------------------------------------
    def reg(self, rd: Reading) -> int:
        return regular_mask(self.ring, rd.regular)

    def lenient(self, rd: Reading) -> bool:
        """Whether ``is_r_mult_closed`` waives its extra-regular-element
        clause.  The waiver applies only when no regular element other than
        the identity exists, so ``closed_subset`` is read only then; on any
        other ring both readings give False."""
        if self.reg(rd) & ~singleton(self.e):
            return False
        return rd.closed_subset == "lenient"

    # -- classifications ----------------------------------------------------
    def is_n(self, members: int) -> bool:
        """The n-law on a hyperideal, read off the cached n-class."""
        return members in self.n_class()

    def r_ok(self, members: int) -> bool:
        """The r-law on a hyperideal, read off the cached r-class; the
        carrier meets it vacuously."""
        return members == self.ring.carrier_mask or members in self.r_class()

    def _class(self, which: str, *mode: str) -> tuple[int, ...]:
        """The family as ``class_members`` caches it; the mode is passed
        only for primes, the one family that depends on it."""
        return class_members(self.ring, which, *mode)

    def n_class(self) -> tuple[int, ...]:
        return self._class(CLASS_N)

    def r_class(self) -> tuple[int, ...]:
        return self._class(CLASS_R)

    def _prime_mode(self, rd: Reading) -> str:
        """The ``prime_mode`` to classify primes under.  The two modes
        disagree only on the zero ideal, so the axis is read only when
        {0} is a relaxed prime."""
        if ZERO_MASK in self._class(CLASS_PRIME, MODE_RELAXED):
            return rd.prime_mode
        return MODE_RELAXED

    def primes(self, rd: Reading) -> tuple[int, ...]:
        return self._class(CLASS_PRIME, self._prime_mode(rd))

    def minimal_primes(self, rd: Reading) -> tuple[int, ...]:
        return minimal_primes(self.ring, self._prime_mode(rd))

    # -- arithmetic ----------------------------------------------------------
    def prod(self, rd: Reading, left: int, right: int) -> int:
        """``left o right`` under the ``product`` reading, which is read
        only when the raw set product is not a hyperideal: otherwise
        ``ideal_product`` returns that same set."""
        def compute() -> tuple[int, int]:
            raw = set_product(self.ring, left, right)
            if is_hyperideal(self.ring, raw):
                return raw, raw
            return raw, ideal_product(self.ring, left, right)
        raw, closed = self._memo(("prod", left, right), compute)
        if raw == closed or rd.product == "raw":
            return raw
        return closed

    def colon(self, members: int, against: int) -> int:
        key = ("colon", members, against)
        return self._memo(key, lambda: colon(self.ring, members, against))

    def ann(self, x: int) -> int:
        return self.ring.annihilators[x]

    def factor_witness(self, i_mask: int,
                       meets: int) -> Optional[tuple[int, int]]:
        """Least ideals (A, B) with A meeting ``meets``, ``A o B`` inside I
        and B not: the ideal form of the r-law (T01) and of the n-law
        (T22)."""
        def compute() -> Optional[tuple[int, int]]:
            all_ideals = self.ideals()
            for a_mask in all_ideals:
                if not a_mask & meets:
                    continue
                for b_mask in all_ideals:
                    if is_subset(set_product(self.ring, a_mask, b_mask),
                                 i_mask) and not is_subset(b_mask, i_mask):
                        return a_mask, b_mask
            return None
        return self._memo(("factor", i_mask, meets), compute)

    def irredundant_covers(self, i_mask: int) -> tuple[tuple[int, ...], ...]:
        """Every family of two or more ideals whose union contains
        ``i_mask`` and from which no member can be dropped, by size and then
        in combination order.

        A member can be dropped exactly when its trace on I has no private
        point, one that no other member holds.  Every ideal holds 0, so a
        member meets I outside {0}, and none contains I (the others could
        all be dropped): only such ideals are candidates.  Adding a member
        only shrinks the private sets, so a branch of the depth-first search
        ends as soon as some member has none.  A member added once I is
        covered has none, so a family is recorded when it covers I and
        grows no further.  The search thus meets each irredundant cover of
        any size once.
        """
        def compute() -> tuple[tuple[int, ...], ...]:
            candidates = [m for m in self.ideals()
                          if m & i_mask & ~ZERO_MASK
                          and not is_subset(i_mask, m)]
            found: list[tuple[int, ...]] = []

            # once and many: the points of I held by one member, by several
            def grow(family, once, many, start):
                for j in range(start, len(candidates)):
                    grown = family + (candidates[j],)
                    trace = candidates[j] & i_mask
                    now_many = many | once & trace
                    now_once = (once | trace) & ~now_many
                    if any(not m & now_once for m in grown):
                        continue
                    if now_once | now_many == i_mask:
                        found.append(grown)
                    else:
                        grow(grown, now_once, now_many, j + 1)

            grow((), 0, 0, 0)
            return tuple(sorted(found, key=len))
        return self._memo(("covers", i_mask), compute)

    # -- bounded subset families ---------------------------------------------
    def mult_closed_family(self) -> tuple[int, ...]:
        """Closures of single elements (plus the identity) under products."""
        def close(seed: int) -> int:
            m = seed
            while True:
                grown = m | hprod(self.ring, m, m)
                if grown == m:
                    return m
                m = grown

        def compute() -> tuple[int, ...]:
            seeds = [singleton(x) for x in range(self.size)]
            if self.e is not None:
                seeds += [singleton(x) | singleton(self.e)
                          for x in range(self.size)]
            return tuple(sorted({close(s) for s in seeds}, key=subset_key))
        return self._memo("mult_closed_family", compute)

    def candidate_subsets(self) -> tuple[int, ...]:
        """Deterministic family used to instantiate subset quantifiers:
        complements of proper ideals plus multiplicative closures."""
        def compute() -> tuple[int, ...]:
            out = {self.ring.carrier_mask & ~m for m in self.proper()}
            out.update(self.mult_closed_family())
            nonrad = self.ring.carrier_mask & ~self.rad0()
            if nonrad:
                m = nonrad
                while True:
                    grown = m | hprod(self.ring, nonrad, m)
                    if grown == m:
                        break
                    m = grown
                out.add(m)
            out.discard(0)
            return tuple(sorted(out, key=subset_key))
        return self._memo("candidate_subsets", compute)

    def rmc_family(self, rd: Reading) -> tuple[int, ...]:
        lenient = self.lenient(rd)
        return self._memo(("rmc", rd.regular, lenient), lambda: tuple(
            s for s in self.candidate_subsets()
            if is_r_mult_closed(self.ring, s, rd.regular, lenient)))

    def nmc_family(self) -> tuple[int, ...]:
        return self._memo("nmc", lambda: tuple(
            s for s in self.candidate_subsets()
            if is_n_mult_closed(self.ring, s)))

    def colon_subjects(self) -> tuple[int, ...]:
        """Subsets used for colon-style quantifiers: singletons, ideals,
        and the full carrier."""
        def compute() -> tuple[int, ...]:
            out = {singleton(x) for x in range(self.size)}
            out.update(self.ideals())
            out.add(self.ring.carrier_mask)
            return tuple(sorted(out, key=subset_key))
        return self._memo("colon_subjects", compute)


# ---------------------------------------------------------------------------
# registry entries and their hypotheses


def _standing(ctx: RingContext, rd: Reading) -> Optional[str]:
    """The standing gate: a ring that meets it does not read the axis."""
    if ctx.standing_ok() or rd.standing == "waived":
        return None
    return "standing assumption violated: some hyperideal is not a C-hyperideal"


HYPOTHESES: dict[str, Callable[[RingContext, Reading], Optional[str]]] = {
    "identity": lambda ctx, rd: "no identity" if ctx.e is None else None,
    "commutative": lambda ctx, rd: (
        None if ctx.ring.commutative else "noncommutative carrier"),
    "standing": _standing,
    "reduced": lambda ctx, rd: (
        None if classify_ring(ctx.ring).reduced else "ring is not reduced"),
    "scalar identity": lambda ctx, rd: (
        None if ctx.ring.scalar_identity else "no scalar identity"),
    "matrix cap": lambda ctx, rd: (  # the cap of matrix_hyperring(ring, 2)
        None if (exc := matrix_cap_exceeded(ctx.ring, 2)) is None
        else f"matrix cap: {exc}"),
    "gamma cap": lambda ctx, rd: (
        f"gamma cap: carrier size {ctx.size} exceeds {GAMMA_CAP}"
        if ctx.size > GAMMA_CAP else None),
    "product": lambda ctx, rd: (
        None if product_factor_sizes(ctx.ring) else "not a product construction"),
}
SHARED_HYPOTHESES = ("identity", "commutative", "standing")


def _unmet(names: tuple[str, ...], ctx: RingContext, rd: Reading) -> Optional[str]:
    """The reason of the first of ``names`` the ring fails, or None."""
    for name in names:
        reason = HYPOTHESES[name](ctx, rd)
        if reason is not None:
            return reason
    return None


CheckResult = tuple[str, Optional[dict]]
Checker = Callable[[RingContext, Reading, "Suite"], CheckResult]


@dataclass(frozen=True)
class TheoremEntry:
    """A dataclass, unlike the package's named-tuple records, because
    ``perfbench/tracer.py`` wraps each checker with ``dataclasses.replace``."""

    tid: str
    statement: str
    axes: tuple[str, ...]
    checker: Checker
    hypotheses: tuple[str, ...] = ()  # names in HYPOTHESES, checked in order
    notes: str = ""


class Suite:
    """Shared context for a run: the corpus, the alternate readings of each
    entry, and the verdict dicts every cell with the same items shares."""

    def __init__(self, contexts: list[RingContext]):
        self.contexts = contexts
        self._alternates: dict[tuple, list[tuple[Reading, str]]] = {}
        self._shared: dict[tuple, dict] = {}

    def alternates(self, axes: tuple[str, ...],
                   base: Reading) -> list[tuple[Reading, str]]:
        """The readings other than ``base`` that vary it on ``axes``, each
        with its label; computed once per run for each (axes, base)."""
        key = (axes, base)
        if key not in self._alternates:
            self._alternates[key] = [(rd, rd.label(axes))
                                     for rd in _reading_combos(axes, base)
                                     if rd != base]
        return self._alternates[key]

    def shared(self, items: tuple) -> dict:
        """The one dict of ``items`` for the whole run.  Verdicts hold it,
        so no reader may change it."""
        out = self._shared.get(items)
        if out is None:
            out = self._shared[items] = dict(items)
        return out


REGISTRY: list[TheoremEntry] = []


def entry(tid: str, statement: str, axes: tuple[str, ...] = (), **kw):
    def wrap(fn: Checker) -> Checker:
        REGISTRY.append(TheoremEntry(tid=tid, statement=statement, axes=axes,
                                     checker=fn, **kw))
        return fn
    return wrap


def _ce(**kw) -> CheckResult:
    witness = {}
    for k, v in kw.items():
        if isinstance(v, int) and k.endswith("_set"):
            witness[k[:-4]] = elements_of(v)
        else:
            witness[k] = v
    return COUNTEREXAMPLE, witness


# --- r-hyperideal basics (T01..T08) ----------------------------------------


@entry("T01",
       "For hyperideals: (1) I is r-closed iff every ideal product inside I "
       "whose left factor meets the regular elements forces the right factor "
       "into I; (2) r-ideals can be cancelled across an ideal factor or "
       "intersection that meets the regular elements; (3) if I o J is a "
       "proper r-ideal for some ideal J meeting the regular elements, then "
       "I = I o J and I is r-closed.",
       axes=("regular", "product"))
def _t01(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    reg = ctx.reg(rd)
    all_ideals = ctx.ideals()
    # part 1: the equivalence, for every proper ideal
    for i_mask in ctx.proper():
        lhs = ctx.r_ok(i_mask)
        wit = ctx.factor_witness(i_mask, reg)
        if lhs != (wit is None):
            return _ce(part=1, ideal_set=i_mask, holds_r=lhs,
                       factor_pair=[elements_of(w) for w in wit] if wit else None)
    # part 2: cancellation
    r_class = ctx.r_class()
    for i_mask in all_ideals:
        if not i_mask & reg:
            continue
        for a_mask in r_class:
            for b_mask in r_class:
                if a_mask == b_mask:
                    continue
                if ctx.prod(rd, i_mask, a_mask) == ctx.prod(rd, i_mask, b_mask):
                    return _ce(part=2, kind="product", ideal_set=i_mask,
                               left_set=a_mask, right_set=b_mask)
                if (i_mask & a_mask) == (i_mask & b_mask):
                    return _ce(part=2, kind="intersection", ideal_set=i_mask,
                               left_set=a_mask, right_set=b_mask)
    # part 3
    for i_mask in all_ideals:
        for j_mask in all_ideals:
            if not j_mask & reg:
                continue
            pj = ctx.prod(rd, i_mask, j_mask)
            if pj == 0 or not is_hyperideal(ctx.ring, pj):
                continue
            if pj == ctx.ring.carrier_mask or not ctx.r_ok(pj):
                continue
            if i_mask != pj or not ctx.r_ok(i_mask):
                return _ce(part=3, ideal_set=i_mask, factor_set=j_mask,
                           product_set=pj)
    return HOLDS, None


@entry("T02",
       "For a proper hyperideal I the following agree: I is r-closed; the "
       "principal ideal of any regular element meets I exactly in the "
       "element's product with I; I equals the colon of I by any regular "
       "element outside I.",
       axes=("regular",))
def _t02(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    reg = ctx.reg(rd)
    principal = principal_masks(ctx.ring)
    for i_mask in ctx.proper():
        s1 = ctx.r_ok(i_mask)
        s2 = True
        for a in bits(reg):
            if principal[a] & i_mask != hprod(ctx.ring, singleton(a), i_mask):
                s2 = False
                break
        s3 = True
        for a in bits(reg & ~i_mask):
            if ctx.colon(i_mask, singleton(a)) != i_mask:
                s3 = False
                break
        if not (s1 == s2 == s3):
            return _ce(ideal_set=i_mask, statements=[s1, s2, s3])
    return HOLDS, None


def _intersections_stay(family: tuple[int, ...],
                        in_class: Callable[[int], bool]) -> CheckResult:
    """T03 and T21: every pairwise intersection, then the intersection of
    the whole family, is in the class."""
    for a_mask, b_mask in combinations(family, 2):
        if not in_class(a_mask & b_mask):
            return _ce(left_set=a_mask, right_set=b_mask,
                       intersection_set=a_mask & b_mask)
    if family:
        total = family[0]
        for m in family[1:]:
            total &= m
        if not in_class(total):
            return _ce(family="all", intersection_set=total)
    return HOLDS, None


@entry("T03",
       "The intersection of any nonempty family of r-ideals is an r-ideal.")
def _t03(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    return _intersections_stay(ctx.r_class(), ctx.r_ok)


@entry("T04",
       "Every proper r-ideal consists of zero divisors.")
def _t04(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    z = ctx.ring.zero_divisors
    for i_mask in ctx.r_class():
        if not is_subset(i_mask, z):
            x = bits(i_mask & ~z)[0]
            return _ce(ideal_set=i_mask, non_zero_divisor=x)
    return HOLDS, None


@entry("T05",
       "The annihilator of any nonzero element is an r-hyperideal.")
def _t05(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    for x in range(1, ctx.size):
        a = ctx.ann(x)
        if a == 0 or not is_hyperideal(ctx.ring, a) or not ctx.r_ok(a):
            return _ce(element=x, annihilator_set=a)
    return HOLDS, None


@entry("T06",
       "Equivalent: the ring is an integral hyperdomain; the zero ideal is "
       "the only proper r-ideal; the annihilator of any product is the "
       "union of the factor annihilators.")
def _t06(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    s1 = classify_ring(ctx.ring).integral_hyperdomain
    s2 = ctx.r_class() == (ctx.genzero(),)
    s3 = True
    wit = None
    for x in range(ctx.size):
        for y in range(ctx.size):
            lhs = ann_of_set(ctx.ring, ctx.ring.hmul[x][y])
            if lhs != ctx.ann(x) | ctx.ann(y):
                s3 = False
                wit = (x, y)
                break
        if not s3:
            break
    if not (s1 == s2 == s3):
        return _ce(statements=[s1, s2, s3], witness_pair=wit)
    return HOLDS, None


@entry("T07",
       "If two elements sum to the identity, the sum of their annihilators "
       "is r-closed.")
def _t07(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    e = ctx.e
    for x in range(ctx.size):
        for y in range(ctx.size):
            if ctx.ring.add[x][y] != e:
                continue
            s = set_sum(ctx.ring, ctx.ann(x), ctx.ann(y))
            if s == 0 or not is_hyperideal(ctx.ring, s) or not ctx.r_ok(s):
                return _ce(x=x, y=y, sum_set=s)
    return HOLDS, None


def _idempotents(ctx: RingContext, rd: Reading) -> list[int]:
    """The idempotents under the ``idempotent`` reading, which is read only
    for an s with ``s in s o s != {s}``, the one case the readings split."""
    out = []
    for s in range(ctx.size):
        sq = ctx.ring.hmul[s][s]
        if sq == singleton(s) or (sq & singleton(s)
                                  and rd.idempotent == "weak"):
            out.append(s)
    return out


def _annihilator_sums_stay(ctx: RingContext, rd: Reading,
                           family: tuple[int, ...], key: str) -> CheckResult:
    """T08a and T08b: each member of the family plus the annihilator of an
    idempotent is an r-closed hyperideal."""
    for p_mask in family:
        for s in _idempotents(ctx, rd):
            # ann(s) is empty when 0 o s is not {0}, and so is the sum
            total = set_sum(ctx.ring, p_mask, ctx.ann(s))
            if total == 0 or not is_hyperideal(ctx.ring, total) \
                    or not ctx.r_ok(total):
                return _ce(**{key: p_mask}, idempotent=s, sum_set=total)
    return HOLDS, None


@entry("T08a",
       "In a reduced hyperring, a minimal nonzero hyperideal plus the "
       "annihilator of an idempotent element is r-closed.",
       axes=("idempotent",), hypotheses=("reduced",),
       notes="Minimality admits two readings; this variant takes "
             "minimal-nonzero, its sibling T08b minimal-prime.")
def _t08a(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    return _annihilator_sums_stay(ctx, rd, tuple(
        m for m in ctx.proper() if is_minimal_nonzero(ctx.ring, m)),
        "minimal_set")


@entry("T08b",
       "In a reduced hyperring, a minimal prime hyperideal plus the "
       "annihilator of an idempotent element is r-closed.",
       axes=("idempotent", "prime_mode"), hypotheses=("reduced",),
       notes="Variant of T08a reading minimal as minimal-prime.")
def _t08b(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    return _annihilator_sums_stay(
        ctx, rd, ctx.minimal_primes(rd), "minimal_prime_set")


# --- r-hyperideals vs primes (T09..T17) -------------------------------------


@entry("T09",
       "Every maximal r-ideal is a prime hyperideal.",
       axes=("prime_mode",))
def _t09(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    for m in maximal_members(ctx.r_class()):
        if m not in ctx.primes(rd):
            return _ce(ideal_set=m)
    return HOLDS, None


@entry("T10",
       "A prime hyperideal is an r-ideal exactly when it consists entirely "
       "of zero divisors.",
       axes=("prime_mode",))
def _t10(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    z = ctx.ring.zero_divisors
    for p in ctx.primes(rd):
        if ctx.r_ok(p) != is_subset(p, z):
            return _ce(prime_set=p, is_r=ctx.r_ok(p),
                       all_zero_divisors=is_subset(p, z))
    return HOLDS, None


@entry("T11",
       "If the intersection of incomparable primes is an r-ideal, each of "
       "them is an r-ideal.",
       axes=("prime_mode",))
def _t11(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    primes = ctx.primes(rd)
    for k in (2, 3):
        for combo in combinations(primes, k):
            if any(is_subset(a, b) for a in combo for b in combo if a != b):
                continue
            total = ctx.ring.carrier_mask
            for p in combo:
                total &= p
            if ctx.r_ok(total) and not all(ctx.r_ok(p) for p in combo):
                bad = next(p for p in combo if not ctx.r_ok(p))
                return _ce(primes=[elements_of(p) for p in combo],
                           intersection_set=total, failing_set=bad)
    return HOLDS, None


@entry("T12",
       "In a reduced hyperring, a non-essential r-ideal lies inside some "
       "minimal prime that is itself a maximal r-ideal.",
       axes=("prime_mode",), hypotheses=("reduced",),
       notes="The usual derivation of this statement mishandles the "
             "essentiality premise at one step; the statement itself is "
             "checked as written.")
def _t12(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    max_r = maximal_members(ctx.r_class())
    for i_mask in ctx.r_class():
        if is_essential(ctx.ring, i_mask):
            continue
        ok = any(is_subset(i_mask, p) and p in max_r
                 for p in ctx.minimal_primes(rd))
        if not ok:
            return _ce(ideal_set=i_mask,
                       minimal_primes=[elements_of(p) for p in ctx.minimal_primes(rd)])
    return HOLDS, None


def _covers_land_in(ctx: RingContext, rd: Reading,
                    is_target: Callable[[int], bool], key: str) -> CheckResult:
    """T13 and T14: an ideal covered irredundantly by ideals of which one
    is a target and the others meet the regular elements lies inside that
    target.  The regular elements and the targets are read only inside a
    cover, so a ring without one reads no axis."""
    for i_mask in ctx.ideals():
        for combo in ctx.irredundant_covers(i_mask):
            reg = ctx.reg(rd)
            for t, target in enumerate(combo):
                if not is_target(target):
                    continue
                if any(not (m & reg) for u, m in enumerate(combo) if u != t):
                    continue
                if not is_subset(i_mask, target):
                    return _ce(ideal_set=i_mask,
                               cover=[elements_of(m) for m in combo],
                               **{key: target})
    return HOLDS, None


@entry("T13",
       "If an ideal lies irredundantly in a union of ideals of which one is "
       "an r-ideal and the others contain regular elements, it lies in the "
       "r-ideal.",
       axes=("regular",))
def _t13(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    return _covers_land_in(ctx, rd, lambda m: m in ctx.r_class(),
                           "r_member_set")


@entry("T14",
       "Prime avoidance: if an ideal lies irredundantly in a union of "
       "ideals of which one is a minimal prime and the others contain "
       "regular elements, it lies in the minimal prime.",
       axes=("regular", "prime_mode"))
def _t14(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    return _covers_land_in(ctx, rd, lambda m: m in ctx.minimal_primes(rd),
                           "prime_set")


@entry("T15",
       "Extending an r-closed subset by a multiplicatively closed subset of "
       "regular elements (and their pairwise products) is again r-closed.",
       axes=("regular", "closed_subset", "mult_subset"),
       notes="Under the literal reading the extending subset merely contains "
             "a regular element, which admits zero products into the union "
             "and falsifies the statement; the default reading takes it to "
             "consist of regular elements.")
def _t15(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    lenient = ctx.lenient(rd)
    reg = ctx.reg(rd)
    for s_mask in ctx.rmc_family(rd):
        for t_mask in ctx.mult_closed_family():
            if not t_mask & reg:
                continue
            if t_mask & ZERO_MASK:
                # the conclusion is a subset avoiding zero, so the
                # multiplicative extension is implicitly zero-free
                continue
            if not is_subset(t_mask, reg) and rd.mult_subset == "regular":
                continue
            d = s_mask | t_mask | hprod(ctx.ring, s_mask, t_mask)
            if not is_r_mult_closed(ctx.ring, d, rd.regular, lenient):
                return _ce(closed_set=s_mask, mult_set=t_mask, union_set=d)
    return HOLDS, None


@entry("T16",
       "A proper hyperideal is an r-ideal exactly when its complement is an "
       "r-closed subset.",
       axes=("regular", "closed_subset"))
def _t16(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    lenient = ctx.lenient(rd)
    for i_mask in ctx.proper():
        comp = ctx.ring.carrier_mask & ~i_mask
        left = ctx.r_ok(i_mask)
        right = is_r_mult_closed(ctx.ring, comp, rd.regular, lenient)
        if left != right:
            return _ce(ideal_set=i_mask, is_r=left, complement_closed=right)
    return HOLDS, None


def _maximal_disjoint_stay(ctx: RingContext, closed: tuple[int, ...],
                           in_class: Callable[[int], bool]) -> CheckResult:
    """T17 and T30: every ideal maximal among those containing a seed and
    disjoint from a closed subset is in the class."""
    for s_mask in closed:
        for seed in ctx.ideals():
            if seed & s_mask:
                continue
            for m in maximal_disjoint_masks(ctx.ring, s_mask, seed):
                if not in_class(m):
                    return _ce(closed_set=s_mask, seed_set=seed, maximal_set=m)
    return HOLDS, None


@entry("T17",
       "Every ideal maximal among those containing a given seed and "
       "disjoint from an r-closed subset is an r-ideal.",
       axes=("regular", "closed_subset"))
def _t17(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    return _maximal_disjoint_stay(ctx, ctx.rmc_family(rd), ctx.r_ok)


# --- n-hyperideals (T18..T34) ------------------------------------------------


@entry("T18", "Every n-ideal is an r-ideal.")
def _t18(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    for m in ctx.n_class():
        if not ctx.r_ok(m):
            return _ce(ideal_set=m, r_witness=r_witness(ctx.ring, m))
    return HOLDS, None


@entry("T19",
       "If the zero ideal is primary, the n-ideals and the r-ideals "
       "coincide.")
def _t19(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    if not is_primary(ctx.ring, ctx.genzero(), MODE_RELAXED):
        return HOLDS, {"note": "zero ideal not primary; nothing to check"}
    n_class, r_class = ctx.n_class(), ctx.r_class()
    if n_class != r_class:
        return _ce(n_class=[elements_of(m) for m in n_class],
                   r_class=[elements_of(m) for m in r_class])
    return HOLDS, None


@entry("T20", "Every n-ideal lies inside the radical of zero.")
def _t20(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    rad = ctx.rad0()
    for m in ctx.n_class():
        if not is_subset(m, rad):
            return _ce(ideal_set=m, radical_set=rad)
    return HOLDS, None


@entry("T21",
       "The intersection of any nonempty family of n-ideals is an n-ideal.")
def _t21(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    return _intersections_stay(ctx.n_class(), ctx.is_n)


@entry("T22",
       "For a proper hyperideal I the following agree: I is an n-ideal; I "
       "equals its colon by any element outside the radical of zero; any "
       "ideal product inside I whose left factor leaves the radical of zero "
       "forces the right factor into I.")
def _t22(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    outside = ctx.ring.carrier_mask & ~ctx.rad0()
    for i_mask in ctx.proper():
        s1 = ctx.is_n(i_mask)
        s2 = all(ctx.colon(i_mask, singleton(a)) == i_mask
                 for a in bits(outside))
        s3 = ctx.factor_witness(i_mask, outside) is None
        if not (s1 == s2 == s3):
            return _ce(ideal_set=i_mask, statements=[s1, s2, s3])
    return HOLDS, None


@entry("T23",
       "n-ideals can be cancelled across an ideal factor that leaves the "
       "radical of zero.",
       axes=("product",))
def _t23(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    outside = ctx.ring.carrier_mask & ~ctx.rad0()
    n_class = ctx.n_class()
    for l_mask in ctx.ideals():
        if not l_mask & outside:
            continue
        for a_mask in n_class:
            for b_mask in n_class:
                if a_mask == b_mask:
                    continue
                if ctx.prod(rd, a_mask, l_mask) == ctx.prod(rd, b_mask, l_mask):
                    return _ce(factor_set=l_mask, left_set=a_mask,
                               right_set=b_mask)
    return HOLDS, None


@entry("T24",
       "A prime hyperideal is an n-ideal exactly when it equals the radical "
       "of zero.",
       axes=("prime_mode",))
def _t24(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    rad = ctx.rad0()
    for p in ctx.primes(rd):
        if ctx.is_n(p) != (p == rad):
            return _ce(prime_set=p, is_n=ctx.is_n(p), radical_set=rad)
    return HOLDS, None


@entry("T25",
       "The radical of zero is prime exactly when it is an n-ideal.",
       axes=("prime_mode",))
def _t25(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    rad = ctx.rad0()
    left = rad in ctx.primes(rd)
    right = ctx.is_n(rad)
    if left != right:
        return _ce(radical_set=rad, prime=left, n_ideal=right)
    return HOLDS, None


@entry("T26",
       "The colon of an n-ideal by any nonempty subset not inside it is an "
       "n-ideal.")
def _t26(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    for i_mask in ctx.n_class():
        for t_mask in ctx.colon_subjects():
            if is_subset(t_mask, i_mask):
                continue
            c = ctx.colon(i_mask, t_mask)
            if c == 0 or not is_hyperideal(ctx.ring, c) or not ctx.is_n(c):
                return _ce(ideal_set=i_mask, subject_set=t_mask, colon_set=c)
    return HOLDS, None


@entry("T27", "Every maximal n-ideal equals the radical of zero.")
def _t27(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    rad = ctx.rad0()
    for m in maximal_members(ctx.n_class()):
        if m != rad:
            return _ce(ideal_set=m, radical_set=rad)
    return HOLDS, None


@entry("T28",
       "The radical of zero is prime exactly when some n-ideal exists.",
       axes=("prime_mode",))
def _t28(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    rad = ctx.rad0()
    left = rad in ctx.primes(rd)
    right = bool(ctx.n_class())
    if left != right:
        return _ce(radical_set=rad, prime=left, n_ideals_exist=right)
    return HOLDS, None


@entry("T29",
       "A proper hyperideal is an n-ideal exactly when its complement is an "
       "n-closed subset.")
def _t29(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    for i_mask in ctx.proper():
        comp = ctx.ring.carrier_mask & ~i_mask
        left = ctx.is_n(i_mask)
        right = comp != 0 and is_n_mult_closed(ctx.ring, comp)
        if left != right:
            return _ce(ideal_set=i_mask, is_n=left, complement_closed=right)
    return HOLDS, None


@entry("T30",
       "Every ideal maximal among those containing a given seed and "
       "disjoint from an n-closed subset is an n-ideal.")
def _t30(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    return _maximal_disjoint_stay(ctx, ctx.nmc_family(), ctx.is_n)


@entry("T31",
       "If an ideal lies in a union of ideals of which one is an n-ideal "
       "and the others have no nonzero nilpotent members, and the n-member "
       "cannot be dropped, the ideal lies in the n-member.")
def _t31(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    n_class = set(ctx.n_class())
    nil = ctx.ring.nilpotent & ~ZERO_MASK
    # The irredundant covers decide T31 as the covers of any size would.  In
    # a counterexample family F with n-member T, a least subfamily that
    # holds T and covers I is one: no other member can be dropped from it,
    # by leastness, and neither can T, since the union of the others lies in
    # the union of F's members other than T, which does not contain I.
    for i_mask in ctx.ideals():
        for combo in ctx.irredundant_covers(i_mask):
            for t, target in enumerate(combo):
                if target not in n_class or any(
                        m & nil for u, m in enumerate(combo) if u != t):
                    continue
                if not is_subset(i_mask, target):
                    return _ce(ideal_set=i_mask,
                               cover=[elements_of(m) for m in combo],
                               n_member_set=target)
    return HOLDS, None


@entry("T32",
       "A reduced hyperring that is not an integral hyperdomain has no "
       "n-ideal; in a reduced hyperring the zero ideal is an n-ideal "
       "exactly when the ring is an integral hyperdomain.",
       hypotheses=("reduced",))
def _t32(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    flags = classify_ring(ctx.ring)
    if not flags.integral_hyperdomain and ctx.n_class():
        return _ce(part=1, n_class=[elements_of(m) for m in ctx.n_class()])
    zero_is_n = ctx.genzero() in ctx.n_class()
    if zero_is_n != flags.integral_hyperdomain:
        return _ce(part=2, zero_is_n=zero_is_n,
                   integral=flags.integral_hyperdomain)
    return HOLDS, None


@entry("T33",
       "The zero ideal is the only n-ideal exactly when the ring is an "
       "integral hyperdomain.")
def _t33(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    only_zero = ctx.n_class() == (ctx.genzero(),)
    integral = classify_ring(ctx.ring).integral_hyperdomain
    if only_zero != integral:
        return _ce(n_class=[elements_of(m) for m in ctx.n_class()],
                   integral=integral)
    return HOLDS, None


@entry("T34",
       "All nonzero elements are invertible exactly when the ring is "
       "von Neumann regular and the zero ideal is an n-ideal.")
def _t34(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    flags = classify_ring(ctx.ring)
    left = bool(flags.invertible_ring)
    right = flags.regular_ring and ctx.genzero() in ctx.n_class()
    if left != right:
        return _ce(invertible=left, regular=flags.regular_ring,
                   zero_is_n=ctx.genzero() in ctx.n_class())
    return HOLDS, None


# --- stability under constructions (T35..T40) --------------------------------


@entry("T35",
       "Along good homomorphisms between corpus members: preimages of "
       "n-ideals under monomorphisms are n-ideals, and images of n-ideals "
       "containing the kernel under epimorphisms are n-ideals.",
       notes="Targets are the run's rings: --corpus DIR or chunks can change holds.")
def _t35(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    """Part 1 reads only injective homs and part 2 only surjective ones.
    A good homomorphism f: R -> S is additive, so by Lagrange's theorem for
    the additive groups |f(R)| divides |S| and |R| = |ker f| |f(R)|.  An
    injective f has |f(R)| = |R|, so |R| divides |S|; a surjective one has
    f(R) = S, so |S| divides |R|.  A target whose size neither divides nor
    is divided by |R| has no hom that either part reads, and is skipped
    before its hypotheses are read."""
    src = ctx
    for position, dst in enumerate(suite.contexts):
        if src.size * dst.size > HOM_SIZE_CAP:
            continue
        if dst.size % src.size and src.size % dst.size:
            continue
        if _unmet(SHARED_HYPOTHESES, dst, rd) is not None:
            continue
        # a target's failure does not depend on the reading, so the standing
        # sweep searches only the targets its other reading skipped
        failure = src._memo(("T35", position),
                            lambda: _t35_first_failure(src, dst))
        if failure is not None:
            return failure
    return HOLDS, None


def _t35_first_failure(src: RingContext,
                       dst: RingContext) -> Optional[CheckResult]:
    """T35's first counterexample along the good homomorphisms from ``src``
    to ``dst``, or None."""
    for hom in enumerate_good_homomorphisms(src.ring, dst.ring):
        if hom.injective:
            for i2 in dst.n_class():
                pre = hom.preimage_mask(i2)
                if pre == 0 or not is_hyperideal(src.ring, pre) \
                        or not src.is_n(pre):
                    return _ce(part=1, target=dst.ring.name,
                               mapping=list(hom.mapping),
                               target_ideal=elements_of(i2), preimage=elements_of(pre))
        if hom.surjective:
            ker = hom.kernel
            for i1 in src.n_class():
                if not is_subset(ker, i1):
                    continue
                img = hom.image_mask(i1)
                if not is_hyperideal(dst.ring, img) or not dst.is_n(img):
                    return _ce(part=2, target=dst.ring.name,
                               mapping=list(hom.mapping),
                               source_ideal=elements_of(i1), image=elements_of(img))
    return None


@entry("T36",
       "Across quotients by a proper subideal: n-ideals descend to the "
       "quotient; they lift back when the subideal lies in the radical of "
       "zero; and they lift back when the subideal is itself an n-ideal.")
def _t36(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    """Each part reads the image of I in R/J only where I is an n-ideal,
    J lies in r(0), or J is an n-ideal; at any other I containing J no
    part can fail.  So R/J is built only for a J with some I that it reads.
    J = {0} is skipped: the projection onto R/{0} is an isomorphism, so the
    image of I is an n-ideal exactly when I is, and no part can fail."""
    rad = ctx.rad0()
    proper = ctx.proper()
    for j_mask in proper:
        if j_mask == ZERO_MASK:
            continue  # R/{0} is R: every part is vacuous
        lifts = is_subset(j_mask, rad) or ctx.is_n(j_mask)
        read = [i for i in proper
                if is_subset(j_mask, i) and (lifts or ctx.is_n(i))]
        if not read:
            continue
        q = quotient(ctx.ring, j_mask)
        qctx = RingContext(q.ring)
        for i_mask in read:
            img = q.image_mask(i_mask)
            img_is_n = img != q.ring.carrier_mask \
                and is_hyperideal(q.ring, img) and qctx.is_n(img)
            if ctx.is_n(i_mask) and not img_is_n:
                return _ce(part=1, ideal_set=i_mask, by_set=j_mask,
                           image=elements_of(img))
            if img_is_n and is_subset(j_mask, rad) and not ctx.is_n(i_mask):
                return _ce(part=2, ideal_set=i_mask, by_set=j_mask)
            if img_is_n and ctx.is_n(j_mask) and not ctx.is_n(i_mask):
                return _ce(part=3, ideal_set=i_mask, by_set=j_mask)
    return HOLDS, None


@entry("T37",
       "If the square-matrix ideal over a hyperideal is an n-ideal of the "
       "square-matrix structure, the hyperideal is an n-ideal of the base "
       "ring (base ring with scalar identity).",
       hypotheses=("scalar identity", "matrix cap"))
def _t37(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    m2 = matrix_hyperring(ctx.ring, 2)
    mctx = RingContext(m2)
    for i_mask in ctx.proper():
        mat = matrix_ideal_mask(ctx.ring, 2, i_mask)
        if not is_hyperideal(m2, mat):
            continue
        if mctx.is_n(mat) and not ctx.is_n(i_mask):
            return _ce(ideal_set=i_mask)
    return HOLDS, None


@entry("T38",
       "For a subring not inside an n-ideal, the trace of the n-ideal on "
       "the subring is an n-ideal of the subring.")
def _t38(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    if not ctx.n_class():
        return HOLDS, None
    for t_mask in subhyperring_masks(ctx.ring):
        if t_mask == ctx.ring.carrier_mask:
            continue  # the trace on R is the n-ideal itself: vacuous
        sub = subhyperring_restrict(ctx.ring, t_mask)
        subctx = RingContext(sub.ring)
        for i_mask in ctx.n_class():
            if is_subset(t_mask, i_mask):
                continue
            trace = sub.restrict_mask(i_mask)
            if trace == 0 or not is_hyperideal(sub.ring, trace) \
                    or not subctx.is_n(trace):
                return _ce(subring_set=t_mask, ideal_set=i_mask,
                           trace=elements_of(trace))
    return HOLDS, None


@entry("T39",
       "In a direct product, a rectangular ideal (a product of component "
       "ideals) that is an n-ideal must be the whole ring.",
       hypotheses=("product",))
def _t39(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    _, n2 = product_factor_sizes(ctx.ring)
    for i_mask in ctx.proper():
        left = 0
        right = 0
        for idx in bits(i_mask):
            left |= singleton(idx // n2)
            right |= singleton(idx % n2)
        rect = 0
        for a in bits(left):
            for b in bits(right):
                rect |= singleton(a * n2 + b)
        if rect != i_mask:
            continue
        if ctx.is_n(i_mask):
            return _ce(ideal_set=i_mask, left=elements_of(left), right=elements_of(right))
    return HOLDS, None


@entry("T40",
       "Over a scalar-identity hyperring within the fundamental-quotient "
       "cap: a hyperideal is an n-ideal exactly when its class image is an "
       "n-ideal of the fundamental ordinary ring.",
       hypotheses=("scalar identity", "gamma cap"))
def _t40(ctx: RingContext, rd: Reading, suite: Suite) -> CheckResult:
    fund = fundamental_ring(ctx.ring)
    for i_mask in ctx.proper():
        image = fund.image_mask(i_mask)
        left = ctx.is_n(i_mask)
        right = classical_n_ideal(fund.ring, image)
        if left != right:
            return _ce(ideal_set=i_mask, image=elements_of(image), is_n=left,
                       classical_n=right)
    return HOLDS, None


REGISTRY_BY_ID = {e.tid: e for e in REGISTRY}


# ---------------------------------------------------------------------------
# runner


class TheoremVerdict(NamedTuple):
    """One (entry, ring) cell.  Its ``readings``, ``reading_results`` and
    ``not-applicable`` witness are read-only: a run gives every cell with
    the same items one dict, and ``to_obj`` passes them on as they are."""

    theorem: str
    ring: str
    status: str
    witness: Optional[dict]
    readings: dict[str, str]
    reading_results: dict[str, str]
    reading_sensitive: bool = False
    reverified: bool = False
    wall_ms: Optional[float] = None

    def to_obj(self, include_timings: bool = False) -> dict:
        obj = self._asdict()
        if not include_timings:
            del obj["wall_ms"]
        return obj


def _evaluate(entry_: TheoremEntry, ctx: RingContext, rd: Reading,
              suite: Suite) -> CheckResult:
    try:
        reason = _unmet(SHARED_HYPOTHESES + entry_.hypotheses, ctx, rd)
        if reason is not None:
            return NOT_APPLICABLE, {"reason": reason}
        return entry_.checker(ctx, rd, suite)
    except CapExceeded as exc:
        return NOT_APPLICABLE, {"reason": f"{exc.what} cap: {exc}"}


def _reading_combos(axes: tuple[str, ...], base: Reading) -> list[Reading]:
    """Every reading that varies ``base`` on ``axes``, without repeats."""
    combos: list[Reading] = [base]
    for axis in axes:
        combos = [rd.with_flags(**{axis: value})
                  for rd in combos for value in READING_AXES[axis]]
    return list(dict.fromkeys(combos))


def run_theorem(entry_: TheoremEntry, ring: HyperRing,
                reading: Optional[Reading] = None,
                suite: Optional[Suite] = None,
                context: Optional[RingContext] = None,
                explore_readings: bool = True) -> TheoremVerdict:
    """The verdict of ``entry_`` on ``ring`` under ``reading``, with the
    status of each alternate reading when ``explore_readings``.  The dicts
    it holds come from ``Suite.shared``, so they are read-only.  A
    ``context`` passed in serves one ``suite``: T35 keeps each target's
    result on it under the target's position in that suite."""
    rd = reading or Reading()
    axes = tuple(entry_.axes) + ("standing",)
    ctx = context or RingContext(ring)
    sweep = suite or Suite([ctx])
    start = time.perf_counter()
    recorded = _RecordingReading(rd)
    status, witness = _evaluate(entry_, ctx, recorded, sweep)
    reverified = False
    if status == COUNTEREXAMPLE:
        # deterministic re-run of the full predicate scan; the least witness
        # must reproduce exactly before it is reported
        again_status, again_witness = _evaluate(entry_, ctx, rd, sweep)
        reverified = again_status == status and again_witness == witness
    reading_results: list[tuple[str, str]] = []
    sensitive = False
    if explore_readings:
        # an evaluation depends on the reading only through the axes it
        # read, so a reading that agrees with an earlier one on all of them
        # takes that earlier status
        evaluated = [(recorded.axes_read(), status)]
        for combo, label in sweep.alternates(axes, rd):
            alt_status = next(
                (done for read, done in evaluated
                 if all(getattr(combo, a) == v for a, v in read.items())),
                None)
            if alt_status is None:
                recorded = _RecordingReading(combo)
                alt_status, _ = _evaluate(entry_, ctx, recorded, sweep)
                evaluated.append((recorded.axes_read(), alt_status))
            reading_results.append((label, alt_status))
            # sensitive: some non-default reading flips between a decided
            # verdict and a counterexample
            if alt_status == COUNTEREXAMPLE and status != COUNTEREXAMPLE:
                sensitive = True
            if status == COUNTEREXAMPLE and alt_status == HOLDS:
                sensitive = True
    if status == NOT_APPLICABLE:
        witness = sweep.shared(tuple(witness.items()))
    elapsed = (time.perf_counter() - start) * 1000.0
    return TheoremVerdict(
        theorem=entry_.tid,
        ring=ring.name,
        status=status,
        witness=witness,
        readings=sweep.shared(tuple((a, getattr(rd, a)) for a in sorted(axes))),
        reading_results=sweep.shared(tuple(reading_results)),
        reading_sensitive=sensitive,
        reverified=reverified,
        wall_ms=elapsed,
    )


# The report fields that list verdicts; the JSON writer takes them one
# verdict at a time.
_VERDICT_LISTS = ("verdicts", "counterexamples")
# A line break and the indent of each depth of the report: top-level keys
# sit at depth 1, verdicts at 2 and their fields at 3.
_PAD = tuple("\n" + "  " * depth for depth in range(4))
# The C encoder, compact and with sorted keys.  Two values with the same
# compact text have the same indented text.
_compact = json.JSONEncoder(sort_keys=True).encode


def _indented(value, pad: str) -> bytes:
    """``value`` as the indented report writes it at the depth whose line
    break is ``pad``, in ASCII.  JSON escapes every newline inside a
    string, so each newline of the text is a line break of the layout."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad).encode()


def _verdict_writer(write: Callable[[bytes], object],
                    include_timings: bool) -> Callable[[list], None]:
    """A function that passes a nonempty verdict list to ``write`` as
    ASCII fragments.  Each string is rendered once per distinct value and
    each nested value once per distinct object (a run shares those, see
    ``Suite.shared``) over every list it writes; only ``wall_ms`` differs
    from verdict to verdict."""
    strings: dict[str, bytes] = {}
    # keyed by the value's id; each entry keeps its value, so no id is
    # reused by another object while the writer lives
    nested: dict[int, tuple[object, bytes]] = {}
    heads: dict[tuple[str, ...], list[tuple[str, bytes]]] = {}
    first, later = (f"{comma}{_PAD[2]}{{".encode() for comma in "[,")
    close, end = f"{_PAD[2]}}}".encode(), f"{_PAD[1]}]".encode()

    def field_text(value) -> bytes:
        if value is None:
            return b"null"
        if value is True:
            return b"true"
        if value is False:
            return b"false"
        if type(value) is str:
            out = strings.get(value)
            if out is None:
                out = strings[value] = encode_basestring_ascii(value).encode()
            return out
        if type(value) is float:
            return _compact(value).encode()
        entry = nested.get(id(value))
        if entry is None:
            entry = nested[id(value)] = (value, _indented(value, _PAD[3]))
        return entry[1]

    def write_verdicts(verdicts: list) -> None:
        opener = first
        for v in verdicts:
            obj = v.to_obj(include_timings)
            names = tuple(obj)
            layout = heads.get(names)
            if layout is None:
                layout = heads[names] = [
                    (name, f"{',' if i else ''}{_PAD[3]}"
                           f"{encode_basestring_ascii(name)}: ".encode())
                    for i, name in enumerate(sorted(names))]
            write(opener)
            for name, head in layout:
                write(head)
                write(field_text(obj[name]))
            write(close)
            opener = later
        write(end)

    return write_verdicts


class SuiteReport:
    """A run's verdicts; mutable, since the CLI sets ``discarded``."""

    def __init__(self, readings: dict[str, str], rings: list[str],
                 verdicts: list[TheoremVerdict],
                 discarded: Optional[list[tuple[str, str]]] = None):
        self.readings = readings
        self.rings = rings
        self.verdicts = verdicts
        self.discarded = [] if discarded is None else discarded

    @property
    def counterexamples(self) -> list[TheoremVerdict]:
        return [v for v in self.verdicts if v.status == COUNTEREXAMPLE]

    @property
    def reading_sensitive(self) -> list[TheoremVerdict]:
        return [v for v in self.verdicts if v.reading_sensitive]

    def summary(self) -> dict[str, int]:
        out = {HOLDS: 0, COUNTEREXAMPLE: 0, NOT_APPLICABLE: 0,
               "reading-sensitive": len(self.reading_sensitive)}
        for v in self.verdicts:
            out[v.status] += 1
        return out

    def _fields(self) -> dict:
        """The top-level fields, with the verdict lists left as verdicts."""
        return {
            "readings": self.readings,
            "rings": self.rings,
            "summary": self.summary(),
            "verdicts": self.verdicts,
            "counterexamples": self.counterexamples,
            "discarded": [list(d) for d in self.discarded],
        }

    def to_obj(self, include_timings: bool = False) -> dict:
        obj = self._fields()
        for key in _VERDICT_LISTS:
            obj[key] = [v.to_obj(include_timings) for v in obj[key]]
        return obj

    def write_json(self, fp: BinaryIO, include_timings: bool = False) -> None:
        """Write the report in its canonical form to the binary file ``fp``:
        exactly the bytes of ``json.dumps(self.to_obj(include_timings),
        indent=2, sort_keys=True, ensure_ascii=True) + "\\n"``, so ASCII,
        sorted keys, two-space indent and one trailing LF.

        The bytes are written without that object, as ASCII fragments
        straight into ``fp``, with no joined or encoded copy: each verdict
        at its fixed depth, each distinct nested value rendered once."""
        write = fp.write
        write_verdicts = _verdict_writer(write, include_timings)
        write(b"{")
        for i, (key, value) in enumerate(sorted(self._fields().items())):
            write(f"{',' if i else ''}{_PAD[1]}"
                  f"{encode_basestring_ascii(key)}: ".encode())
            if key in _VERDICT_LISTS and value:
                write_verdicts(value)
            else:
                write(_indented(value, _PAD[1]))
        write(b"\n}\n")

    def to_json_bytes(self, include_timings: bool = False) -> bytes:
        """The bytes :meth:`write_json` writes, from one buffer."""
        out = BytesIO()
        self.write_json(out, include_timings)
        return out.getvalue()

    def exit_status(self) -> int:
        return 1 if self.counterexamples else 0


def run_suite(rings: list[HyperRing], only: Optional[set[str]] = None,
              reading: Optional[Reading] = None,
              explore_readings: bool = True,
              fail_fast: bool = False) -> SuiteReport:
    rd = reading or Reading()
    contexts = [RingContext(r) for r in rings]
    sweep = Suite(contexts)
    entries = [e for e in REGISTRY if only is None or e.tid in only]
    verdicts: list[TheoremVerdict] = []
    for entry_, ctx in ((e, c) for e in entries for c in contexts):
        verdict = run_theorem(entry_, ctx.ring, rd, sweep, ctx,
                              explore_readings)
        verdicts.append(verdict)
        if fail_fast and verdict.status == COUNTEREXAMPLE:
            break
    return SuiteReport(
        readings={a: getattr(rd, a) for a in READING_AXES},
        rings=[c.ring.name for c in contexts],
        verdicts=verdicts,
    )
