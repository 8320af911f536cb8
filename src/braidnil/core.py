"""
Exact normal forms and the group law for the class-2 nilpotent braid quotients.

An element is stored as a canonical triple (perm, pure, comm):

- perm: the underlying permutation of the strands,
- pure: integer exponents on the pure generators A[i,j] (1 <= i < j <= n),
  which are coordinates of the level-1 graded piece,
- comm: integer exponents on the basis commutators a[i,j,k] = [A[i,j], A[j,k]]
  (1 <= i < j < k <= n), coordinates of the level-2 graded piece.

The triple denotes the group element

    section(perm) * prod_{(i,j) lex} A[i,j]^pure(i,j) * prod_{(i,j,k) lex} a[i,j,k]^comm(i,j,k)

where section(perm) is the positive braid lifting perm along its
lexicographically smallest reduced word (any reduced word gives the same
element, since the braid relations hold in the quotient).  Two elements are
equal in the group iff all three components agree, so equality of values is
canonical equality.  The public constructors of PurePart, CommPart and
NilElement reject anything that is not canonical, and take ints only; the
group law builds its results through the unchecked `_trusted`, since they are
canonical already; so do products, inverses and powers of BraidWords, whose
letters the constructor checks.  Every strand count passes `_check_strands`,
the one strand-count rule: an int, at least 1, or at least the named minimum
of a construction that needs more strands (the orbit partition, the
presentation suites).  PurePart and CommPart are one coordinate type,
differing only in arity, key name and sort sign; it owns the one key check
`_norm`, the key symmetry `_sort`, and `_canonical`, the one test of canonical
entries, by columns, which its constructor and the element JSON reader share.

Conventions, used consistently everywhere:

- permutations compose left to right: (p * q)(x) = q(p(x)), matching the
  convention that the permutation of a braid word is the product of the
  transpositions of its letters in reading order;
- commutators are [g, h] = g h g^-1 h^-1;
- strands, generator indices, and all pair/triple keys are 1-based;
- A[j,i] means A[i,j]; a triple key out of order picks up the sign of the
  permutation that sorts it.

All exponents are plain Python integers, so arithmetic is exact at any size.
Every value here is immutable and every function is pure; the only cache is
the bounded one on the reduced-word lift, keyed by the permutation alone.  The
value types of the package derive from `_Value`, which gives them the equality,
hash, repr and immutability of frozen dataclasses without importing
`dataclasses`, so a cold start loads less.

The group law is the letter fold `_fold` and the closed-form pure-block merge
`_merge_pure_block`.  Both work on one level-1 state, the strand adjacency
nbr: nbr[u][v] = nbr[v][u] is the exponent on A[u,v], never zero, and row 0
stays empty; the level-2 dict holds no zero either, since every writer deletes
a sum that cancels.  `_thaw` builds it from a normal form; `_rows` sorts it
back into the canonical rows, which `_freeze` wraps as the normal form and a
verify suite compares as they are.  The letter loop `_fold_framed` keeps the
state under its starting strand labels and returns the frame that places them.
Where a merge or a fold follows, `_fold` first renames the state to the labels
that the letters carry to slot order, so the loop ends on the identity frame; a
fold that ends a product hands its frame to `_freeze`.  collect folds a word.
`_times` multiplies a state by b, read as three fields (image, pure rows in lex
order, level-2 rows in any order): it folds through b's section, merges b's
pure block, adds b's level 2.  `_times_inverse` multiplies by b^-1 without
building it: it subtracts b's level 2, merges b's pure factors reversed and
negated, folds through the inverse section.  mul is `_times` on a thawed, inv
`_times_inverse` on the origin, conj both on g thawed: one thaw, one freeze,
and no g^-1.  An expression runs the same steps on one state from the origin:
`_fold` for its generator runs, `_times` for its other atoms, one freeze.  A
letter's level-2 correction at each other strand is e*(e' - 1), e and e' that
strand's exponents with the letter's two strands, so a letter scans only the
rows whose e can be nonzero: one strand's row, or on a deposit that row above
the letter and the other below it, never an empty row.  It costs at most its
strands' degrees, so on a sparse state only its slot bookkeeping.  A fold of
more than T = n*C(n,2) letters, and more than 50 (T at n = 5), sums each d per
(ordered crossing pair, strand) and places each sum once at the end; a shorter
one, as every section, pn3/bn3 rest at n >= 5, full twist word and b3 relation
is, revisits too few keys for that to pay, so it places each d as it meets it.
A merged A[i,j] scans i's row above j, then j's.
power writes m = s*q + r with q the order of the permutation and 0 <= r < q,
and returns a^r * (a^q)^s.  Its squares stay working states, each one product
of the one before with that one's fields; a^r and a^q are `_times` chains on
one state over them, a^q continuing from a^r when that takes fewer products.
Since a^q is pure, the class-2 power law gives (id, v, w)^s = (id, s*v, s*w +
C(s,2)*B(v)), where B(v) is the level-2 part of merging v onto itself.  Only
the result is frozen.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, combinations

Pair = tuple[int, int]
Triple = tuple[int, int, int]
Letter = tuple[int, int]  # (generator index k, sign +1/-1)
State = tuple[list[int], list[dict[int, int]], dict[Triple, int]]  # (image, nbr, comm): see the group law
Framed = tuple[list[int], list[dict[int, int]], dict[Triple, int], list[int] | None]  # a State and its frame pos

# Two constants of torsion.py and presentations.py, defined here so that the
# CLI parser can read them without importing either module.
# The spectrum grows faster than any power of n: 60453 orders at n = 200
# (0.13 s, 28 MB peak RSS) and 924636 at n = 300 (4.1 s, 331 MB), measured
# in one process on a 2-vCPU VM with Python 3.11.
SPECTRUM_MAX_N = 200
# The subgroups of the 3-strand symmetric group whose preimages have a checked presentation.
SUBGROUPS = ("trivial", "order2", "order3", "s3")


class DomainError(ValueError):
    """An index or argument outside the valid range for its strand count."""


def _check_int(what: str, x) -> None:
    """Only a real int passes: a bool or a float raises, never coerced."""
    if type(x) is not int:
        raise DomainError(f"{what} must be an int, got {x!r}")


def _check_strands(n, least: int = 1, what: str = "") -> None:
    """The one strand-count rule: n is an int, at least `least`; a construction named `what` says it needs more."""
    _check_int("strand count", n)
    if n < least:
        raise DomainError(f"{what} needs at least {least} strands" if what
                          else f"strand count must be at least {least}")


class _Value:
    """Base of the immutable value types, with the semantics of a frozen dataclass.

    A subclass declares its fields as annotations, in order, after those of
    its bases.  The constructor binds them by position or keyword, then runs
    __post_init__, the subclass's check.  Two values are equal when their
    classes are the same and their fields are equal, compared as __dict__s,
    and hash by their fields in order.  The repr names each field, and
    assigning or deleting an attribute raises dataclasses.FrozenInstanceError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = dict(zip(self._fields, args), **kwargs)
        if len(fields) != len(args) + len(kwargs) or fields.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}, each once")
        self.__dict__.update(fields)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a subclass with a rule overrides this."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(map(self.__dict__.__getitem__, self._fields)))

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # loaded only when raised
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _trusted(cls, **fields):
    """An instance of the value type cls from fields already known to be valid.

    It skips __post_init__, so only code that builds valid values by
    construction may call it: the group law and from_map for normal forms, words
    built from checked words, and the element JSON reader for canonical rows.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# ---------------------------------------------------------------------------
# Permutations (1-based, left-to-right composition)
# ---------------------------------------------------------------------------

class Permutation(_Value):
    """A permutation of {1..n} in one-line notation: image[i-1] = p(i)."""

    image: tuple[int, ...]

    def __post_init__(self):
        _check_strands(self.n)
        if any(type(v) is not int for v in self.image) or sorted(self.image) != list(range(1, self.n + 1)):
            raise DomainError(f"not a permutation of 1..{len(self.image)}: {self.image}")

    @staticmethod
    def identity(n: int) -> Permutation:
        _check_strands(n)
        return Permutation(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.image)

    def __mul__(self, other: Permutation) -> Permutation:
        """Left-to-right product: apply self first, then other."""
        if self.n != other.n:
            raise DomainError("cannot compose permutations of different sizes")
        return Permutation(tuple(other.image[v - 1] for v in self.image))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, v in enumerate(self.image):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.image))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each rotated to start at its minimum, ordered by minimum."""
        image = self.image
        seen = [False] * (self.n + 1)
        out = []
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = image[x - 1]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths in decreasing order, fixed points included.

        >>> Permutation((2, 3, 1, 4)).cycle_type()
        (3, 1)
        """
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))


# ---------------------------------------------------------------------------
# Braid words
# ---------------------------------------------------------------------------

class BraidWord(_Value):
    """A word in the Artin generators: letters (k, +1) for s_k, (k, -1) for its inverse."""

    n: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        _check_strands(self.n)
        if not isinstance(self.letters, tuple):
            raise DomainError(f"letters must be a tuple of (generator, sign) pairs, got {type(self.letters).__name__}")
        for letter in self.letters:
            if type(letter) is not tuple or len(letter) != 2:
                raise DomainError(f"letters must be a tuple of (generator, sign) pairs, got the letter {letter!r}")
            k, eps = letter
            if type(k) is not int or not 1 <= k <= self.n - 1:
                raise DomainError(f"generator index {k!r} out of range for n={self.n}")
            if type(eps) is not int or eps not in (1, -1):
                raise DomainError(f"letter sign must be +1 or -1, got {eps!r}")

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.n != other.n:
            raise DomainError("cannot concatenate words on different strand counts")
        return _trusted(BraidWord, n=self.n, letters=self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return _trusted(BraidWord, n=self.n, letters=tuple((k, -eps) for k, eps in reversed(self.letters)))

    def __pow__(self, m: int) -> BraidWord:
        _check_int("exponent", m)
        base = self if m >= 0 else self.inverse()
        return _trusted(BraidWord, n=self.n, letters=base.letters * abs(m))


def commutator_word(u: BraidWord, v: BraidWord) -> BraidWord:
    """The word u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


def pure_gen_word(n: int, i: int, j: int) -> BraidWord:
    """Defining word of the pure generator: s_{j-1} .. s_{i+1} s_i^2 s_{i+1}^-1 .. s_{j-1}^-1."""
    (i, j), _ = PurePart._norm((i, j), n)
    return _pure_word(n, i, j)


def _pure_word(n: int, i: int, j: int) -> BraidWord:
    """pure_gen_word of a pair already checked and sorted."""
    head = [(k, 1) for k in range(j - 1, i, -1)]
    tail = [(k, -1) for k in range(i + 1, j)]
    return BraidWord(n, tuple(head + [(i, 1), (i, 1)] + tail))


def comm_gen_word(n: int, triple: Triple) -> BraidWord:
    """Defining word of a[i,j,k] = [A[i,j], A[j,k]] for sorted indices; an odd order gives its inverse."""
    (i, j, k), sign = CommPart._norm(triple, n)
    word = commutator_word(_pure_word(n, i, j), _pure_word(n, j, k))
    return word if sign == 1 else word.inverse()


# ---------------------------------------------------------------------------
# Graded coordinate containers
# ---------------------------------------------------------------------------

def pairs(n: int) -> Iterator[Pair]:
    """All pair keys (i, j), i < j, in lexicographic order."""
    _check_strands(n)
    return combinations(range(1, n + 1), 2)


def triples(n: int) -> Iterator[Triple]:
    """All triple keys (i, j, k), i < j < k, in lexicographic order."""
    _check_strands(n)
    return combinations(range(1, n + 1), 3)


def _sort3(a: int, b: int, c: int) -> tuple[Triple, int]:
    """Sort three distinct integers, returning the sign of the sorting permutation."""
    sign = 1
    if a > b:
        a, b, sign = b, a, -sign
    if b > c:
        b, c, sign = c, b, -sign
    if a > b:
        a, b, sign = b, a, -sign
    return (a, b, c), sign


class _Coordinates(_Value):
    """Finite integer exponent map on sorted index keys; entries are (*key, exponent), lex-sorted, none zero.

    A subclass supplies, as plain class attributes, `arity` and `noun`, the length and name of a
    key; `keys(n)`, its canonical keys in lex order; and `_sort(*key)`, the unchecked canonical key
    with its sign (the key symmetry).  `_norm` checks a key.  The constructor accepts canonical
    entries only, those that pass `_canonical`; from_map canonicalises any others.
    """

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_strands(self.n)
        if not isinstance(self.entries, tuple):
            raise DomainError(f"entries must be a tuple, got {type(self.entries).__name__}")
        for row in self.entries:
            if not isinstance(row, tuple) or not row:
                raise DomainError(f"invalid entry {row!r} for n={self.n}")
        if not self._canonical(self.n, self.entries):
            self.from_map(self.n, ((row[:-1], row[-1]) for row in self.entries))  # raises for a bad key or exponent
            raise DomainError(f"entries {self.entries!r} are not canonical for n={self.n}: keys must be sorted"
                              " and strictly increasing, exponents nonzero (from_map canonicalises)")

    @classmethod
    def _canonical(cls, n: int, rows: Sequence[tuple]) -> bool:
        """Whether rows are canonical entries for n, those that from_map leaves as they are; tested by columns."""
        cols = list(zip(*rows))
        return (not rows and n > 0) or ({*map(len, rows)} == {(a := cls.arity) + 1}
                and {*map(type, chain.from_iterable(cols))} == {int} and 0 < min(cols[0]) and max(cols[a - 1]) <= n
                and all(cols[a]) and all(all(map(int.__lt__, cols[c], cols[c + 1])) for c in range(a - 1))
                and all(map(tuple.__lt__, keys := list(zip(*cols[:a])), keys[1:])))

    @classmethod
    def _norm(cls, key: Iterable[int], n: int) -> tuple[tuple[int, ...], int]:
        """The canonical form of a key, with its sign: the key must be cls.arity distinct ints in 1..n."""
        try:
            key = tuple(key)
        except TypeError:  # not iterable, so no key: the error names it as given
            pass
        else:
            if len(key) == cls.arity and all(type(x) is int for x in key):
                canonical, sign = cls._sort(*key)  # sorted, so its ends bound the range
                if 0 < canonical[0] and canonical[-1] <= n and len(set(canonical)) == cls.arity:
                    return canonical, sign
        raise DomainError(f"invalid {cls.noun} {key} for n={n}")

    @classmethod
    def zero(cls, n: int):
        return cls(n, ())

    @classmethod
    def from_map(cls, n: int, mapping: dict | Iterable[tuple[tuple[int, ...], int]]):
        """Sum the exponents per key, with each key's sign, and drop the zeros."""
        _check_strands(n)
        acc: dict[tuple[int, ...], int] = {}
        try:
            items = iter(mapping.items() if isinstance(mapping, dict) else mapping)
        except TypeError:
            raise DomainError(f"a {cls.noun} map must be a dict or an iterable of (key, exponent) pairs,"
                              f" got {type(mapping).__name__}") from None
        for item in items:
            try:
                key, e = item
            except (TypeError, ValueError):
                raise DomainError(f"a {cls.noun} map item must be a (key, exponent) pair, got {item!r}") from None
            key, sign = cls._norm(key, n)
            if type(e) is not int:
                raise DomainError(f"exponent {e!r} on {cls.noun} {key} is not an int")
            acc[key] = acc.get(key, 0) + sign * e
        return _trusted(cls, n=n, entries=tuple(sorted([key + (e,) for key, e in acc.items() if e])))

    def as_map(self) -> dict[tuple[int, ...], int]:
        return {row[:-1]: row[-1] for row in self.entries}

    def is_zero(self) -> bool:
        return not self.entries


class PurePart(_Coordinates):
    """Exponents on the pure generators A[i,j]; entries are (i, j, exponent), lex-sorted."""

    arity = 2
    noun = "pair"
    keys = staticmethod(pairs)

    @staticmethod
    def _sort(i: int, j: int) -> tuple[Pair, int]:
        """A[j,i] = A[i,j], so the sign is always +1."""
        return ((i, j) if i < j else (j, i)), 1


class CommPart(_Coordinates):
    """Exponents on the basis commutators a[i,j,k]; entries are (i, j, k, exponent), lex-sorted.

    A key in any order is the sorted triple, with the sign of the sort.
    """

    arity = 3
    noun = "triple"
    keys = staticmethod(triples)
    _sort = staticmethod(_sort3)


class NilElement(_Value):
    """Canonical normal form of a quotient-group element; equality is group equality."""

    n: int
    perm: Permutation
    pure: PurePart
    comm: CommPart

    def __post_init__(self):
        _check_strands(self.n)
        if not (isinstance(self.perm, Permutation) and isinstance(self.pure, PurePart)
                and isinstance(self.comm, CommPart)):
            raise DomainError("a NilElement is built from a Permutation, a PurePart and a CommPart")
        if not (self.perm.n == self.pure.n == self.comm.n == self.n):
            raise DomainError("inconsistent strand counts inside NilElement")

    def is_identity(self) -> bool:
        return self.perm.is_identity() and self.pure.is_zero() and self.comm.is_zero()


def identity(n: int) -> NilElement:
    return NilElement(n, Permutation.identity(n), PurePart.zero(n), CommPart.zero(n))


def sigma(n: int, k: int, eps: int = 1) -> NilElement:
    """The image of the Artin generator s_k (or its inverse for eps=-1)."""
    return collect(BraidWord(n, ((k, eps),)))


def pure_gen(n: int, i: int, j: int) -> NilElement:
    """The pure generator A[i,j] as a normal form."""
    return NilElement(n, Permutation.identity(n), PurePart.from_map(n, {(i, j): 1}), CommPart.zero(n))


def comm_gen(n: int, triple: Triple) -> NilElement:
    """The basis commutator a[i,j,k] as a normal form."""
    return NilElement(n, Permutation.identity(n), PurePart.zero(n), CommPart.from_map(n, {tuple(triple): 1}))


# ---------------------------------------------------------------------------
# The reduced-word section
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _lex_reduced_word(image: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically smallest reduced word for the permutation.

    The possible first letters of reduced words are the positions of descents
    of the one-line form, and taking the smallest one each time is insertion
    sort: the value at 1-based position p + 1 moves left past the c larger
    values before it, through the letters p, p - 1, ..., p - c + 1.
    """
    word, seen = [], []  # seen: the values before position p + 1, sorted
    for p, v in enumerate(image):
        i = bisect_left(seen, v)  # so c = p - i
        seen.insert(i, v)
        word += range(p, i, -1)
    return tuple(word)


def tits_lift(perm: Permutation) -> BraidWord:
    """The canonical positive lift of a permutation: its lex-smallest reduced word.

    By the exchange property any reduced word of perm collects to the same
    element, and for length-additive products the lift is multiplicative.
    """
    return BraidWord(perm.n, tuple((k, 1) for k in _lex_reduced_word(perm.image)))


# ---------------------------------------------------------------------------
# Collection: the group law on normal forms
# ---------------------------------------------------------------------------

def _fold_framed(image: list[int], nbr: list[dict[int, int]], comm: dict[Triple, int],
                 letters: Sequence[Letter], frame: tuple[list[int], list[int]] | None = None) -> Framed:
    """Multiply the state (image, nbr, comm) on the right by the letters, in order, keyed by its starting labels.

    A letter s_k^eps conjugates the graded parts through s_k^-eps, then is
    absorbed into the section or deposits A[k,k+1]^eps at the head of the pure
    product, with the class-2 corrections [X^a, Y^b] = a*b*[X, Y].

    Frame invariant: nbr and comm stay keyed by the strand labels they had
    when the fold started, lab[x] is the starting label now at slot x and pos
    its inverse; an entry stored under starting labels sits at their current
    slots, with the sign of the sort.  The frame starts as the given (lab,
    pos), 1-based with index 0 fixed, or else as the identity.  So a letter
    only swaps lab[k], lab[k+1], and each other slot x, with e_a, e_b the
    exponents on {lab[x], lab[k]} and {lab[x], lab[k+1]}, adds e_a*e_b - (e_a
    if eps = +1 else e_b), plus eps*(e_a - e_b) on a deposit when x < k, at
    the slot triple sort(x, k, k+1).

    That correction is always d = e*(e' - 1), e the exponent on one row and e'
    on the other, so only the entries of one row can make it nonzero.  Call
    `one` the row of lab[k] for eps = +1, of lab[k+1] for eps = -1, and `two`
    the other.  An absorbed letter has e on one at every slot x; a deposit has
    e on one at the slots x > k+1 and e on two at the slots x < k, where the
    rows trade places.  So an absorbed letter scans one, and a deposit one row
    above k+1 and the other below k, never an empty row, with one lookup per
    entry: a letter costs at most the degree of its two strands, and on a
    sparse state only its slot bookkeeping.  A fold of more than T = n*C(n,2)
    letters, n crossings per strand pair on average, and more than 50, adds
    each d to a sum at the int (la*m + lb)*m + v, m = n + 1, and places each
    nonzero sum once at sort(v, lb, la) after the last letter: at most
    n(n-1)(n-2) lookups in comm.  A shorter fold revisits too few of those keys
    for the sums to pay, so it places each d as it meets it.  The floor of 50,
    T at n = 5, keeps the short words at n = 3 and 4 (T = 9, 24) from paying
    for the (n+1)^3 sums and their scan.  The index of slot x's value in the
    one-line image swaps with lab, so it is at[lab[x]] for the fixed `at`.
    nbr and comm are consumed and returned under the starting labels, with the
    new image and the frame pos, or None for no letters.
    """
    if not letters:
        return image, nbr, comm, None
    n = len(image)
    m = n + 1
    lab, pos = frame or (list(range(m)), list(range(m)))  # 1-based slots and labels; index 0 unused
    at = [0] * m  # at[l]: the index, in the starting image, of the value at label l's starting slot
    for i, v in enumerate(image):
        at[lab[v]] = i
    # past T letters, and past 50 (T at n = 5), each d goes to a sum, placed after the last letter
    sums = [0] * m ** 3 if len(letters) > max(n * n * (n - 1) // 2, 50) else []
    for k, eps in letters:
        la, lb = lab[k], lab[k + 1]
        na, nb = nbr[la], nbr[lb]
        # section dichotomy: absorb the letter when it extends the reduced word
        if eps == 1:
            deposit, one, two = at[la] > at[lb], na, nb
        else:
            deposit, one, two = at[la] < at[lb], nb, na
        lab[k], lab[k + 1] = lb, la
        pos[la], pos[lb] = k + 1, k
        if (na or nb) if deposit else one:  # an absorbed letter reads only `one`
            # d = e * (e' - 1), e on `row` and e' on `other`, at the slots of row outside lo..hi
            if not deposit:
                scans = ((one, two, k, k + 1),)
            elif one and two:
                scans = ((one, two, 0, k + 1), (two, one, k, n))
            else:  # scan only a row that holds entries
                scans = ((one, two, 0, k + 1),) if one else ((two, one, k, n),)
            if sums:
                base = (la * m + lb) * m
                for row, other, lo, hi in scans:
                    for v, e in row.items():
                        if not lo <= pos[v] <= hi and (d := e * (other.get(v, 0) - 1)):
                            sums[base + v] += d
            else:
                # sort(x, k, k+1) holds labels (v, lb, la) or (lb, la, v): v placed around the sorted pair p < q
                p, q, s = (lb, la, 1) if lb < la else (la, lb, -1)
                for row, other, lo, hi in scans:
                    for v, e in row.items():
                        if lo <= pos[v] <= hi:
                            continue
                        d = e * (other.get(v, 0) - 1)
                        if d:
                            if v < p:
                                t = (v, p, q)
                            elif v < q:
                                t, d = (p, v, q), -d
                            else:
                                t = (p, q, v)
                            c = comm.get(t, 0) + s * d
                            if c:
                                comm[t] = c
                            else:
                                del comm[t]
        if deposit:
            e = na.get(lb, 0) + eps
            if e:
                na[lb] = nb[la] = e
            else:
                del na[lb], nb[la]
    for key, d in enumerate(sums):  # (la*m + lb)*m + v goes to sort(v, lb, la), as a letter places it
        if d:
            t, sign = _sort3(key % m, key // m % m, key // (m * m))
            if c := comm.get(t, 0) + sign * d:
                comm[t] = c
            else:
                del comm[t]
    out_image = [0] * n
    for v in range(1, m):
        out_image[at[lab[v]]] = v
    return out_image, nbr, comm, pos


def _fold(image: list[int], nbr: list[dict[int, int]], comm: dict[Triple, int], letters: Sequence[Letter]) -> State:
    """`_fold_framed` from the labels that its letters carry to slot order, keyed by slot for a merge or a fold to
    follow: one signed rename of nbr and comm, made before the letters add entries to them."""
    if not letters:
        return image, nbr, comm
    pos = list(range(len(image) + 1))
    for k, _ in letters:
        pos[k], pos[k + 1] = pos[k + 1], pos[k]
    lab = sorted(range(len(pos)), key=pos.__getitem__)  # pos[x] is the label carried to slot x; lab renames it x
    renamed = {}
    for (u, v, w), c in comm.items():
        u, v, w = lab[u], lab[v], lab[w]
        if u > v:
            u, v, c = v, u, -c
        if v > w:
            v, w, c = w, v, -c
            if u > v:
                u, v, c = v, u, -c
        renamed[u, v, w] = c
    out_nbr = [{lab[v]: e for v, e in nbr[u].items()} for u in pos]
    return _fold_framed(image, out_nbr, renamed, letters, (lab, pos))[:3]


def _pure_rows(nbr: list[dict[int, int]]) -> tuple[tuple[int, int, int], ...]:
    """The pure rows (u, v, e), u < v, of a strand adjacency, in lex order."""
    return tuple(sorted([(u, v, e) for u, row in enumerate(nbr) if row for v, e in row.items() if u < v]))


Rows = tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], tuple[tuple[int, int, int, int], ...]]


def _rows(image: list[int], nbr: list[dict[int, int]], comm: dict[Triple, int], pos: list[int] | None = None) -> Rows:
    """A state's normal form as canonical rows (image, pure rows, level-2 rows): a level is one sort of flat rows,
    keys mapped through the frame pos if given, zeros dropped.  Two states are equal iff their rows are."""
    if pos is None:
        pure, comm_rows = _pure_rows(nbr), [(i, j, k, c) for (i, j, k), c in comm.items() if c]
    else:
        pure = tuple(sorted([(a, b, e) for u, row in enumerate(nbr) if row for a in (pos[u],)
                             for v, e in row.items() if a < (b := pos[v])]))
        comm_rows = []
        for (u, v, w), c in comm.items():
            if c:
                u, v, w = pos[u], pos[v], pos[w]
                if u > v:
                    u, v, c = v, u, -c
                if v > w:
                    v, w, c = w, v, -c
                    if u > v:
                        u, v, c = v, u, -c
                comm_rows.append((u, v, w, c))
    comm_rows.sort()
    return tuple(image), pure, tuple(comm_rows)


def _normal_form(n: int, image: tuple[int, ...], pure: tuple[tuple[int, int, int], ...],
                 comm: tuple[tuple[int, int, int, int], ...]) -> NilElement:
    """The normal form whose fields are the canonical rows of `_rows`."""
    return _trusted(NilElement, n=n, perm=_trusted(Permutation, image=image),
                    pure=_trusted(PurePart, n=n, entries=pure), comm=_trusted(CommPart, n=n, entries=comm))


def _freeze(n: int, image: list[int], nbr: list[dict[int, int]], comm: dict[Triple, int],
            pos: list[int] | None = None) -> NilElement:
    """The normal form of a state: `_normal_form` of its `_rows`."""
    return _normal_form(n, *_rows(image, nbr, comm, pos))


def _thaw(a: NilElement) -> State:
    nbr: list[dict[int, int]] = [{} for _ in range(a.n + 1)]
    for i, j, e in a.pure.entries:
        nbr[i][j] = nbr[j][i] = e
    return list(a.perm.image), nbr, {(i, j, k): c for i, j, k, c in a.comm.entries}


def _origin(n: int) -> State:
    """A fresh fold state of the identity on n strands."""
    return list(range(1, n + 1)), [{} for _ in range(n + 1)], {}


def collect(word: BraidWord) -> NilElement:
    """Fold a braid word into its canonical normal form.

    This is a homomorphism: collect(u * v) = mul(collect(u), collect(v)).
    """
    return _freeze(word.n, *_fold_framed(*_origin(word.n), word.letters))


def _merge_pure_block(nbr: list[dict[int, int]], comm: dict[Triple, int],
                      block: Iterable[tuple[int, int, int]]) -> None:
    """Append a block of pure factors A[i,j]^e, as rows (i, j, e) with i < j and e != 0, and restore lex order.

    Each incoming A[i,j]^e moves left past the residents A_p, p > (i,j), with
    the correction e * e_p * [A_p, A[i,j]], nonzero only for p sharing one
    index: A[x,j] for i < x < j adds e * e_(x,j) to a[i,x,j], and A[i,x], A[j,x]
    for x > j add e * (e_(i,x) - e_(j,x)) to a[i,j,x].  So a factor scans the
    row of i above j, then the row of j without the keys above j that the row
    of i holds: one update per level-2 key, at the cost of the degree of its
    two indices.  It updates nbr in place with comm.
    """
    for i, j, e in block:
        ni, nj = nbr[i], nbr[j]
        for x, d in ni.items():
            if x > j and (d := d - nj.get(x, 0)):
                t = (i, j, x)
                c = comm.get(t, 0) + e * d
                if c:
                    comm[t] = c
                else:
                    del comm[t]
        for x, d in nj.items():
            if x > j and x not in ni:
                t, d = (i, j, x), -d
            elif i < x < j:
                t = (i, x, j)
            else:
                continue
            c = comm.get(t, 0) + e * d
            if c:
                comm[t] = c
            else:
                del comm[t]
        c = ni.get(j, 0) + e
        if c:
            ni[j] = nj[i] = c
        else:
            del ni[j], nj[i]


def _add_level2(comm: dict[Triple, int], entries: Iterable[tuple[int, int, int, int]], sign: int) -> None:
    """Add sign times the level-2 entries (i, j, k, c) to comm, deleting the sums that cancel."""
    for i, j, k, c in entries:
        t = (i, j, k)
        c = comm.get(t, 0) + sign * c
        if c:
            comm[t] = c
        else:
            del comm[t]


def _times(image: list[int], nbr: list[dict[int, int]], comm: dict[Triple, int], b_image: tuple[int, ...],
           b_pure: Sequence[tuple[int, int, int]], b_comm: Iterable[tuple[int, int, int, int]]) -> State:
    """Multiply the state on the right by b, read as its image, its pure rows in lex order and its level-2 rows in
    any order: fold b's section, merge b's pure block, add b's level 2.  A section with letters folds into fresh
    dicts, so the state is left as it was unless b's permutation is the identity; then it is merged into."""
    if len(image) != len(b_image):
        raise DomainError("cannot multiply elements on different strand counts")
    image, nbr, comm = _fold(image, nbr, comm, [(k, 1) for k in _lex_reduced_word(b_image)])
    _merge_pure_block(nbr, comm, b_pure)
    _add_level2(comm, b_comm, 1)
    return image, nbr, comm


def _times_inverse(image: list[int], nbr: list[dict[int, int]], comm: dict[Triple, int], b: NilElement) -> Framed:
    """Multiply the state on the right by b^-1 = comm^-1 * pure^-1 * section^-1, without building b^-1, framed."""
    _add_level2(comm, b.comm.entries, -1)
    # the inverse of the lex-ordered pure product is the reversed product of inverses
    _merge_pure_block(nbr, comm, ((i, j, -e) for i, j, e in reversed(b.pure.entries)))
    return _fold_framed(image, nbr, comm, [(k, -1) for k in reversed(_lex_reduced_word(b.perm.image))])


def mul(a: NilElement, b: NilElement) -> NilElement:
    """Group multiplication of normal forms."""
    return _freeze(a.n, *_times(*_thaw(a), b.perm.image, b.pure.entries, b.comm.entries))


def inv(a: NilElement) -> NilElement:
    """Group inverse: fold comm^-1 * pure^-1 * section^-1 back into normal form."""
    return _freeze(a.n, *_times_inverse(*_origin(a.n), a))


def _fields(image: list[int], nbr: list[dict[int, int]], comm: dict[Triple, int]) -> tuple:
    """A state as `_times` reads a right factor: its image, its pure rows in lex order, its level-2 rows unsorted."""
    return tuple(image), _pure_rows(nbr), [t + (c,) for t, c in comm.items()]


def power(a: NilElement, m: int) -> NilElement:
    """a^m as a^r * (a^q)^s, where q is the order of a's permutation and m = s*q + r, 0 <= r < q.

    The squares a^(2^i) are working states, each the one before times that
    one's fields, never frozen.  a^r is the lowest square it uses times the
    others; a^q is a^r times the squares of q - r when that takes fewer
    products, else built as a^r is.  Below q no square's permutation is the
    identity, so `_times` leaves a stored square as it was.  a^q is pure, and
    in class 2 its powers have a closed form (Hall-Petresco): (id, v, w)^s =
    (id, s*v, s*w + C(s,2)*B(v)), with B(v) the level-2 part of merging v onto
    itself.  So a power costs O(log q) products, one merge, and one freeze,
    of its result.  For s = 1 a^q is computed in full, so order() computes
    the real power.  Negative powers go through inv.
    """
    _check_int("exponent", m)
    if m < 0:
        return power(inv(a), -m)
    n = a.n
    q = a.perm.order()
    s, r = divmod(m, q)
    states, fields = [_thaw(a)], [(a.perm.image, a.pure.entries, a.comm.entries)]  # of a^(2^i)
    for _ in range((q if s else r).bit_length() - 1):
        states.append(_times(*states[-1], *fields[-1]))
        fields.append(_fields(*states[-1]))

    def chain(state: State, e: int) -> State:  # state times a^(2^i) for each set bit i of e
        for i in range(e.bit_length()):
            if e >> i & 1:
                state = _times(*state, *fields[i])
        return state

    ar = chain(states[(r & -r).bit_length() - 1], r & (r - 1)) if r else None
    if not s:
        return _freeze(n, *ar) if r else identity(n)
    if r and (q - r).bit_count() < q.bit_count() - 1:
        image, nbr, w = chain(ar, q - r)
    else:
        image, nbr, w = chain(states[(q & -q).bit_length() - 1], q & (q - 1))
    if s > 1:
        b: dict[Triple, int] = {}
        _merge_pure_block(nbr, b, _pure_rows(nbr))  # v merged onto itself: nbr holds 2v, b holds B(v)
        w = {t: c for t in w.keys() | b.keys() if (c := s * w.get(t, 0) + s * (s - 1) // 2 * b.get(t, 0))}
        nbr = [{x: e * s // 2 for x, e in row.items()} for row in nbr]
    # a^q's permutation is the identity, so the product merges into a^r's state, used here for the last time
    return _freeze(n, *_times(*ar, *_fields(image, nbr, w))) if r else _freeze(n, image, nbr, w)


def conj(g: NilElement, x: NilElement) -> NilElement:
    """Conjugation g x g^-1, as one pass over g's state; a left action: conj(g, conj(h, x)) = conj(mul(g, h), x)."""
    return _freeze(g.n, *_times_inverse(*_times(*_thaw(g), x.perm.image, x.pure.entries, x.comm.entries), g))


def order(a: NilElement):
    """The order of the element: a positive int, or None for infinite order.

    Finite order forces a^q = 1 for q the order of the underlying permutation,
    because the kernel of the permutation map is torsion free; so it suffices
    to test that single power.
    """
    q = a.perm.order()
    return q if power(a, q).is_identity() else None


# ---------------------------------------------------------------------------
# The conjugation action on both levels (it only depends on the permutation)
# ---------------------------------------------------------------------------

def conjugation_step(perm: Permutation,
                     cls: type[PurePart] | type[CommPart]) -> Callable[[tuple[int, ...]], tuple[tuple[int, ...], int]]:
    """Signed relabelling key -> (key, sign) of cls's keys under conjugation by any element with permutation perm.

    A key goes to cls's sorted form of its image under the inverse permutation,
    with that form's sign: +1 for a pair, the sign of the sort for a triple.  This
    is what the per-generator rules folded along any reduced word give, up to a
    central level-2 factor on a pair; the kernel of the permutation map acts
    trivially on level 2, so the step is exact for every element with this
    permutation.
    """
    at, sort = (0,) + perm.inverse().image, cls._sort
    if cls.arity == 2:  # indexed, not mapped: the step runs once per key of an orbit walk
        return lambda key: sort(at[key[0]], at[key[1]])
    return lambda key: sort(at[key[0]], at[key[1]], at[key[2]])


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def element_to_dict(a: NilElement) -> dict:
    return {
        "n": a.n,
        "perm": list(a.perm.image),
        "pure": [[i, j, e] for i, j, e in a.pure.entries],
        "comm": [[i, j, k, c] for i, j, k, c in a.comm.entries],
    }


def json_int(x) -> int:
    """A JSON integer as given; bools, floats and strings are rejected, never coerced."""
    if type(x) is not int:
        raise DomainError(f"expected a JSON integer, got {x!r}")
    return x


def json_keys(d, what: str, allowed: tuple[str, ...]) -> None:
    """A JSON object may carry only the allowed keys: the first other one is a DomainError naming it."""
    for key in d if isinstance(d, dict) else ():
        if key not in allowed:
            raise DomainError(f"unknown key {key!r} in {what} JSON")


def _json_rows(rows, width: int) -> list[tuple[int, ...]]:
    """A JSON list of integer rows, each of the given width."""
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise DomainError(f"expected a list of {width} integers, got {row!r}")
        out.append(tuple(map(json_int, row)))
    return out


def element_from_dict(d: dict) -> NilElement:
    json_keys(d, "element", ("n", "perm", "pure", "comm"))
    try:
        n = json_int(d["n"])
        perm = Permutation(tuple(json_int(x) for x in d["perm"]))
        parts = []
        for cls, rows in ((PurePart, d.get("pure", [])), (CommPart, d.get("comm", []))):  # canonical rows as they are
            if (type(rows) is list and {*map(type, rows)} <= {list}
                    and cls._canonical(n, entries := tuple(map(tuple, rows)))):
                parts.append(_trusted(cls, n=n, entries=entries))
            else:
                parts.append(cls.from_map(n, [(row[:-1], row[-1]) for row in _json_rows(rows, cls.arity + 1)]))
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed element JSON: {exc}") from exc
    return NilElement(n, perm, *parts)


def word_to_dict(w: BraidWord) -> dict:
    return {"n": w.n, "word": [[k, eps] for k, eps in w.letters]}


def word_from_dict(d: dict) -> BraidWord:
    json_keys(d, "word", ("n", "word"))
    try:
        return BraidWord(json_int(d["n"]), tuple(_json_rows(d.get("word", []), 2)))
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed word JSON: {exc}") from exc


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
