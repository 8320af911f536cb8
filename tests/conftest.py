"""Shared test helpers: random words, the Hypothesis element strategy, call
counters, a child process's memory peak, the independent oracles, and the
helpers only tests read (expression formatting, adjacent transpositions,
Coxeter length, the closed-form orbit transversal).

The oracles are the permutation of a word, its lex-smallest reduced word by
repeated smallest descents, and the strand-tracking normal form at level 1,
the conjugation rules of one generator on one pair or triple, the graded
action of a permutation folded from those rules along a word, the eager
letter-by-letter fold built on the same rules, which relabels every graded
entry on each letter, the bracket table of two pure generators with the
pure-block merge that scans every resident against it, power by plain
squaring, conjugation as two products and an inverse, the dense holonomy
matrices with the CLI text they encode to, the presentation check that
collects both sides of every relation whole, the earlier relation loop that
freezes every relation's folded lhs and compares normal forms, and the
expression parser that scans one character at a time.  The fold and merge oracles keep level 1 as a
pair dict; pair_dict and adjacency convert to and from the strand adjacency of
the group law.  The element JSON reader and the coordinate constructors are
checked against their earlier forms, which read every row cell by cell and
compared the entries with their from_map form, on the documents that
element_documents draws.

With the CI environment variable set, Hypothesis runs derandomized and
without its example database, so a failing CI run repeats exactly; per-test
settings still apply.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from typing import Iterable

from hypothesis import settings
from hypothesis import strategies as st

import braidnil
from braidnil.core import (
    BraidWord,
    CommPart,
    DomainError,
    NilElement,
    Pair,
    Permutation,
    PurePart,
    Triple,
    _check_strands,
    _fold,
    _fold_framed,
    _freeze,
    _origin,
    _trusted,
    collect,
    element_to_dict,
    identity,
    inv,
    json_int,
    json_keys,
    mul,
    pairs,
    triples,
)
from braidnil.expr import _MAX_NESTING, ExpressionError, _validate
from braidnil.presentations import RelationReport

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def peak_in_child(statement: str, *argv: str) -> tuple[int, int]:
    """Run statement in a fresh interpreter, stdout discarded; return its int `result` and its VmHWM in KiB.

    VmHWM is the child's own peak since exec: ru_maxrss carries over the peak of the
    forked pytest process, so it would measure whatever the tests before left in memory.
    """
    child = ("import sys\n" + statement + "\n"
             "with open('/proc/self/status') as f:\n"
             "    hwm = next(line.split()[1] for line in f if line.startswith('VmHWM:'))\n"
             "sys.stderr.write(f'{result} {hwm}')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(braidnil.__file__).parents[1]))
    with open(os.devnull, "w") as sink:
        proc = subprocess.run([sys.executable, "-c", child, *argv], stdout=sink, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result, hwm_kb = map(int, proc.stderr.split())
    return result, hwm_kb


def random_word(rng: random.Random, n: int, max_len: int = 40) -> BraidWord:
    """A word of a random length up to max_len; at n = 1, which has no generator, the empty word."""
    length = rng.randint(0, max_len)
    return BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length if n > 1 else 0)))


@st.composite
def elements(draw, n=None, pure_only=False):
    """A collected random word times random graded noise; with pure_only, the noise alone (q = 1)."""
    n = draw(st.integers(1, 9)) if n is None else n
    keys = list(pairs(n)) + list(triples(n))
    noise = draw(st.dictionaries(st.sampled_from(keys), st.integers(-3, 3), max_size=12)) if keys else {}
    graded = NilElement(n, Permutation.identity(n),
                        PurePart.from_map(n, {k: e for k, e in noise.items() if len(k) == 2}),
                        CommPart.from_map(n, {k: e for k, e in noise.items() if len(k) == 3}))
    if pure_only or n == 1:
        return graded
    letters = draw(st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=3 * n))
    return mul(collect(BraidWord(n, tuple(letters))), graded)


def _json_rows_before(rows, width: int) -> list[tuple[int, ...]]:
    """A JSON list of integer rows, each of the given width."""
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise DomainError(f"expected a list of {width} integers, got {row!r}")
        out.append(tuple(json_int(x) for x in row))
    return out


def element_from_dict_before(d: dict) -> NilElement:
    """The element JSON reader that sent every row through from_map: the oracle of the column check."""
    json_keys(d, "element", ("n", "perm", "pure", "comm"))
    try:
        n = json_int(d["n"])
        perm = Permutation(tuple(json_int(x) for x in d["perm"]))
        pure = PurePart.from_map(n, [((i, j), e) for i, j, e in _json_rows_before(d.get("pure", []), 3)])
        comm = CommPart.from_map(n, [((i, j, k), c) for i, j, k, c in _json_rows_before(d.get("comm", []), 4)])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed element JSON: {exc}") from exc
    return NilElement(n, perm, pure, comm)


def coordinates_before(cls, n, entries):
    """cls(n, entries) as the constructor built it when its check was from_map and compare."""
    _check_strands(n)
    if not isinstance(entries, tuple):
        raise DomainError(f"entries must be a tuple, got {type(entries).__name__}")
    for row in entries:
        if not isinstance(row, tuple) or not row:
            raise DomainError(f"invalid entry {row!r} for n={n}")
    if cls.from_map(n, ((row[:-1], row[-1]) for row in entries)).entries != entries:
        raise DomainError(f"entries {entries!r} are not canonical for n={n}: keys must be sorted"
                          " and strictly increasing, exponents nonzero (from_map canonicalises)")
    return _trusted(cls, n=n, entries=entries)


def outcome(build, *args):
    """What build(*args) gives: ("value", the value), or the type and the message of what it raises."""
    try:
        return "value", build(*args)
    except Exception as exc:  # any type, so that a reader raising a new one is told apart
        return type(exc), str(exc)


# a cell that JSON can carry but that is no integer, and a row that is no list
NON_INTEGERS = (True, False, 1.0, 2.5, "1", None, [1])
NON_ROWS = (5, "ab", None, {"a": 1}, (1, 2, 3))


@st.composite
def element_rows(draw, n: int, rows: list, width: int) -> list:
    """rows with up to three faults drawn: a shuffle, a key in another order, a duplicated key, a zero exponent, a
    cell that is no integer, a row of width 2 or 5 or no list, an index of 0 or n + 1, a repeated index."""
    rows = [list(row) for row in rows]
    index = st.integers(0, n + 1)
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(("shuffle", "order", "duplicate", "zero", "cell", "width", "row", "index",
                                      "repeat")))
        if fault == "shuffle":
            rows = draw(st.permutations(rows))
        elif fault == "zero":
            key = draw(st.lists(index, min_size=width - 1, max_size=width - 1))
            rows.insert(draw(st.integers(0, len(rows))), key + [0])
        if fault in ("shuffle", "zero") or not rows:
            continue
        at = draw(st.integers(0, len(rows) - 1))
        row = list(rows[at]) if isinstance(rows[at], list) else [1] * width
        if fault == "order":
            rows[at] = draw(st.permutations(row[:-1])) + row[-1:]
        elif fault == "duplicate":
            rows.insert(at + draw(st.integers(0, 1)), row[:-1] + [draw(st.integers(-2, 2))])
        elif fault == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NON_INTEGERS))
            rows[at] = row
        elif fault == "width":
            rows[at] = (row + [1, 1, 1])[:draw(st.sampled_from((2, 5)))]
        elif fault == "row":
            rows[at] = draw(st.sampled_from(NON_ROWS))
        elif fault in ("index", "repeat"):
            spot = draw(st.integers(0, len(row) - 2))  # a cell before the last
            row[spot] = draw(st.sampled_from((0, n + 1))) if fault == "index" else row[spot - 1 if spot else 1]
            rows[at] = row
    return rows


@st.composite
def coordinate_arguments(draw) -> tuple:
    """(cls, n, entries) for a coordinate constructor: a drawn element's canonical rows as tuples, with faults drawn
    by element_rows, and at times an n of 0, or one off."""
    n, cls = draw(st.integers(1, 6)), draw(st.sampled_from((PurePart, CommPart)))
    rows = element_to_dict(draw(elements(n, pure_only=True)))["pure" if cls is PurePart else "comm"]
    entries = tuple(tuple(row) if type(row) is list else row for row in draw(element_rows(n, rows, cls.arity + 1)))
    return cls, draw(st.sampled_from((n,) * 6 + (0, n - 1, n + 1))), entries


@st.composite
def element_documents(draw) -> dict:
    """Element JSON: the canonical form of a drawn element, its rows with faults drawn by element_rows, and at times
    a part that is no list, a missing part, an n of 0 or below, or an n that is not the permutation's."""
    n = draw(st.integers(1, 6))
    doc = element_to_dict(draw(elements(n)))
    for part, width in (("pure", 3), ("comm", 4)):
        doc[part] = draw(element_rows(n, doc[part], width))
        kind = draw(st.sampled_from(("rows",) * 10 + ("no list", "missing")))
        if kind == "no list":
            doc[part] = draw(st.sampled_from(NON_ROWS + ((),)))
        elif kind == "missing":
            del doc[part]
    doc["n"] = draw(st.sampled_from((n,) * 10 + (0, -1, n - 1, n + 1, True, 1.0)))
    return doc


def counted(monkeypatch, owner, name):
    """Replace owner.name (a module function, or a static or class method) by a wrapper counting its calls.

    Returns the one-cell list holding the running count.
    """
    calls = [0]
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    # getattr bound a class method to owner already, so the wrapper stays static for it too
    static = isinstance(inspect.getattr_static(owner, name), (staticmethod, classmethod))
    monkeypatch.setattr(owner, name, staticmethod(wrapper) if static else wrapper)
    return calls


def pair_dict(nbr: list[dict[int, int]]) -> dict[Pair, int]:
    """The pure exponents of a strand adjacency as the pair dict the oracles read."""
    return {(u, v): e for u, row in enumerate(nbr) for v, e in row.items() if u < v}


def adjacency(n: int, pure: dict[Pair, int]) -> list[dict[int, int]]:
    """The strand adjacency of a pair dict: nbr[u][v] = nbr[v][u] = pure[(u, v)], row 0 empty."""
    nbr: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for (u, v), e in pure.items():
        nbr[u][v] = nbr[v][u] = e
    return nbr


def word_permutation(word: BraidWord) -> Permutation:
    """The permutation of a word: the product of its letters' transpositions in reading order."""
    image = list(range(1, word.n + 1))
    for k, _ in word.letters:
        i, j = image.index(k), image.index(k + 1)
        image[i], image[j] = k + 1, k
    return Permutation(tuple(image))


def transposition(n: int, k: int) -> Permutation:
    """The adjacent transposition (k, k+1) in S_n."""
    image = list(range(1, n + 1))
    image[k - 1], image[k] = k + 1, k
    return Permutation(tuple(image))


def inversions(image) -> int:
    """Coxeter length of a permutation image: the number of out-of-order pairs."""
    return sum(1 for i, j in combinations(range(len(image)), 2) if image[i] > image[j])


def descent_greedy_word(image: tuple[int, ...]) -> tuple[int, ...]:
    """The lex-smallest reduced word by its definition: take the smallest descent of the one-line form, swap it,
    and step back one position, since the swap can open a descent just before it."""
    one = list(image)
    word = []
    i = 0
    while i < len(one) - 1:
        if one[i] > one[i + 1]:
            word.append(i + 1)  # positions are 1-based generator indices
            one[i], one[i + 1] = one[i + 1], one[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(word)


def satisfies(targets: tuple[int, ...], residues: list[list[int]]) -> bool:
    """Whether every residue row sums to its orbit's target in the order-n system."""
    return len(residues) == len(targets) and all(sum(row) == target for row, target in zip(residues, targets))


def format_terms(terms: tuple) -> str:
    """Canonical text for a parsed expression; parse(format(e)) gives the same element."""
    chunks = []
    for atom, exponent in terms:
        kind = atom[0]
        if kind == "gen":
            body = f"s{atom[1]}"
            if atom[2] == -1:
                exponent = -exponent
        elif kind in ("A", "a"):
            body = f"{kind}[{','.join(map(str, atom[1]))}]"
        else:
            body = f"({format_terms(atom[1])})"
        chunks.append(body if exponent == 1 else f"{body}^{exponent}")
    return " ".join(chunks)


class _Scanner:
    """The character scanner of the reference parser: one text position, advanced one character at a time."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int) -> ExpressionError:
        return ExpressionError(message, len(self.text[:pos].encode()))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected an integer", start)
        return int(self.text[start:self.pos])


def _scan_terms(sc: _Scanner, depth: int) -> tuple:
    terms = []
    while True:
        ch = sc.peek()
        if ch == "" or ch == ")":
            if ch == ")" and depth == 0:
                raise sc.error("unbalanced ')'", sc.pos)
            return tuple(terms)
        if ch == "s" or ch == "S":
            sc.pos += 1
            atom = ("gen", sc.integer(), 1 if ch == "s" else -1)
        elif ch in ("A", "a"):
            sc.pos += 1
            sc.expect("[")
            key = [sc.integer()]
            for _ in range(1 if ch == "A" else 2):
                sc.expect(",")
                key.append(sc.integer())
            sc.expect("]")
            atom = (ch, tuple(key))
        elif ch == "(":
            if depth == _MAX_NESTING:
                raise sc.error(f"parentheses nested deeper than {_MAX_NESTING}", sc.pos)
            sc.pos += 1
            inner = _scan_terms(sc, depth + 1)
            sc.expect(")")
            atom = ("group", inner)
        else:
            raise sc.error(f"unexpected character {ch!r}", sc.pos)
        exponent = 1
        if sc.peek() == "^":
            sc.pos += 1
            exponent = sc.integer()
        terms.append((atom, exponent))


def scanning_parse(text: str, n: int) -> tuple:
    """The terms of parse(text, n) by a scanner that reads one character per step, checked by the same index rule."""
    terms = _scan_terms(_Scanner(text), 0)
    _validate(terms, n)
    return terms


def standard_transversal(n: int) -> list[Triple]:
    """The closed-form transversal of the cycle-element orbits.

    With n = 3q + r the set consists of the triples (1, j, k) for
    2 <= j <= q+1 (q when r = 0) and 2j-1 <= k <= n-(j-1), plus the
    equally-spaced triple (1, n/3+1, 2n/3+1) when r = 0.
    """
    q, r = divmod(n, 3)
    top = q + 1 if r != 0 else q
    out = [(1, j, k) for j in range(2, top + 1) for k in range(2 * j - 1, n - j + 2)]
    if r == 0:
        out.append((1, n // 3 + 1, 2 * n // 3 + 1))
    return out


def strand_tracking_normal_form(word: BraidWord):
    """Independent level-1 oracle: permutation and pure exponents by direct strand tracking.

    Walks the diagram once, recording the signed crossing count between each
    pair of strands (labelled by their starting positions).  The word equals
    section(perm) * pure-part, the section contributes exactly one positive
    crossing to each pair it inverts, and a unit pure exponent contributes two
    crossings; solving for the exponents gives the expected pure part.
    """
    n = word.n
    line = list(range(1, n + 1))  # strand id occupying each position
    cross: dict[tuple[int, int], int] = {}
    for k, eps in word.letters:
        u, v = line[k - 1], line[k]
        key = (u, v) if u < v else (v, u)
        cross[key] = cross.get(key, 0) + eps
        line[k - 1], line[k] = v, u
    final_pos = {strand: pos + 1 for pos, strand in enumerate(line)}
    perm_image = tuple(final_pos[i] for i in range(1, n + 1))
    inv_of = {v: i + 1 for i, v in enumerate(perm_image)}
    pure: dict[tuple[int, int], int] = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            i, j = inv_of[a], inv_of[b]
            c = cross.get((min(i, j), max(i, j)), 0)
            if i > j:
                c -= 1  # the positive section crossing on an inverted pair
            assert c % 2 == 0, "crossing parity must match the section"
            if c:
                pure[(a, b)] = c // 2
    return perm_image, pure


def _pair_action(i: int, j: int, k: int, eps: int):
    """Conjugate the pure generator A[i,j] by s_k^eps: returns ((i',j'), correction).

    The correction is a single (triple, sign) level-2 coefficient or None, so
    s_k^eps A[i,j] s_k^-eps = A[i',j'] * a[triple]^sign.  The eps=+1 cases are
    the displayed rules of the group action; the eps=-1 cases are derived from
    them and verified by the round-trip identity in the test suite.
    """
    if eps == 1:
        if j == k + 1:
            if i < k:
                return (i, k), ((i, k, k + 1), -1)
        elif i == k + 1:
            return (k, j), ((k, k + 1, j), -1)
    else:
        if j == k:
            if i < k:
                return (i, k + 1), ((i, k, k + 1), -1)
        elif i == k and j > k + 1:
            return (k + 1, j), ((k, k + 1, j), -1)
    # plain index swap, no level-2 correction
    a = k + 1 if i == k else k if i == k + 1 else i
    b = k + 1 if j == k else k if j == k + 1 else j
    return ((a, b) if a < b else (b, a)), None


def _triple_action(t: Triple, k: int) -> tuple[Triple, int]:
    """Conjugate the basis triple by s_k^±1 (a signed involution, direction-free).

    The image is the sorted index swap; the sign is -1 exactly when both k and
    k+1 lie in the triple, which is when the swap inverts two of its entries.
    """
    a, b, c = t
    in_k = a == k or b == k or c == k
    in_k1 = a == k + 1 or b == k + 1 or c == k + 1
    if in_k and in_k1:
        return t, -1
    if in_k:
        x = k + 1
    elif in_k1:
        x = k
    else:
        return t, 1
    rest = [y for y in t if y != k and y != k + 1]
    lo, hi = rest
    if x < lo:
        return (x, lo, hi), 1
    if x < hi:
        return (lo, x, hi), 1
    return (lo, hi, x), 1


def generator_action(perm: Permutation, cls) -> dict:
    """The graded conjugation action of perm on cls's keys, as a dict key -> (key, sign).

    The one-generator rules are folded along a bubble-sort word of perm, last
    letter first, since conjugation by s_1 ... s_m applies s_m innermost; any
    word of perm gives the same action on the graded pieces.  A pair's level-2
    correction is dropped, so every pair sign is +1.
    """
    one, word = list(perm.image), []
    for end in range(perm.n - 1, 0, -1):
        for i in range(end):
            if one[i] > one[i + 1]:
                one[i], one[i + 1] = one[i + 1], one[i]
                word.append(i + 1)
    assert word_permutation(BraidWord(perm.n, tuple((k, 1) for k in word))) == perm
    action = {}
    for key in (pairs if cls is PurePart else triples)(perm.n):
        cur, sign = key, 1
        for k in reversed(word):
            if cls is PurePart:
                cur, _ = _pair_action(*cur, k, 1)
            else:
                cur, s = _triple_action(cur, k)
                sign *= s
        action[key] = (cur, sign)
    return action


def eager_fold(image: list[int], pure: dict[Pair, int], comm: dict[Triple, int],
               k: int, eps: int) -> list[int]:
    """Multiply the state (image, pure, comm) by s_k^eps on the right, in place.

    Dict-valued parts are mutated; the new one-line image is returned.  The
    letter first conjugates both graded parts through s_k^-eps (moving them to
    the right of the new letter), then either is absorbed into the section or
    deposits A[k,k+1]^eps at the head of the pure product, with the class-2
    reordering corrections [X^a, Y^b] = a*b*[X, Y] in both steps.
    """
    n = len(image)
    # conjugate level-2 coordinates: a signed relabelling, same in both directions
    if comm:
        relabelled = {}
        for t, c in comm.items():
            t2, s = _triple_action(t, k)
            relabelled[t2] = s * c
        comm.clear()
        comm.update(relabelled)
    # conjugate level-1 coordinates through s_k^-eps, collecting corrections
    if pure:
        eps_conj = -eps
        new_pure = {}
        for (i, j), e in pure.items():
            p2, corr = _pair_action(i, j, k, eps_conj)
            new_pure[p2] = e
            if corr is not None:
                t, s = corr
                c = comm.get(t, 0) + s * e
                if c:
                    comm[t] = c
                else:
                    comm.pop(t, None)
        # restoring lex order swaps exactly the blocks (i,k)<->(i,k+1) and
        # (k,x)<->(k+1,x); only same-index pairs meet a nonzero bracket, and
        # both families contribute +1 on the shared triple
        for i in range(1, k):
            e1 = pure.get((i, k), 0)
            if e1:
                e2 = pure.get((i, k + 1), 0)
                if e2:
                    t = (i, k, k + 1)
                    c = comm.get(t, 0) + e1 * e2
                    if c:
                        comm[t] = c
                    else:
                        comm.pop(t, None)
        for x in range(k + 2, n + 1):
            e1 = pure.get((k, x), 0)
            if e1:
                e2 = pure.get((k + 1, x), 0)
                if e2:
                    t = (k, k + 1, x)
                    c = comm.get(t, 0) + e1 * e2
                    if c:
                        comm[t] = c
                    else:
                        comm.pop(t, None)
        pure.clear()
        pure.update(new_pure)
    # section dichotomy: absorb the letter when it extends the reduced word
    pos_k = image.index(k)
    pos_k1 = image.index(k + 1)
    length_up = pos_k < pos_k1
    image[pos_k], image[pos_k1] = k + 1, k
    if (eps == 1) != length_up:
        # merge A[k,k+1]^eps at the head of the lex-ordered pure product
        for i in range(1, k):
            e = pure.get((i, k), 0)
            if e:
                t = (i, k, k + 1)
                c = comm.get(t, 0) - eps * e
                if c:
                    comm[t] = c
                else:
                    comm.pop(t, None)
            e = pure.get((i, k + 1), 0)
            if e:
                t = (i, k, k + 1)
                c = comm.get(t, 0) + eps * e
                if c:
                    comm[t] = c
                else:
                    comm.pop(t, None)
        c = pure.get((k, k + 1), 0) + eps
        if c:
            pure[(k, k + 1)] = c
        else:
            del pure[(k, k + 1)]
    return image


def _bracket(p: Pair, q: Pair):
    """Coordinates of [A_p, A_q] at level 2: (triple, sign), or None when it vanishes.

    Nonzero only when p and q share exactly one index.  With shared index s and
    remaining indices u (from p) and v (from q), the sign is +1 for
    (s middle, u < v) and (s extreme, u > v), else -1; the triple is sorted
    {s, u, v}.  This encodes [A_{i,j}, A_{j,k}] = a_{i,j,k} together with
    [A_{i,j}, A_{i,k}] = [A_{i,k}, A_{j,k}] = a_{i,j,k}^-1 and antisymmetry.
    """
    if p[0] in q:
        s = p[0]
        u = p[1]
    elif p[1] in q:
        s = p[1]
        u = p[0]
    else:
        return None
    v = q[0] + q[1] - s
    if v == u or v == s:
        return None  # shares both indices: [A_p, A_p^m] = 1
    a, b, c = sorted((s, u, v))
    if s == b:
        sign = 1 if u < v else -1
    else:
        sign = 1 if u > v else -1
    return (a, b, c), sign


def scan_merge_pure_block(pure: dict[Pair, int], comm: dict[Triple, int],
                           block: Iterable[tuple[Pair, int]]) -> None:
    """Append a lex-ordered block of pure factors and restore lex order.

    Each incoming factor q moves left past every resident factor p > q,
    producing the correction e_p * e_q * [A_p, A_q].
    """
    incoming = list(block)
    for q, eq in incoming:
        if not eq:
            continue
        for p, ep in pure.items():
            if p > q and ep:
                hit = _bracket(p, q)
                if hit is not None:
                    t, s = hit
                    c = comm.get(t, 0) + s * ep * eq
                    if c:
                        comm[t] = c
                    else:
                        comm.pop(t, None)
        c = pure.get(q, 0) + eq
        if c:
            pure[q] = c
        else:
            pure.pop(q, None)


def square_power(a: NilElement, m: int) -> NilElement:
    """Exponentiation by squaring; negative powers go through inv."""
    if m < 0:
        return square_power(inv(a), -m)
    acc = identity(a.n)
    base = a
    while m:
        if m & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        m >>= 1
    return acc


def two_product_conj(g: NilElement, x: NilElement) -> NilElement:
    """g x g^-1 as two products and a built inverse, each its own normal form."""
    return mul(mul(g, x), inv(g))


def whole_word_report(suite: str, n: int, relations) -> RelationReport:
    """A suite's report with each relation's lhs, prefix * rest, and rhs collected whole and compared."""
    failures, total = [], 0
    for total, (rid, prefix, rest, rhs) in enumerate(relations, 1):
        le, re = collect(prefix * rest), collect(rhs)
        if le != re:
            failures.append((rid, le, re))
    return RelationReport(suite, n, total, tuple(failures))


def run_before(suite: str, n: int, relations) -> RelationReport:
    """Collect both sides of each relation as it arrives, keeping only the failures and the count.

    A prefix is folded once for each run of relations that share the prefix object, and each rest
    from a copy of that state, since the fold consumes its rows.  Each distinct rhs is collected
    once, keyed by its letters.
    """
    failures, total, last, rhs_forms = [], 0, None, {}
    for total, (rid, prefix, rest, rhs) in enumerate(relations, 1):
        if prefix is not last:
            last, (image, nbr, comm) = prefix, _fold(*_origin(n), prefix.letters)
        le = _freeze(n, *_fold_framed(image, [dict(row) for row in nbr], dict(comm), rest.letters))
        re = rhs_forms.get(rhs.letters)
        if re is None:
            re = rhs_forms[rhs.letters] = collect(rhs)
        if le != re:
            failures.append((rid, le, re))
    return RelationReport(suite, n, total, tuple(failures))


def _inversion_sign(perm: list[int]) -> int:
    return -1 if inversions(perm) % 2 else 1


def dense_holonomy(g: NilElement, pair_basis=None) -> dict:
    """Dense oracle for the holonomy action: the CLI's JSON document as a dict.

    block1 and block2 are the full matrices, in column-is-image convention,
    filled from generator_action; det is the sign of each block's
    permutation, by inversion count, times the product of the triple signs.
    """
    n = g.n
    pair_basis = list(pairs(n)) if pair_basis is None else list(pair_basis)
    triple_basis = list(triples(n))
    pidx = {p: i for i, p in enumerate(pair_basis)}
    tidx = {t: i for i, t in enumerate(triple_basis)}
    pmap = generator_action(g.perm, PurePart)
    m1 = [[0] * len(pair_basis) for _ in pair_basis]
    perm1 = [0] * len(pair_basis)
    for p, col in pidx.items():
        row = pidx[pmap[p][0]]
        m1[row][col] = 1
        perm1[col] = row
    cmap = generator_action(g.perm, CommPart)
    m2 = [[0] * len(triple_basis) for _ in triple_basis]
    perm2 = [0] * len(triple_basis)
    for t, col in tidx.items():
        u, s = cmap[t]
        row = tidx[u]
        m2[row][col] = s
        perm2[col] = row
    signs = math.prod(cmap[t][1] for t in triple_basis)
    return {
        "n": n,
        "pair_basis": [list(p) for p in pair_basis],
        "triple_basis": [list(t) for t in triple_basis],
        "block1": m1,
        "block2": m2,
        "det": _inversion_sign(perm1) * _inversion_sign(perm2) * signs,
    }


def holonomy_json(doc: dict) -> str:
    """The canonical JSON line the CLI prints for a dense holonomy document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def holonomy_pretty(doc: dict) -> str:
    """The --pretty text: the block-diagonal matrix, right-aligned cells, then det."""
    p, t = len(doc["block1"]), len(doc["block2"])
    rows = [r + [0] * t for r in doc["block1"]] + [[0] * p + r for r in doc["block2"]]
    return "".join(" ".join(f"{x:>2}" for x in r) + "\n" for r in rows) + f"det = {doc['det']}\n"
