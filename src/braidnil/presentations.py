"""
Machine verification of the presentations satisfied by the collection engine.

Each suite expands both sides of every defining relation into literal braid
words (generator letters only; pure and level-2 atoms are replaced by their
defining words) and folds them letter by letter.  The defining words come from
one table per suite, `_generators`, which holds the letters of each of s_k,
A[i,j] and a[i,j,k] and of its inverse, each built once.  A relation is its id
and three letter tuples read from that table: a prefix, a rest and a rhs, with
lhs = prefix + rest.  Consecutive relations with one prefix fold it once; each
rest folds on in one scratch state per run, which a passing identity relation
(empty rhs) leaves empty, so the prefix's few entries go back into it in place,
and which is copied afresh from the prefix's rows only after a failure or an
lhs that has a rhs.  An identity relation passes iff its folded state is
empty: no move, no pure and no level-2 entry.  Any other relation passes iff
the canonical rows of its lhs equal those of its rhs, each distinct rhs folded
once.  So a clean report certifies that the engine satisfies the presented
group, relation instance by relation instance.  A relation's id is a template
and its fields, spelled only when the relation fails, as are the normal forms
of its two sides.

Suites:

- pure_presentation: the presentation of the level-<=2 pure quotient on the
  A[i,j] and a[i,j,k], with the pairwise commutator case table and all
  centrality instances;
- braid_presentation: the braid relations plus every instance of the two
  generator conjugation rules;
- subgroup_presentation: the four presentations of the preimages of the
  subgroups of the 3-strand symmetric group (trivial, order 2, order 3,
  full), with their documented extra generators and relations;
- full_twist: (s_1 ... s_{n-1})^n equals the lex-ordered product of all
  A[i,j], with zero level-2 part.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations

from .core import (
    BraidWord,
    DomainError,
    Letter,
    NilElement,
    SUBGROUPS,
    _Value,
    _check_strands,
    _fold,
    _fold_framed,
    _normal_form,
    _origin,
    _rows,
    collect,
    comm_gen_word,
    element_to_dict,
    pairs,
    pure_gen_word,
    triples,
)


class RelationReport(_Value):
    """Outcome of one verification suite; it passes iff failures is empty."""

    suite: str
    n: int
    total: int
    failures: tuple[tuple[str, NilElement, NilElement], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "total": self.total,
            "failed": len(self.failures),
            "passed": self.passed,
            "failures": [
                {"relation": rid, "lhs": element_to_dict(l), "rhs": element_to_dict(r)}
                for rid, l, r in self.failures
            ],
        }


Word = tuple[Letter, ...]
Relation = tuple[tuple, Word, Word, Word]  # (id, prefix, rest, rhs); lhs = prefix + rest; the id as _spell reads it


def _spell(rid: tuple) -> str:
    """A relation's id as text: a template and its fields, each field written as str writes it."""
    return rid[0].format(*rid[1:])


def _run(suite: str, n: int, relations: Iterable[Relation]) -> RelationReport:
    """Fold both sides of each relation as it arrives, keeping only the failures and the count.

    A prefix is folded once for each run of relations that share the prefix object.  Each rest folds on in the
    run's one scratch state, a copy of the prefix's rows, which the fold consumes.  An identity relation (empty rhs)
    passes iff its folded state is empty: then the scratch holds no entry, so the prefix's few entries go back into
    it in place.  Any other relation compares the canonical rows of its lhs with those of its rhs, each distinct rhs
    folded once, keyed by its letters; after it, as after a failure, the next rest folds on a fresh copy.  Only a
    failure spells its id and builds the normal forms of its two sides.
    """
    failures, total, last, rhs_rows, unmoved = [], 0, None, {}, list(range(1, n + 1))
    for total, (rid, prefix, rest, rhs) in enumerate(relations, 1):
        if prefix is not last:
            last, (image, nbr, comm), scratch = prefix, _fold(*_origin(n), prefix), None
            entries = [(u, v, e) for u, row in enumerate(nbr) for v, e in row.items()]
        if scratch is None:
            scratch, level2 = list(map(dict, nbr)), dict(comm)
        out, scratch, level2, pos = _fold_framed(image, scratch, level2, rest)
        # an identity relation passes iff its folded state is empty: no level-2 entry, no move, no pure entry
        if not rhs and not level2 and out == unmoved and not any(scratch):
            # it passed, and so left no entry: the prefix's go back in place for the run's next rest
            for u, v, e in entries:
                scratch[u][v] = e
            level2.update(comm)
            continue
        lhs, scratch, want = _rows(out, scratch, level2, pos), None, rhs_rows.get(rhs)
        if want is None:
            want = rhs_rows[rhs] = _rows(*_fold_framed(*_origin(n), rhs))
        if lhs != want:
            failures.append((_spell(rid), _normal_form(n, *lhs), _normal_form(n, *want)))
    return RelationReport(suite, n, total, tuple(failures))


def _inverse(word: Word) -> Word:
    """The letters of the word's inverse."""
    return tuple((k, -eps) for k, eps in reversed(word))


def _generators(n: int) -> dict:
    """The letters of each defining word on n strands, with those of its inverse: (word, inverse) keyed by k for
    s[k] and by the sorted indices for A[i, j] and a[i, j, k]."""
    words = [(k, ((k, 1),)) for k in range(1, n)]
    words += [(p, pure_gen_word(n, *p).letters) for p in pairs(n)]
    words += [(t, comm_gen_word(n, t).letters) for t in triples(n)]
    return {key: (word, _inverse(word)) for key, word in words}


def pure_presentation(n: int) -> RelationReport:
    """Verify the level-<=2 pure presentation: centrality and the commutator case table.

    Relations: the a[r,s,t] commute with each other and with every A[i,j],
    and [A[i,j], A[l,m]] equals the case-table value -- the signed basis
    element when the index sets share exactly one point, the identity when
    they share zero or two (the latter holding in the quotient).
    """
    _check_strands(n, 3, "pure presentation")
    return _run("pn3", n, _pure_relations(n))


def _pure_relations(n: int) -> Iterator[Relation]:
    words, A, a = _generators(n), list(pairs(n)), list(triples(n))
    # [x, y] = x * (y x^-1 y^-1): the prefix x is shared by a run of relations, the rest is one concatenation
    for t, u in combinations(a, 2):
        (x, xi), (y, yi) = words[t], words[u]
        yield ("central[a{},a{}]", t, u), x, y + xi + yi, ()
    for t in a:
        x, xi = words[t]
        for p in A:
            y, yi = words[p]
            yield ("central[a{},A{}]", t, p), x, y + xi + yi, ()
    for p in A:
        x, xi = words[p]
        for q in A:
            y, yi = words[q]
            shared = set(p) & set(q)
            if len(shared) != 1:
                rhs = ()
            else:
                s = shared.pop()
                u, v = p[0] + p[1] - s, q[0] + q[1] - s
                t = tuple(sorted((s, u, v)))
                # the sign is + iff u < v when s is the middle index, iff u > v otherwise (u != v); - reads the inverse
                rhs = words[t][(u < v) != (s == t[1])]
            yield ("pair-table[A{},A{}]", p, q), x, y + xi + yi, rhs


def braid_presentation(n: int) -> RelationReport:
    """Verify the braid relations and every instance of the conjugation rules.

    The generator action on pair atoms follows the three-case rule (descend
    the second index, descend the first index, or plain relabelling); on
    triple atoms it is the signed relabelling.
    """
    _check_strands(n, 3, "braid presentation")
    return _run("bn3", n, _braid_relations(n))


def _braid_relations(n: int) -> Iterator[Relation]:
    words = _generators(n)
    s = {k: words[k][0] for k in range(1, n)}
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            yield ("commuting[{},{}]", i, j), s[i], s[j], s[j] + s[i]
    for i in range(1, n - 1):
        yield ("braid[{}]", i), s[i + 1], s[i] + s[i + 1], s[i] + s[i + 1] + s[i]
    for k in range(1, n):
        si = words[k][1]
        for (i, j) in pairs(n):
            if j == k + 1 and i < k:
                rhs = words[i, j - 1][0] + words[i, j - 1, j][1]
            elif i == k + 1:
                rhs = words[i - 1, j][0] + words[i - 1, i, j][1]
            else:
                x = k + 1 if i == k else k if i == k + 1 else i
                y = k + 1 if j == k else k if j == k + 1 else j
                rhs = words[min(x, y), max(x, y)][0]
            yield ("action-pair[k={},A({},{})]", k, i, j), s[k], words[i, j][0] + si, rhs
        for t in triples(n):
            image = tuple(sorted(k + 1 if x == k else k if x == k + 1 else x for x in t))
            flip = (k in t) and (k + 1 in t)  # the image's inverse
            yield ("action-triple[k={},a{}]", k, t), s[k], words[t][0] + si, words[image][flip]


def subgroup_presentation(subgroup: str) -> RelationReport:
    """Verify one of the four 3-strand subgroup presentations.

    Generators: a = A[1,3], b = A[2,3], c = A[1,2], d = [c, b]; the extra
    generators are alpha = s_1 (order2), alpha = s_2 s_1^-1 (order3), and
    alpha = s_2 s_1, beta = s_1 (full symmetric group).
    """
    return _run(f"b3-{subgroup}", 3, _subgroup_relations(subgroup))


def _subgroup_relations(subgroup: str) -> list[Relation]:
    """The relations of one subgroup presentation, each lhs whole as the rest of the empty prefix."""
    words = _generators(3)
    (s1, s1i), (s2, _) = words[1], words[2]
    (a, ai), (b, bi), (c, ci), (d, di) = words[1, 3], words[2, 3], words[1, 2], words[1, 2, 3]
    base = [
        ("[b,a]=d", b + a + bi + ai, d),
        ("[c,a]=d^-1", c + a + ci + ai, di),
        ("[c,b]=d", c + b + ci + bi, d),
        ("[d,a]=1", d + a + di + ai, ()),
        ("[d,b]=1", d + b + di + bi, ()),
        ("[d,c]=1", d + c + di + ci, ()),
    ]
    cw = lambda g, x: g + x + _inverse(g)
    if subgroup == "trivial":
        extra = []
    elif subgroup == "order2":
        al = s1
        extra = [
            ("alpha^2=c", al + al, c),
            ("alpha d alpha^-1=d^-1", cw(al, d), di),
            ("alpha a alpha^-1=b", cw(al, a), b),
            ("alpha b alpha^-1=ad^-1", cw(al, b), a + di),
            ("alpha c alpha^-1=c", cw(al, c), c),
        ]
    elif subgroup == "order3":
        al = s2 + s1i
        extra = [
            ("alpha^3=d^-1", al + al + al, di),
            ("alpha d alpha^-1=d", cw(al, d), d),
            ("alpha a alpha^-1=bd", cw(al, a), b + d),
            ("alpha b alpha^-1=cd^-1", cw(al, b), c + di),
            ("alpha c alpha^-1=a", cw(al, c), a),
        ]
    elif subgroup == "s3":
        al = s2 + s1
        be = s1
        extra = [
            ("alpha^3=abc", al + al + al, a + b + c),
            ("beta^2=c", be + be, c),
            ("alpha d alpha^-1=d", cw(al, d), d),
            ("beta d beta^-1=d^-1", cw(be, d), di),
            ("alpha a alpha^-1=b", cw(al, a), b),
            ("alpha b alpha^-1=c", cw(al, b), c),
            ("alpha c alpha^-1=a", cw(al, c), a),
            ("beta a beta^-1=b", cw(be, a), b),
            ("beta b beta^-1=ad^-1", cw(be, b), a + di),
            ("beta c beta^-1=c", cw(be, c), c),
            ("beta alpha beta^-1=b^-1 alpha^2", cw(be, al), bi + al + al),
        ]
    else:
        raise DomainError(f"unknown subgroup {subgroup!r}; choose from {SUBGROUPS}")
    return [((rid,), (), lhs, rhs) for rid, lhs, rhs in base + extra]


def full_twist(n: int) -> RelationReport:
    """Verify that the n-th power of s_1 .. s_{n-1} is the ordered product of all A[i,j]."""
    _check_strands(n, 2, "full twist")
    e = collect(BraidWord(n, tuple((k, 1) for k in range(1, n))) ** n)
    r = collect(BraidWord(n, tuple(x for p in pairs(n) for x in pure_gen_word(n, *p).letters)))
    if e != r:
        return RelationReport("fulltwist", n, 1, ((f"(s1..s{n-1})^{n}=prod A[i,j]", e, r),))
    # the explicit shape: exponent 1 on every pair, zero level-2 part
    shape_ok = e.perm.is_identity() and e.comm.is_zero() and e.pure.as_map() == {p: 1 for p in pairs(n)}
    return RelationReport("fulltwist", n, 1, () if shape_ok else ((f"full twist shape at n={n}", e, e),))
