"""
Machine verification of the presentations satisfied by the collection engine.

Each suite expands both sides of every defining relation into literal braid
words (generator letters only; pure and level-2 atoms are replaced by their
defining words) and collects them.  The defining words come from one table
per suite, `_generators`, which builds each of s_k, A[i,j] and a[i,j,k] once.
A relation's lhs is a table-word prefix times a rest: consecutive relations
with one prefix fold it once and continue from copies of its state, and each
distinct rhs is collected once.  A relation passes iff the two normal forms
are identical, so a clean report certifies that the engine satisfies the
presented group, relation instance by relation instance.  An identity
relation (empty rhs) is decided on its folded lhs state, empty iff the lhs is
the identity: no move, no pure and no level-2 entry; only a failure is frozen.

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
    NilElement,
    SUBGROUPS,
    _Value,
    _check_strands,
    _fold,
    _fold_framed,
    _freeze,
    _origin,
    collect,
    comm_gen_word,
    commutator_word,
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


Relation = tuple[str, BraidWord, BraidWord, BraidWord]  # (id, prefix, rest, rhs); lhs = prefix * rest


def _run(suite: str, n: int, relations: Iterable[Relation]) -> RelationReport:
    """Collect both sides of each relation as it arrives, keeping only the failures and the count.

    A prefix is folded once for each run of relations that share the prefix object, and each rest
    from a copy of that state, since the fold consumes its rows.  A relation whose rhs is the empty
    word passes iff its folded state is empty; only a failing one is frozen.  Any other lhs is
    frozen and compared with its rhs, each distinct rhs collected once, keyed by its letters.
    """
    failures, total, last, rhs_forms, unmoved = [], 0, None, {}, list(range(1, n + 1))
    for total, (rid, prefix, rest, rhs) in enumerate(relations, 1):
        if prefix is not last:
            last, (image, nbr, comm) = prefix, _fold(*_origin(n), prefix.letters)
        lhs = _fold_framed(image, [dict(row) for row in nbr], dict(comm), rest.letters)
        # an identity relation passes iff its folded state is empty: no level-2 entry, no move, no pure entry
        if not rhs.letters and not lhs[2] and lhs[0] == unmoved and not any(lhs[1]):
            continue
        le, re = _freeze(n, *lhs), rhs_forms.get(rhs.letters)
        if re is None:
            re = rhs_forms[rhs.letters] = collect(rhs)
        if le != re:
            failures.append((rid, le, re))
    return RelationReport(suite, n, total, tuple(failures))


def _generators(n: int) -> tuple[dict, dict, dict]:
    """The defining words s[k], A[i, j] and a[i, j, k] on n strands, keyed by sorted indices."""
    s = {k: BraidWord(n, ((k, 1),)) for k in range(1, n)}
    A = {p: pure_gen_word(n, *p) for p in pairs(n)}
    a = {t: comm_gen_word(n, t) for t in triples(n)}
    return s, A, a


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
    _, A, a = _generators(n)
    Ai, ai = {p: w.inverse() for p, w in A.items()}, {t: w.inverse() for t, w in a.items()}
    one = BraidWord(n, ())
    # [x, y] = x * (y x^-1 y^-1): the prefix x is shared by a run of relations
    for t, u in combinations(a, 2):
        yield f"central[a{t},a{u}]", a[t], a[u] * ai[t] * ai[u], one
    for t in a:
        for p in A:
            yield f"central[a{t},A{p}]", a[t], A[p] * ai[t] * Ai[p], one
    for p in A:
        for q in A:
            shared = set(p) & set(q)
            if len(shared) != 1:
                rhs = one
            else:
                s = shared.pop()
                u = p[0] + p[1] - s
                v = q[0] + q[1] - s
                t = tuple(sorted((s, u, v)))
                if s == t[1]:
                    sign = 1 if u < v else -1
                else:
                    sign = 1 if u > v else -1
                rhs = a[t] if sign == 1 else ai[t]
            yield f"pair-table[A{p},A{q}]", A[p], A[q] * Ai[p] * Ai[q], rhs


def braid_presentation(n: int) -> RelationReport:
    """Verify the braid relations and every instance of the conjugation rules.

    The generator action on pair atoms follows the three-case rule (descend
    the second index, descend the first index, or plain relabelling); on
    triple atoms it is the signed relabelling.
    """
    _check_strands(n, 3, "braid presentation")
    return _run("bn3", n, _braid_relations(n))


def _braid_relations(n: int) -> Iterator[Relation]:
    s, A, a = _generators(n)
    si, ai = {k: w.inverse() for k, w in s.items()}, {t: w.inverse() for t, w in a.items()}
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            yield f"commuting[{i},{j}]", s[i], s[j], s[j] * s[i]
    for i in range(1, n - 1):
        yield f"braid[{i}]", s[i + 1], s[i] * s[i + 1], s[i] * s[i + 1] * s[i]
    for k in range(1, n):
        for (i, j) in A:
            if j == k + 1 and i < k:
                rhs = A[i, j - 1] * ai[i, j - 1, j]
            elif i == k + 1:
                rhs = A[i - 1, j] * ai[i - 1, i, j]
            else:
                x = k + 1 if i == k else k if i == k + 1 else i
                y = k + 1 if j == k else k if j == k + 1 else j
                rhs = A[min(x, y), max(x, y)]
            yield f"action-pair[k={k},A({i},{j})]", s[k], A[i, j] * si[k], rhs
        for t in a:
            image = tuple(sorted(k + 1 if x == k else k if x == k + 1 else x for x in t))
            flip = (k in t) and (k + 1 in t)
            yield f"action-triple[k={k},a{t}]", s[k], a[t] * si[k], ai[image] if flip else a[image]


def subgroup_presentation(subgroup: str) -> RelationReport:
    """Verify one of the four 3-strand subgroup presentations.

    Generators: a = A[1,3], b = A[2,3], c = A[1,2], d = [c, b]; the extra
    generators are alpha = s_1 (order2), alpha = s_2 s_1^-1 (order3), and
    alpha = s_2 s_1, beta = s_1 (full symmetric group).
    """
    n = 3
    s, A, comm = _generators(n)
    a, b, c, d = A[1, 3], A[2, 3], A[1, 2], comm[1, 2, 3]
    one = BraidWord(n, ())
    base = [
        ("[b,a]=d", commutator_word(b, a), d),
        ("[c,a]=d^-1", commutator_word(c, a), d.inverse()),
        ("[c,b]=d", commutator_word(c, b), d),
        ("[d,a]=1", commutator_word(d, a), one),
        ("[d,b]=1", commutator_word(d, b), one),
        ("[d,c]=1", commutator_word(d, c), one),
    ]
    cw = lambda g, x: g * x * g.inverse()
    if subgroup == "trivial":
        extra = []
    elif subgroup == "order2":
        al = s[1]
        extra = [
            ("alpha^2=c", al * al, c),
            ("alpha d alpha^-1=d^-1", cw(al, d), d.inverse()),
            ("alpha a alpha^-1=b", cw(al, a), b),
            ("alpha b alpha^-1=ad^-1", cw(al, b), a * d.inverse()),
            ("alpha c alpha^-1=c", cw(al, c), c),
        ]
    elif subgroup == "order3":
        al = s[2] * s[1].inverse()
        extra = [
            ("alpha^3=d^-1", al * al * al, d.inverse()),
            ("alpha d alpha^-1=d", cw(al, d), d),
            ("alpha a alpha^-1=bd", cw(al, a), b * d),
            ("alpha b alpha^-1=cd^-1", cw(al, b), c * d.inverse()),
            ("alpha c alpha^-1=a", cw(al, c), a),
        ]
    elif subgroup == "s3":
        al = s[2] * s[1]
        be = s[1]
        extra = [
            ("alpha^3=abc", al * al * al, a * b * c),
            ("beta^2=c", be * be, c),
            ("alpha d alpha^-1=d", cw(al, d), d),
            ("beta d beta^-1=d^-1", cw(be, d), d.inverse()),
            ("alpha a alpha^-1=b", cw(al, a), b),
            ("alpha b alpha^-1=c", cw(al, b), c),
            ("alpha c alpha^-1=a", cw(al, c), a),
            ("beta a beta^-1=b", cw(be, a), b),
            ("beta b beta^-1=ad^-1", cw(be, b), a * d.inverse()),
            ("beta c beta^-1=c", cw(be, c), c),
            ("beta alpha beta^-1=b^-1 alpha^2", cw(be, al), b.inverse() * al * al),
        ]
    else:
        raise DomainError(f"unknown subgroup {subgroup!r}; choose from {SUBGROUPS}")
    return _run(f"b3-{subgroup}", n, ((rid, one, lhs, rhs) for rid, lhs, rhs in base + extra))


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
