"""Ground-truth rigidity by exhaustion on tiny matrices.

Two measures for the same question -- how much of A must change before
the rank drops to r:

* ``brute_rigidity``: minimal total number of changed entries.
* ``brute_rc_rigidity``: minimal t such that some change pattern with at
  most t entries per row and per column works.

Over a prime field every assignment of changed values is enumerated
directly.  Over the rationals there is nothing to enumerate, so each
support is tested symbolically instead: the changed entries become
variables, and the vanishing of all (r+1)-minors is solved exactly;
only supports of up to four entries are attempted.  Both searches run
supports in ascending order, so the first hit is the exact minimum, and
both return a concrete witness that is re-verified before returning.

Instance caps are deliberately tight (n <= 4 with p <= 5, or n <= 3
over the rationals): the point is trustworthy cross-checks for the
certificate machinery, not a rigidity solver.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .field import PrimeField, RationalField
from .matrix import ExactMatrix

__all__ = [
    "OracleResult",
    "OracleCapError",
    "brute_rigidity",
    "brute_rc_rigidity",
    "SEARCH_BUDGET",
]

SEARCH_BUDGET = 2_000_000
_QQ_SUPPORT_CAP = 4
_SUBSTITUTION_PALETTE = (0, 1, -1, 2, Fraction(1, 2))


class OracleCapError(Exception):
    """Instance outside the supported caps, or search budget exhausted."""


@dataclass(frozen=True)
class OracleResult:
    rank: int           # target rank the change must reach
    value: int          # minimal change count, or minimal per-line count
    measure: str        # "entries" or "per_line"
    witness: ExactMatrix


def _check_caps(a):
    if not a.is_square:
        raise OracleCapError(f"oracle needs a square matrix, got {a.shape}")
    f = a.field
    if isinstance(f, PrimeField):
        if a.rows > 4 or f.p > 5:
            raise OracleCapError(
                f"prime-field oracle capped at n <= 4, p <= 5 "
                f"(got n={a.rows}, p={f.p})")
    elif isinstance(f, RationalField):
        if a.rows > 3:
            raise OracleCapError(
                f"rational oracle capped at n <= 3 (got n={a.rows})")
    else:  # pragma: no cover - no other field kinds exist
        raise OracleCapError(f"unsupported field {f!r}")


class _Budget:
    def __init__(self, limit):
        self.left = limit

    def tick(self, cost=1):
        self.left -= cost
        if self.left < 0:
            raise OracleCapError("search budget exhausted before the "
                                 "minimum was certified")


def _rank_mod_tiny(rows, p):
    """Row-reduction rank of a small list-of-lists matrix mod p."""
    rows = [r[:] for r in rows]
    m = len(rows)
    rank = 0
    for c in range(len(rows[0]) if m else 0):
        piv = next((i for i in range(rank, m) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, m):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def _line_fill(support, n):
    row = [0] * n
    col = [0] * n
    for i, j in support:
        row[i] += 1
        col[j] += 1
    return max(max(row), max(col)) if support else 0


def _finish(a, r, support, new_vals, measure, value):
    f = a.field
    arr = a.to_dense()
    trips = [(i, j, f.sub(arr[i, j], v))
             for (i, j), v in zip(support, new_vals)]
    z = ExactMatrix.from_triplets(f, a.rows, a.cols, trips)
    if z.nnz != len(support):
        raise AssertionError("a changed entry of the witness kept its value")
    if (a - z).exact_rank() > r:
        raise AssertionError(f"the witness leaves rank above {r}")
    return OracleResult(r, value, measure, z)


# ----------------------------------------------------------------------
# prime-field search: enumerate every changed-value assignment


def _solve_support_fp(rows, p, support, others, r, budget):
    for vals in itertools.product(*(others[c] for c in support)):
        budget.tick()
        mod = [row[:] for row in rows]
        for (i, j), v in zip(support, vals):
            mod[i][j] = v
        if _rank_mod_tiny(mod, p) <= r:
            return vals
    return None


# ----------------------------------------------------------------------
# rational search: symbolic minors per support


def _solve_support_qq(rows, support, r, budget):
    import sympy

    budget.tick(1000)  # a symbolic solve dwarfs a modular rank check
    xs = sympy.symbols(f"c0:{len(support)}")
    m = [[sympy.Rational(v) for v in row] for row in rows]
    for x, (i, j) in zip(xs, support):
        m[i][j] = x
    mat = sympy.Matrix(m)
    n = mat.rows
    eqs = []
    for rr in itertools.combinations(range(n), r + 1):
        for cc in itertools.combinations(range(n), r + 1):
            d = sympy.expand(mat[rr, cc].det())
            if d != 0:
                eqs.append(d)
    originals = [Fraction(rows[i][j]) for i, j in support]
    if not eqs:
        # minors vanish identically; any changed values do
        return [v + 1 for v in originals]
    try:
        sols = sympy.solve(eqs, list(xs), dict=True)
    except NotImplementedError:  # pragma: no cover - tiny systems solve fine
        return None
    for sol in sols:
        free = set()
        for x in xs:
            expr = sol.get(x, x)
            free |= expr.free_symbols
        free = sorted(free, key=str)
        for fill in itertools.product(_SUBSTITUTION_PALETTE, repeat=len(free)):
            subs = dict(zip(free, [sympy.Rational(v) for v in fill]))
            vals = []
            for x, orig in zip(xs, originals):
                v = sympy.simplify(sol.get(x, x).subs(subs))
                if not v.is_Rational:
                    break
                v = Fraction(int(v.p), int(v.q))
                if v == orig:
                    # same value means a smaller support already works;
                    # ascending order would have found it
                    break
                vals.append(v)
            else:
                return vals
    return None


def _solve_support(a, rows, support, r, others, budget):
    if isinstance(a.field, PrimeField):
        return _solve_support_fp(rows, a.field.p, support, others, r, budget)
    if len(support) > _QQ_SUPPORT_CAP:
        return "skipped"
    return _solve_support_qq(rows, support, r, budget)


def _prepare(a):
    arr = a.to_dense()
    if isinstance(a.field, PrimeField):
        rows = [[int(v) for v in row] for row in arr]
        others = {(i, j): [v for v in range(a.field.p) if v != rows[i][j]]
                  for i in range(a.rows) for j in range(a.cols)}
    else:
        rows = [[Fraction(v) for v in row] for row in arr]
        others = None
    return rows, others


def brute_rigidity(a, r, budget=SEARCH_BUDGET):
    """Exact minimal number of entry changes bringing rank(a) down to r."""
    _check_caps(a)
    if r < 0:
        raise ValueError(f"target rank must be nonnegative, got {r}")
    if a.exact_rank() <= r:
        return _finish(a, r, (), (), "entries", 0)
    if r == 0:
        # rank 0 forces Z = A: the measure is just the support of A
        ri, ci, vals = a.triplets()
        support = list(zip(ri.tolist(), ci.tolist()))
        return _finish(a, 0, support, [a.field.zero] * len(support),
                       "entries", a.nnz)
    n = a.rows
    rows, others = _prepare(a)
    cells = [(i, j) for i in range(n) for j in range(n)]
    bud = _Budget(budget)
    skipped = False
    for s in range(1, n * n + 1):
        for support in itertools.combinations(cells, s):
            got = _solve_support(a, rows, support, r, others, bud)
            if got == "skipped":
                skipped = True
            elif got is not None:
                return _finish(a, r, support, got, "entries", s)
        if skipped:
            raise OracleCapError(
                f"no change pattern of at most {_QQ_SUPPORT_CAP} entries "
                f"works over Q; larger supports are out of scope")
    raise AssertionError("zeroing every nonzero entry must succeed")


def brute_rc_rigidity(a, r, budget=SEARCH_BUDGET):
    """Exact minimal per-row/per-column change count reaching rank r.

    Searches t = 0, 1, ... and, inside each level, only the patterns
    whose maximal line fill is exactly t (smaller fills were covered by
    earlier levels).  The first level with a solution is the answer.
    """
    _check_caps(a)
    if r < 0:
        raise ValueError(f"target rank must be nonnegative, got {r}")
    if a.exact_rank() <= r:
        return _finish(a, r, (), (), "per_line", 0)
    if r == 0:
        ri, ci, vals = a.triplets()
        support = list(zip(ri.tolist(), ci.tolist()))
        return _finish(a, 0, support, [a.field.zero] * len(support),
                       "per_line", _line_fill(support, a.rows))
    n = a.rows
    rows, others = _prepare(a)
    cells = [(i, j) for i in range(n) for j in range(n)]
    by_fill = {}
    for s in range(1, n * n + 1):
        for support in itertools.combinations(cells, s):
            by_fill.setdefault(_line_fill(support, n), []).append(support)
    bud = _Budget(budget)
    skipped = False
    for t in range(1, n + 1):
        for support in by_fill.get(t, ()):
            got = _solve_support(a, rows, support, r, others, bud)
            if got == "skipped":
                skipped = True
            elif got is not None:
                return _finish(a, r, support, got, "per_line", t)
        if skipped:
            raise OracleCapError(
                f"level t={t} exceeded the {_QQ_SUPPORT_CAP}-entry support "
                f"cap over Q before a solution was found")
    raise AssertionError("changing every entry must succeed")
