"""Integer lattices: Hermite-style echelon bases and membership tests.

Echelon route: an integer row-echelon basis by Euclid steps within each
column, and membership by exact reduction; the tests cross-check against
it, and the benchmark's spans wrap it by name.  Oracle (`verify --oracle`;
`verify`'s own membership test is a closed form): a column Hermite solve
whose fold of the generator columns (Bezout steps, one coordinate at a
time) reads no target, so `verify` folds each lattice component once and
reduces each target against the fold by forward substitution.  The two
routes share no code; both are pure integer arithmetic.
"""

from __future__ import annotations


def row_echelon_basis(rows) -> list[list[int]]:
    """Integer row-echelon basis of the lattice spanned by the given rows."""
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    basis = []
    pivots = []  # pivot column of each basis row, strictly increasing
    start = 0
    for col in range(ncols):
        live = [i for i in range(start, len(work)) if work[i][col] != 0]
        if not live:
            continue
        # gcd elimination inside this column
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][col]))
            small = live[0]
            for i in live[1:]:
                q = work[i][col] // work[small][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[small])]
            live = [i for i in live if work[i][col] != 0]
        piv = live[0]
        work[start], work[piv] = work[piv], work[start]
        if work[start][col] < 0:
            work[start] = [-a for a in work[start]]
        basis.append(work[start])
        pivots.append(col)
        start += 1
    # normalize entries above each pivot into [0, pivot)
    for k in range(len(basis) - 1, -1, -1):
        col = pivots[k]
        piv = basis[k][col]
        for j in range(k):
            q = basis[j][col] // piv
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[k])]
    return basis


def reduce_against(basis: list[list[int]], vector) -> list[int]:
    """Reduce a vector by the echelon basis; zero output means membership.

    Pivot columns strictly increase down the basis, so one column index
    walks forward across the rows to find each pivot.
    """
    v = list(map(int, vector))
    col = 0
    for row in basis:
        while row[col] == 0:
            col += 1
        if v[col] % row[col] == 0:
            q = v[col] // row[col]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
    return v


def lattice_member(basis: list[list[int]], vector) -> bool:
    return not any(reduce_against(basis, vector))


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g, where g is a gcd of a and b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def fold_columns(columns: list[list[int]]) -> dict[int, list[int]]:
    """{coordinate: pivot column}: at each coordinate, unimodular Bezout
    column operations fold every generator column nonzero there into one
    pivot column, which is retired; the others are zero there from then on."""
    active = [list(map(int, c)) for c in columns if any(c)]
    pivots = {}
    for r in range(max(map(len, active), default=0)):
        live = [c for c in active if c[r]]
        if not live:
            continue
        active = [c for c in active if not c[r]]
        pivot = live[0]
        for col in live[1:]:
            g, s, t = _bezout(pivot[r], col[r])
            a, b = pivot[r] // g, col[r] // g
            pivot, col = (
                [s * x + t * y for x, y in zip(pivot, col)],
                [a * y - b * x for x, y in zip(pivot, col)],
            )
            if any(col):
                active.append(col)
        pivots[r] = pivot
    return pivots


def fold_solves(pivots: dict[int, list[int]], target) -> bool:
    """Whether target is an integer combination of the folded columns: at
    each coordinate the pivot's multiple in the target is forced, so the
    target is reduced by it; with no pivot there the target must be 0."""
    rest = list(map(int, target))
    for r in range(len(rest)):
        pivot = pivots.get(r)
        if pivot is None:
            if rest[r]:
                return False
            continue
        q, m = divmod(rest[r], pivot[r])
        if m:
            return False
        if q:
            rest = [x - q * y for x, y in zip(rest, pivot)]
    return True


def integral_solution_exists(columns: list[list[int]], target) -> bool:
    """Whether sum_i x_i * columns[i] = target has an integer solution."""
    return fold_solves(fold_columns(columns), target)
