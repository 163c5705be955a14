"""Reference routes that the library no longer runs, kept as test oracles."""
from fractions import Fraction

from bbf.enumeration import WallReport, _wall_search
from bbf.exactlinalg import combine_rows, content, gram_restrict, sign_normalize


def walls_in_sublattice(gram, basis, norms):
    """The complement route: the primitive classes z of the sublattice
    spanned by the saturated rows of basis with q(z, z) in norms, one per
    +- pair, as sign-normalized wall reports sorted by class.  It searches
    the restricted Gram basis . G . basis^T with no rows, so it shares
    only Fincke-Pohst with a penalty-form search."""
    (u, _), table = _wall_search(gram_restrict(basis, gram), (), norms)
    reports = [
        WallReport(wall_class=sign_normalize(combine_rows(combine_rows(x, u), basis)), norm=m)
        for m, hits in table.items()
        for x in hits
        if content(x) == 1
    ]
    reports.sort(key=lambda r: r.wall_class)
    return reports


def diagonalize_rational(m):
    """Congruence diagonalization over the rationals (Lagrange reduction),
    with the pivot order and the hyperbolic-pair step of the library's
    fraction-free diagonalize_symmetric: (T, diag) of Fractions with
    T . m . T^T = diag(diag)."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    live = list(range(n))
    order = []
    while live:
        p = next((i for i in live if a[i][i] != 0), None)
        if p is None:
            hyp = next(
                ((i, j) for k, i in enumerate(live) for j in live[k + 1:] if a[i][j] != 0),
                None,
            )
            if hyp is None:
                order.extend(live)
                break
            p, j = hyp
            for k in live:
                a[p][k] += a[j][k]
            for k in live:
                a[k][p] += a[k][j]
            t[p] = [x + y for x, y in zip(t[p], t[j])]
        live.remove(p)
        order.append(p)
        d, row_p, t_p = a[p][p], a[p], t[p]
        for i in live:
            f = a[i][p] / d
            if f:
                row_i = a[i]
                for j in live:
                    row_i[j] -= f * row_p[j]
                t[i] = [x - f * y for x, y in zip(t[i], t_p)]
    return [t[p] for p in order], [a[p][p] for p in order]
