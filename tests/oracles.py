"""Reference routes that the library no longer runs, kept as test oracles."""
from bbf.enumeration import WallReport, _walls_orthogonal
from bbf.exactlinalg import combine_rows, content, gram_restrict, sign_normalize


def walls_in_sublattice(gram, basis, norms):
    """The complement route: the primitive classes z of the sublattice
    spanned by the saturated rows of basis with q(z, z) in norms, one per
    +- pair, as sign-normalized wall reports sorted by class.  It searches
    the restricted Gram basis . G . basis^T with no rows, so it shares
    only Fincke-Pohst with a penalty-form search."""
    (u, _), table = _walls_orthogonal(gram_restrict(basis, gram), (), norms)
    reports = [
        WallReport(wall_class=sign_normalize(combine_rows(combine_rows(x, u), basis)), norm=m)
        for m, hits in table.items()
        for x in hits
        if content(x) == 1
    ]
    reports.sort(key=lambda r: r.wall_class)
    return reports
