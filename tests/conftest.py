import sys

import pytest

from bbf import exactlinalg
from bbf.lattice import BBFLattice, direct_sum, hyperbolic_plane, k3_matrix


@pytest.fixture(scope="session")
def lat_u():
    return BBFLattice(hyperbolic_plane())


@pytest.fixture(scope="session")
def lat_u3():
    return BBFLattice(direct_sum(hyperbolic_plane(), hyperbolic_plane(), hyperbolic_plane()))


@pytest.fixture(scope="session")
def lat_hyp():
    """U + <-2>: the standard rank-3 hyperbolic wall-and-chamber testbed."""
    return BBFLattice(direct_sum(hyperbolic_plane(), [[-2]]))


@pytest.fixture(scope="session")
def lat_k3():
    return BBFLattice(k3_matrix())


@pytest.fixture
def kernel_calls(monkeypatch):
    """count(*names) counts the calls of the named exactlinalg kernels from
    here on: each is replaced in every bbf module that bound it by name.
    Returns the name -> count dict, updated as the calls happen."""

    def count(*names):
        calls = dict.fromkeys(names, 0)
        modules = [m for n, m in sys.modules.items() if n == "bbf" or n.startswith("bbf.")]
        for name in names:
            original = getattr(exactlinalg, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls

    return count
