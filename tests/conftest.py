import os

# One BLAS thread per pool, set before numpy loads: a pool sized to every core
# slows the optimizer's small products and eigensolves 2-4x on a busy host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from adconn.framework import Placement
from adconn.graphs import Graph


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


def random_placement(rng, n, d, scale=1.0):
    return Placement(scale * rng.standard_normal((n, d)))


def without_edge(g, e):
    """g with the edge {u, v} filtered out; the pair is put in order first,
    since an unordered pair would match no edge and remove nothing."""
    e = tuple(sorted(e))
    assert e in g.edge_index, f"edge {e} not in graph"
    return Graph(g.n, tuple(x for x in g.edges if x != e))


@pytest.fixture
def nothing_built(monkeypatch):
    """Every builder that a verify sweep calls raises instead, so that a test
    of a refusal made before any graph, placement or closed form is built
    allocates nothing even if the refusal regresses."""
    import dataclasses

    from adconn import verify
    from adconn.closedform import CANONICAL

    def built(*args, **kwargs):
        raise AssertionError("an instance was built before the size check")

    for row, fw in CANONICAL.items():
        families = None if fw.families is None else built
        monkeypatch.setitem(
            CANONICAL, row, dataclasses.replace(fw, graph=built, placement=built, spectrum=built, families=families)
        )
    builders = ("complete_graph", "Placement", "centered_sphere_stack", "_stiffness_geometry", "vertex_star_projection")
    for name in builders:
        monkeypatch.setattr(verify, name, built)
