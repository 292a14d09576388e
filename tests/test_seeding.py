import re
from pathlib import Path

import numpy as np
import pytest

from adconn.bounds import vertex_star_projection
from adconn.closedform import (
    bound_report,
    canonical_placements,
    circle_spectrum_closed_form,
    crosspolytope_spectrum_closed_form,
    simplex_spectrum_closed_form,
    turan_simplex_spectrum_closed_form,
)
from adconn.families import crosspolytope_families, turan_simplex_families
from adconn.graphs import Graph, TuranPartition, complete_graph
from adconn.optimize import OptimizerConfig
from adconn.placements import (
    centered_sphere_points,
    centered_sphere_stack,
    crosspolytope_placement,
    random_sphere_placement,
    regular_simplex,
    roots_of_unity_angles,
)
from adconn.probes import conjecture_probe
from adconn.seeding import as_count, as_seed, rng_stream
from adconn.spectral import MultiplicitySpectrum, trivial_motion_count
from adconn.verify import run_suite, suite_interlacing


@pytest.mark.parametrize("seed", [1.5, 1.0, True, False, np.float64(1.0), np.bool_(True), "1", None], ids=repr)
def test_rng_stream_refuses_non_integer_seeds(seed):
    # int(seed) used to turn 1.5 and True into seed 1's stream.
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        rng_stream(seed, "tag")


@pytest.mark.parametrize("seed", [np.int8(7), np.int32(7), np.int64(7), np.uint8(7), np.uint64(2**40)], ids=repr)
def test_rng_stream_numpy_integer_seeds_give_the_python_int_stream(seed):
    assert rng_stream(seed, "tag").bytes(64) == rng_stream(int(seed), "tag").bytes(64)


def test_seeded_callers_refuse_float_and_bool_seeds():
    with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
        random_sphere_placement(5, 3, 2.5)
    with pytest.raises(ValueError, match="seed must be an integer, got True"):
        run_suite("circle", seed=True)
    numpy_seed = random_sphere_placement(5, 3, np.int64(2))
    assert numpy_seed.points.tobytes() == random_sphere_placement(5, 3, 2).points.tobytes()


@pytest.mark.parametrize("seed", [-1, True, 2.5], ids=repr)
def test_conjecture_probe_refuses_a_bad_seed_up_front(seed):
    # top-n-sum without samples draws no stream, so only the up-front check sees the seed
    with pytest.raises(ValueError) as refused:
        rng_stream(seed, "tag")
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        conjecture_probe("top-n-sum", {"samples": 0}, seed=seed)


@pytest.mark.parametrize("suite,seed", [("simplex", True), ("tetra", 2.5)])
def test_suites_that_draw_no_stream_refuse_float_and_bool_seeds(suite, seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
        run_suite(suite, seed=seed)


SUITES_WITH_SAMPLES = ["circle", "interlacing", "kyfan", "families"]


@pytest.mark.parametrize("samples", [2.5, 2.0, True, False, np.bool_(True), "2"], ids=repr)
@pytest.mark.parametrize("suite", SUITES_WITH_SAMPLES)
def test_sample_counts_must_be_integers(suite, samples):
    # 2.5 used to fail as a TypeError from range, and True ran one sample
    with pytest.raises(ValueError, match=f"^samples must be an integer, got {re.escape(repr(samples))}$"):
        run_suite(suite, samples=samples)


def test_probe_sample_counts_must_be_integers():
    with pytest.raises(ValueError, match="^samples must be an integer, got True$"):
        conjecture_probe("regular-2d", {"samples": True, "ns": [8]})
    with pytest.raises(ValueError, match="^samples must be an integer, got 1.0$"):
        conjecture_probe("top-n-sum", {"samples": 1.0})


def test_numpy_integer_sample_counts_give_the_int_report():
    want = run_suite("interlacing", samples=3, seed=4)
    assert run_suite("interlacing", samples=np.int64(3), seed=4) == want


@pytest.mark.parametrize("n", [True, False, np.bool_(True), 3.0, "3"], ids=repr)
def test_complete_graph_sizes_must_be_integers(n):
    # complete_graph(True) used to return K1
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
        complete_graph(n)


# Each count-taking entry point with one count replaced by x, and the name of that count.
COUNT_CALLS = {
    "circle-closed-form-n": (lambda x: circle_spectrum_closed_form(x), "n"),
    "simplex-closed-form-d": (lambda x: simplex_spectrum_closed_form(x), "d"),
    "turan-simplex-closed-form-d": (lambda x: turan_simplex_spectrum_closed_form(8, x), "d"),
    "crosspolytope-closed-form-d": (lambda x: crosspolytope_spectrum_closed_form(12, x), "d"),
    "roots-of-unity-n": (lambda x: roots_of_unity_angles(x), "n"),
    "random-sphere-n": (lambda x: random_sphere_placement(x, 3, 0), "n"),
    "random-sphere-d": (lambda x: random_sphere_placement(5, x, 0), "d"),
    "centered-sphere-n": (lambda x: centered_sphere_points(x, 3, rng_stream(0, "tag")), "n"),
    "centered-sphere-d": (lambda x: centered_sphere_points(5, x, rng_stream(0, "tag")), "d"),
}


@pytest.mark.parametrize("value", [4.5, True], ids=repr)
@pytest.mark.parametrize("call", list(COUNT_CALLS))
def test_closed_forms_and_samplers_refuse_non_integer_counts(call, value):
    # circle_spectrum_closed_form(4.5) used to return a spectrum of total 9
    build, name = COUNT_CALLS[call]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$") as info:
        build(value)
    raised_in = info.traceback[-1]
    assert (Path(raised_in.path).name, raised_in.name) == ("seeding.py", "as_index")


# Every entry point that takes a count: a call with that count set to x, the
# name its refusal gives and the least count it takes.
COUNT_ENTRY_POINTS = {
    "as-count": (lambda x: as_count(x, "k", 4), "k", 4),
    "as-seed": (lambda x: as_seed(x), "seed", 0),
    "graph-n": (lambda x: Graph(x, ()), "n", 1),
    "turan-partition-r": (lambda x: TuranPartition(6, x), "r", 2),
    "regular-simplex-d": (lambda x: regular_simplex(x), "d", 1),
    "crosspolytope-placement-d": (lambda x: crosspolytope_placement(4, x), "d", 1),
    "roots-of-unity-n": (lambda x: roots_of_unity_angles(x), "n", 1),
    "random-sphere-n": (lambda x: random_sphere_placement(x, 3, 0), "n", 1),
    "random-sphere-d": (lambda x: random_sphere_placement(5, x, 0), "d", 1),
    "centered-sphere-stack-k": (lambda x: centered_sphere_stack(4, 2, x, rng_stream(0, "tag")), "k", 0),
    "simplex-closed-form-d": (lambda x: simplex_spectrum_closed_form(x), "d", 2),
    "turan-simplex-closed-form-d": (lambda x: turan_simplex_spectrum_closed_form(12, x), "d", 2),
    "crosspolytope-closed-form-d": (lambda x: crosspolytope_spectrum_closed_form(12, x), "d", 2),
    "circle-closed-form-n": (lambda x: circle_spectrum_closed_form(x), "n", 3),
    "canonical-placements-n": (lambda x: canonical_placements(x, 3), "n", 1),
    "canonical-placements-d": (lambda x: canonical_placements(4, x), "d", 1),
    "bound-report-d": (lambda x: bound_report(12, x), "d", 3),
    "turan-simplex-families-d": (lambda x: turan_simplex_families(12, x), "d", 2),
    "crosspolytope-families-d": (lambda x: crosspolytope_families(8, x), "d", 2),
    "vertex-star-projection-n": (lambda x: vertex_star_projection(x), "n", 3),
    "trivial-motion-count-d": (lambda x: trivial_motion_count(x), "d", 1),
    "spectrum-multiplicity": (lambda x: MultiplicitySpectrum(((1.0, x),), x, 0.0), "multiplicity", 1),
    "spectrum-total": (lambda x: MultiplicitySpectrum((), x, 0.0), "total", 0),
    "optimizer-restarts": (lambda x: OptimizerConfig(restarts=x), "restarts", 1),
    "optimizer-max-iters": (lambda x: OptimizerConfig(max_iters=x), "max_iters", 1),
    "optimizer-seed": (lambda x: OptimizerConfig(seed=x), "seed", 0),
    "top-n-sum-n": (lambda x: conjecture_probe("top-n-sum", {"ns": [x]}), "n", 3),
    "top-n-sum-samples": (lambda x: conjecture_probe("top-n-sum", {"samples": x}), "samples", 0),
    "regular-2d-d": (lambda x: conjecture_probe("regular-2d", {"d": x}), "d", 1),
    "regular-2d-samples": (lambda x: conjecture_probe("regular-2d", {"samples": x}), "samples", 1),
    "spherical-second-eig-samples": (lambda x: conjecture_probe("spherical-second-eig", {"samples": x}), "samples", 1),
    "circle-samples": (lambda x: run_suite("circle", samples=x), "samples", 0),
    "interlacing-samples": (lambda x: run_suite("interlacing", samples=x), "samples", 0),
    "kyfan-samples": (lambda x: run_suite("kyfan", samples=x), "samples", 0),
    "families-samples": (lambda x: run_suite("families", samples=x), "samples", 1),
    "grid-d": (lambda x: run_suite("cross", grid={"d": [x]}), "grid d", 1),
    "grid-n": (lambda x: run_suite("circle", grid={"n": [x]}), "grid n", 1),
    "interlacing-n": (lambda x: suite_interlacing(n=[x], seed=0), "n", 2),
}


@pytest.mark.parametrize("kind", ["bool", "float", "below-least"])
@pytest.mark.parametrize("entry", list(COUNT_ENTRY_POINTS))
def test_every_count_is_refused_by_the_one_rule(entry, kind):
    # canonical_placements(4, 2.5) used to return [], trivial_motion_count(2.5)
    # raise a TypeError and trivial_motion_count(True) return 1
    call, name, least = COUNT_ENTRY_POINTS[entry]
    value, message = {
        "bool": (True, f"{name} must be an integer, got True"),
        "float": (2.5, f"{name} must be an integer, got 2.5"),
        "below-least": (least - 1, f"{name} must be >= {least}, got {least - 1}"),
    }[kind]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call(value)
    raised_in = info.traceback[-1]
    assert (Path(raised_in.path).name, raised_in.name) in {("seeding.py", "as_index"), ("seeding.py", "as_count")}


def test_the_measured_count_gaps_are_refused():
    with pytest.raises(ValueError, match="^d must be an integer, got 2.5$"):
        canonical_placements(4, 2.5)
    with pytest.raises(ValueError, match="^d must be an integer, got 2.5$"):
        trivial_motion_count(2.5)
    with pytest.raises(ValueError, match="^d must be an integer, got True$"):
        trivial_motion_count(True)
    # this one used to say "r must be an integer, got 5.0", naming a count the caller never gave
    with pytest.raises(ValueError, match="^d must be an integer, got 2.5$"):
        crosspolytope_families(8, 2.5)
    with pytest.raises(ValueError, match="^multiplicity must be an integer, got 1.5$"):
        MultiplicitySpectrum(((1.0, 1.5),), 1.5, 0.0)
    # a True multiplicity used to print as 1.0,True in the CSV
    with pytest.raises(ValueError, match="^multiplicity must be an integer, got True$"):
        MultiplicitySpectrum(((1.0, True),), 1, 0.0)


def test_counts_are_stored_as_python_ints():
    spectrum = MultiplicitySpectrum([(1.0, np.int64(2)), (3.0, np.int32(1))], np.int64(3), 0.0)
    assert spectrum.clusters == ((1.0, 2), (3.0, 1)) and type(spectrum.total) is int
    assert [type(m) for m in spectrum.multiplicities()] == [int, int]
    assert spectrum.to_csv() == "1.0,2\n3.0,1\n"
    assert type(Graph(np.int64(3), ()).n) is int and type(TuranPartition(6, np.int8(3)).r) is int
