import re
from pathlib import Path

import numpy as np
import pytest

from adconn.closedform import (
    circle_spectrum_closed_form,
    crosspolytope_spectrum_closed_form,
    simplex_spectrum_closed_form,
    turan_simplex_spectrum_closed_form,
)
from adconn.graphs import complete_graph
from adconn.placements import centered_sphere_points, random_sphere_placement, roots_of_unity_angles
from adconn.probes import conjecture_probe
from adconn.seeding import rng_stream
from adconn.verify import run_suite


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
