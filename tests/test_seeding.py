import re

import numpy as np
import pytest

from adconn.graphs import complete_graph
from adconn.placements import random_sphere_placement
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
