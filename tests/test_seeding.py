import re

import numpy as np
import pytest

from adconn.placements import random_sphere_placement
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
