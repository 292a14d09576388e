"""Print one sha256 per output artifact of adconn, so that a claim that a
change keeps every output bit for bit is one diff of this script's output
between two checkouts:

    python3 tools/digest.py > digest.txt

Run from any directory; it imports ``adconn`` from the ``src`` directory and
the benchmark's workloads from the ``benchmarks`` directory of its own
checkout.  BLAS pools are pinned to one thread unless the caller sets the
thread variables, since large spectra change in their last bits with the
BLAS thread count.  The artifacts:

- ``run_suite("all")`` at seeds 0, 3 and 7, as ``json.dumps(report, indent=2)``;
- ``gap_ascent(complete_graph(12), 3)`` with 2 restarts at seeds 0-3, and
  with 2 restarts at seed 0 ``gap_ascent(complete_graph(7), 4)``, which
  covers d = 4, ``gap_ascent(complete_graph(6), 2)`` and
  ``gap_ascent(complete_graph(5), 1)``, which cover d = 2 and d = 1, and
  ``gap_ascent(complete_graph(16), 3)``, whose stiffness matrices are
  assembled from their blocks, each as its ``to_json_dict``;
- the stiffness and lower spectra of the ``spectra-large`` benchmark
  workload at seed 0, each as its ``to_json_dict``;
- ``spectral_gap`` of the K96 framework of that workload (side 288) and
  ``run_suite("interlacing", grid={"n": [64], "d": [4]}, samples=3)``
  (pairs of side 256), sizes from which the checked solves try the low-rank
  route and the package's own matrices do not, as ``repr`` and as JSON;
- ``conjecture_probe("spherical-second-eig", {"n": 9})`` at seed 0, whose
  odd n draws both the equilateral triple and the antipodal pairs of
  ``centered_sphere_points``;
- the files that the CLI writes, other than its manifest, which records the
  wall time, for ``adconn spectrum --lower`` of complete:48 at circle:48 and
  of complete:12 at random:12,3,0,centered, for
  ``adconn bounds 12 3 --observe --restarts 2`` and for
  ``adconn conjecture regular-2d --n 8 --samples 1 --restarts 1``, the last
  two of which print optimizer gaps with their witnesses.

Each line is ``<sha256>  <artifact>``.  The whole digest takes about two
seconds on one core, imports included: a K12 optimizer run about 0.1 s, and
the K16 run, the longest artifact, about 0.2 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "benchmarks", ROOT / "src"):
    sys.path.insert(0, str(_path))

import adconn  # noqa: E402
from adconn.cli import main as cli_main  # noqa: E402

VERIFY_SEEDS = (0, 3, 7)
OPTIMIZE_SEEDS = (0, 1, 2, 3)
# (n, d) of the complete graphs optimized at seed 0 besides K12 in R^3
OPTIMIZE_EXTRA = ((7, 4), (6, 2), (5, 1), (16, 3))
CLI_ARGS = (
    ("spectrum", "--graph", "complete:48", "--placement", "circle:48", "--lower"),
    ("spectrum", "--graph", "complete:12", "--placement", "random:12,3,0,centered", "--lower"),
    ("bounds", "12", "3", "--observe", "--restarts", "2"),
    ("conjecture", "regular-2d", "--n", "8", "--samples", "1", "--restarts", "1"),
)
PROBE_PARAMS = {"n": 9}
INTERLACING_GRID = {"n": [64], "d": [4]}


def _json(obj) -> bytes:
    return json.dumps(obj, indent=2).encode()


def artifacts():
    """(label, bytes) for each artifact, in the order the module docstring lists them."""
    for seed in VERIFY_SEEDS:
        yield f"run_suite('all', seed={seed})", _json(adconn.run_suite("all", seed=seed))
    g = adconn.complete_graph(12)
    for seed in OPTIMIZE_SEEDS:
        result = adconn.gap_ascent(g, 3, adconn.OptimizerConfig(restarts=2, seed=seed))
        yield f"gap_ascent(K12, 3, restarts=2, seed={seed})", _json(result.to_json_dict())
    for n, d in OPTIMIZE_EXTRA:
        result = adconn.gap_ascent(adconn.complete_graph(n), d, adconn.OptimizerConfig(restarts=2, seed=0))
        yield f"gap_ascent(K{n}, {d}, restarts=2, seed=0)", _json(result.to_json_dict())
    import workloads

    spectra_large = workloads.WORKLOADS["spectra-large"]
    frameworks = spectra_large.build(0).timed
    for fw, spectra in zip(frameworks, spectra_large.run(frameworks)):
        yield f"spectra-large {fw.label} stiffness", _json(spectra.stiffness.to_json_dict())
        if spectra.lower is not None:
            yield f"spectra-large {fw.label} lower", _json(spectra.lower.to_json_dict())
    k96 = frameworks[-1]
    yield f"spectral_gap({k96.label})", repr(adconn.spectral_gap(k96.graph, k96.placement)).encode()
    interlacing = adconn.run_suite("interlacing", grid=INTERLACING_GRID, samples=3)
    yield f"run_suite('interlacing', grid={INTERLACING_GRID}, samples=3)", _json(interlacing)
    probe = adconn.conjecture_probe("spherical-second-eig", PROBE_PARAMS, seed=0)
    yield f"conjecture_probe('spherical-second-eig', {PROBE_PARAMS}, seed=0)", _json(probe)
    for args in CLI_ARGS:
        with tempfile.TemporaryDirectory() as outdir:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([*args, "--outdir", outdir])
            if code != 0:
                raise SystemExit(f"adconn {' '.join(args)} exited {code}")
            for path in sorted(Path(outdir).iterdir()):
                if not path.name.endswith("_manifest.json"):
                    yield f"adconn {' '.join(args)}: {path.name}", path.read_bytes()


def main() -> None:
    for label, data in artifacts():
        print(f"{hashlib.sha256(data).hexdigest()}  {label}", flush=True)


if __name__ == "__main__":
    main()
