"""Pinned sha256 of every step engine's outputs at tiny sizes: the replay contract.

Each engine runs 10 replicas in chunks of 4, 4 and 2, so a change to how
replicas are chunked, drawn or stepped that moves any output by one ulp, or
changes a shape, dtype or memory order, shows here.  The CSV bytes that
``diminish simulate`` writes are pinned on the same grid, so a change to how
one trajectory is walked or written shows too.  The hashes were taken
with numpy 2.4.6; a numpy whose float kernels round differently moves them
too, which is why a failure names the version it ran on.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from diminish import interval, polygon, simplex
from diminish.cli import main
from diminish.cube import cube_run_batch
from diminish.distributions import DfForm, RngStream, _change_walk
from diminish.interval import run_full_batch
from diminish.polygon import run_polygon_batch
from diminish.simplex import run_simplex_batch
from diminish.verification import DEFAULT_SEED

REPLICAS, CHUNK, SEED = 10, 4, 5


def _fields(result):
    return [getattr(result, f.name) for f in dataclasses.fields(result)]


ENGINES = {
    "interval-c0.3-d2": lambda: run_full_batch(DfForm(0.3, 2.0), 300, REPLICAS, SEED),
    "interval-c0.5-d1": lambda: run_full_batch(DfForm(0.5, 1.0), 300, REPLICAS, SEED),
    "interval-c0-d0.5": lambda: run_full_batch(DfForm(0.0, 0.5), 300, REPLICAS, SEED),
    "interval-c0.8-d0.25": lambda: run_full_batch(DfForm(0.8, 0.25), 300, REPLICAS, SEED, (2,)),
    "interval-c1-d3": lambda: run_full_batch(DfForm(1.0, 3.0), 300, REPLICAS, SEED),
    "cube-d3": lambda: cube_run_batch(3, 300, REPLICAS, SEED),
    "simplex-d1": lambda: run_simplex_batch(1, 300, REPLICAS, SEED),
    "simplex-d2": lambda: run_simplex_batch(2, 300, REPLICAS, SEED),
    "simplex-d3": lambda: run_simplex_batch(3, 300, REPLICAS, SEED),
    "simplex-d5": lambda: run_simplex_batch(5, 300, REPLICAS, SEED),
    **{
        f"polygon-k{k}": lambda k=k: _fields(run_polygon_batch(k, 150, REPLICAS, SEED))
        for k in range(5, 10)
    },
}

PINNED = {
    "cube-d3": "a1510da543e699a7af213c443685c59881d56a7fca4211da96beea61703c8d8e",
    "interval-c0-d0.5": "6bf0d8dadceb3cad55d84cd2dd909774f29a187b1881697a61c6ec6e594b7182",
    "interval-c0.3-d2": "4a2b251317f93c77c48e464cc77b21fcea64e4a0bcb70d7865f83f6024a15da8",
    "interval-c0.5-d1": "d4a9eb35a459abf16e22c823ae43f1c44cd7d246d99319bf68648cfd87b01e7b",
    "interval-c0.8-d0.25": "8c3ea185d45423d688fad6a745034e870b4d0cd90aed3f6fdc5af00e74d1b3a1",
    "interval-c1-d3": "dfca7a9f1219e1e6f81e819f5ecc69acc1b92adc17a4e928d7ea6f6d7c63089d",
    "polygon-k5": "26b09efb4deec701221d5972c88e05aeac6e2eb0f56e67205e01e01c3e344feb",
    "polygon-k6": "8b604500531c7126bf9a70d465a85a86c87b10feefb675cb6fdb08af4142ae74",
    "polygon-k7": "5843065d86fe1c6af180cca1891d665ef1e03f1d4882c1d205c1ff290933d5b2",
    "polygon-k8": "60e9af680951fbbe10a39399d002de79e85c2e3f15590047ef848fd95658354b",
    "polygon-k9": "0ce05dcd178ad3300356711991f166522a0b1e844b3219e59918677e3ab03e25",
    "simplex-d1": "2c5fde1f23597760874c3cbeba94c976bd2fb8e6756bbbcbdc6d1e02942451cc",
    "simplex-d2": "41b17be52e144c0a1e83d4a57b3a8b852c834e61766f9dedcc45c623174beed5",
    "simplex-d3": "ccc13c6f2cae79857c3ff0a0d64e638cad32dc14440437cffcb62f6e2e4b585f",
    "simplex-d5": "2bcbeb69792c7956558926736a9b1c7d3d7475521c8bef3a984197a5d668f135",
}


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for a in outputs:
        if a is None:
            h.update(b"None")
            continue
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}{a.flags.c_contiguous}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_outputs_match_pinned_hash(monkeypatch, name):
    for module in (interval, simplex, polygon):
        monkeypatch.setattr(module, "_CHUNK", CHUNK)
    got = _digest(ENGINES[name]())
    assert got == PINNED[name], (
        f"{name}: outputs moved from the pinned replay on numpy {np.__version__} "
        f"(pinned with numpy 2.4.6): got {got}"
    )


# one trajectory of n = 300 steps per process, written through the command line
SIMULATE = {
    "interval-c0.3-d2": ["--process", "interval", "--c", "0.3", "--delta", "2"],
    "interval-c0.5-d1": ["--process", "interval", "--c", "0.5", "--delta", "1"],
    "interval-c0-d0.5": ["--process", "interval", "--c", "0", "--delta", "0.5"],
    "interval-c0.8-d0.25": ["--process", "interval", "--c", "0.8", "--delta", "0.25"],
    "interval-c1-d3": ["--process", "interval", "--c", "1", "--delta", "3"],
    "cube-d3": ["--process", "cube", "--d", "3"],
    **{f"simplex-d{d}": ["--process", "simplex", "--d", str(d)] for d in (1, 2, 3, 5)},
    **{f"polygon-k{k}": ["--process", "polygon", "--k", str(k)] for k in range(5, 10)},
}

SIMULATE_PINNED = {
    "cube-d3": "4a7b42d616268fd70871884dc8b76ca35c03d2735921b7118887ec162afb8d05",
    "interval-c0-d0.5": "0dd97f9a4a4f66ddc152e4dce229be201bbfeca92879d5a25909671c32747877",
    "interval-c0.3-d2": "cffe9ced6c0f48b20bf92ba5d2f177e05c60993571705e5a70d312fe2bd535ad",
    "interval-c0.5-d1": "895ff1dedcd3d6b8b203bf73ad45a43975bb7cb769c04810ac25ed2f0ed54f7d",
    "interval-c0.8-d0.25": "ac15691dbc8e20255e4c96849b82c5b8573bbaebb3853c3c355a752318a1d18c",
    "interval-c1-d3": "89f9de14ae6294efe255f4a5e2abe9706ad5e7f4e58e0e078f181af90a6b66da",
    "polygon-k5": "c542ff45dbe545061f0b79884202e63dc73304e01af8f9d812c3cc9e47261d41",
    "polygon-k6": "700233d42f51d829330931feaafa65aada8731c138b03bec291480d1c26610a8",
    "polygon-k7": "8c89f11eaa2ff3236fb4086dd3e193bbbce98d316ebd633f998c75a06e8b02a4",
    "polygon-k8": "31cdaffd2fc04bbc1450d2fe661dcded8613fdeede213cc1a6419595dde10cc1",
    "polygon-k9": "e08d791bddc09c9bcefcd1de0e0a436c20fec289657771aa906288a7dd9f86f5",
    "simplex-d1": "fa132285a4713dc464596bda82e901930daaa2f11a2d698f64ecf6271cd47803",
    "simplex-d2": "cc58c6a3d861926e91688fc2318c4e973818142a1478173eaf6d70f5d2a684bd",
    "simplex-d3": "4a1d08839030927b258224a6b556bbe06a07d23e2594a8e3db2bd9bc0c417451",
    "simplex-d5": "c11980bbb4674fcc6f7d073db4ad025f6804c94250ba9de222751a186991dd11",
}


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_csv_matches_pinned_hash(tmp_path, name):
    out = tmp_path / "traj.csv"
    argv = ["simulate", *SIMULATE[name], "--n", "300", "--seed", str(SEED), "--out", str(out)]
    assert main(argv) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == SIMULATE_PINNED[name], (
        f"simulate {name}: CSV bytes moved from the pinned trajectory on numpy "
        f"{np.__version__} (pinned with numpy 2.4.6): got {got}"
    )


# ten scaled samples of n = 300 steps per process, and the published figure data
EXPERIMENT = {
    name: ["experiment", *SIMULATE[name], "--n", "300", "--replicas", str(REPLICAS)]
    for name in ("interval-c0.3-d2", "cube-d3", "simplex-d3", "polygon-k5", "polygon-k8")
}
EXPERIMENT.update({which: ["figure", "--which", which] for which in ("fig7", "fig8")})

EXPERIMENT_PINNED = {
    "cube-d3": "b7450297f411d8ad793f97ee8111da2b32ba1e3ba891f24c58ef50e182dda11e",
    "fig7": "9d50d98f0e3803232e59de3394bc860c3294b6f2b1bc3f546f6d5b7b1fa6fcdb",
    "fig8": "9bb81e2c4dc4cc2076e9d1b64cf439c2a3d98a0f8dfb0d0e9be5220f8290c733",
    "interval-c0.3-d2": "881b209d69e35c35b5fa7dbddfb865b88e3a2a52c51f8a3785a74ca6dc66de8d",
    "polygon-k5": "eead5dcee7fd0a93a7cb41e316691ff698664e5010dbb7c33cf31e8feeeded30",
    "polygon-k8": "0be0fa30e3f73c4e5847d69e2b98a0272bf5a3d746fd67b84de19be66b86caef",
    "simplex-d3": "6409dd823c5ef4d3bf5653713ad0ad4b0e99c35621881a43c01eba4ccc2fbe9f",
}


@pytest.mark.parametrize("name", sorted(EXPERIMENT))
def test_sample_csv_matches_pinned_hash(tmp_path, name):
    out = tmp_path / "samples.csv"
    assert main([*EXPERIMENT[name], "--seed", str(SEED), "--out", str(out)]) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == EXPERIMENT_PINNED[name], (
        f"{EXPERIMENT[name][0]} {name}: CSV bytes moved from the pinned samples on numpy "
        f"{np.__version__} (pinned with numpy 2.4.6): got {got}"
    )


# every snapshot field of each state that the invariant suite walks
SNAPSHOT_WALKS = ((5, 20, 400), (7, 12, 400), (8, 8, 300))
SNAPSHOT_PINNED = "5d76bf3b0061ad6147d5d982cf9478cdc51686ccd1292aa056354cdaa16c6e82"


def _walked_states():
    for k, replicas, steps in SNAPSHOT_WALKS:
        for r in range(replicas):
            start = polygon.polygon_new(k)
            yield start
            yield from _change_walk(start, steps, RngStream(DEFAULT_SEED + 50, r, (k,)))[1]


def test_snapshots_match_pinned_hash():
    states = list(_walked_states())
    # the walks reach rebuilt (degenerate) cycles too
    assert (len(states), sum(s._cycle.tightened[0] for s in states)) == (725, 10)
    got = _digest(a for s in states for a in _fields(polygon.snapshot(s)))
    assert got == SNAPSHOT_PINNED, (
        f"snapshot fields moved from the pinned walks on numpy {np.__version__} "
        f"(pinned with numpy 2.4.6): got {got}"
    )
