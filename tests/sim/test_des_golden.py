"""Golden runs of the flow-level DES: the tracker-limited MTSD leg and two
full-mesh controls.

The neighbour-aware MTSD path has an oracle for each rate epoch
(``oracle_mode()``), but nothing pins a whole run: a change to the tracker
draw, the topology hooks or the kernel's float operations could move every
trajectory and still agree with an oracle that moved with it.  These cases
pin short runs -- MTSD at numwant 20 and 5, MTCD, and CMFSD on the global
pool at rho = 0.5, all at p = 0.9 -- by the final ``rng.misc`` state (the
stream the tracker samples from), the tracker's announce count and two
digests of :func:`~repro.sim.metrics.summary_to_dict`:

* the *exact* digest (every float bit).  The neighbour kernel's matrix
  products run in BLAS, whose summation order depends on the BLAS build
  and the CPU kernel it picks, so the exact digest is checked only on the
  float path it was recorded on (:func:`float_path`);
* a digest of the summary rounded to 8 significant digits, checked
  everywhere: last-bit differences do not reach it, a changed trajectory
  does.

The values were recorded before the tracker-limited path was reworked
(partner counts, an in-step seed plan, the sample-discarding announce);
that rework left all of them unchanged.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core import Scheme
from repro.core.correlation import CorrelationModel
from repro.core.parameters import PAPER_PARAMETERS
from repro.sim.metrics import summary_to_dict
from repro.sim import ScenarioConfig, SeedPolicy, build_simulation

HORIZON, WARMUP, SEED = 800.0, 250.0, 11

LEGS = {
    "mtsd-numwant-20": {"scheme": Scheme.MTSD, "neighbor_limit": 20},
    "mtsd-numwant-5": {"scheme": Scheme.MTSD, "neighbor_limit": 5},
    "mtcd": {"scheme": Scheme.MTCD},
    "cmfsd-pool": {
        "scheme": Scheme.CMFSD,
        "rho": 0.5,
        "seed_policy": SeedPolicy.GLOBAL_POOL,
    },
}

#: leg -> (exact digest, rounded digest, (PCG64 state, has_uint32,
#: uinteger) of ``rng.misc``, tracker announces or ``None``)
GOLDEN = {
    "mtsd-numwant-20": (
        "47b372cb3d50b767", "371db1aa7b69b351",
        (31194134278990497337315554283929958724, 1, 60130762), 11299,
    ),
    "mtsd-numwant-5": (
        "cd386809165c7e77", "431215e42ef22914",
        (2983366210427248490163153909350393174, 0, 986461348), 11113,
    ),
    "mtcd": (
        "f34b618187994697", "f34b618187994697",
        (143045636704461773546361278806121671671, 0, 0), None,
    ),
    "cmfsd-pool": (
        "dca403d9084abcc9", "990ba461ac9ca523",
        (143045636704461773546361278806121671671, 0, 0), None,
    ),
}

#: the float path the exact digests were recorded on (NumPy 2.4, OpenBLAS
#: 0.3.31 choosing its SkylakeX kernels on an AVX-512 x86-64 CPU)
RECORDED_FLOAT_PATH = "2.4:27d19cefe436e062"


def float_path() -> str:
    """This process's float path: the NumPy feature release plus the bits
    of two BLAS matrix-vector products shaped like the neighbour kernel's
    (``reach @ caps`` and ``reach.T @ coeff``)."""
    rng = np.random.default_rng(0)
    reach = (rng.random((24, 96)) < 0.5).astype(float)
    bits = (reach @ rng.random(96)).tobytes() + (reach.T @ rng.random(24)).tobytes()
    release = np.__version__.rsplit(".", 1)[0]
    return f"{release}:{hashlib.sha256(bits).hexdigest()[:16]}"


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.8g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def pinned_run(leg: str) -> tuple:
    correlation = CorrelationModel(
        num_files=PAPER_PARAMETERS.num_files, p=0.9, visit_rate=1.0
    )
    config = ScenarioConfig(
        params=PAPER_PARAMETERS,
        correlation=correlation,
        t_end=HORIZON,
        warmup=WARMUP,
        seed=SEED,
        **LEGS[leg],
    )
    system, arrivals = build_simulation(config)
    system.start_sampler(config.sample_interval, HORIZON)
    arrivals.start()
    system.run_until(HORIZON)
    system.sync_accounting()
    summary = summary_to_dict(system.metrics.summarize(warmup=WARMUP, horizon=HORIZON))
    state = system.rng.misc.bit_generator.state
    return (
        _digest(summary),
        _digest(_rounded(summary)),
        (state["state"]["state"], state["has_uint32"], state["uinteger"]),
        system.tracker.announces if system.tracker is not None else None,
    )


@pytest.mark.parametrize("leg", sorted(GOLDEN))
def test_des_leg_matches_golden(leg):
    exact, rounded, rng_state, announces = pinned_run(leg)
    want_exact, want_rounded, want_state, want_announces = GOLDEN[leg]
    assert announces == want_announces
    assert rng_state == want_state
    assert rounded == want_rounded
    if float_path() == RECORDED_FLOAT_PATH:
        assert exact == want_exact
