import gc

import numpy as np
import pytest

from qmud import detectors
from qmud.cdma import walsh_hadamard_signatures
from qmud.config import QuantizerSpec, Scenario


def make_scenario(**overrides) -> Scenario:
    """Two-user non-orthogonal baseline; cross-correlation exactly 0.5."""
    params = dict(
        K=2, PG=4,
        signatures=((0.5, 0.5, 0.5, 0.5), (0.5, 0.5, -0.5, 0.5)),
        energies=(1.0, 1.0),
        gains=(1.0, 1.0),
        noise_sigma=0.0,
        quantizer=QuantizerSpec(n_ch=3, amplitude=1.5),
        gamma=0,
        delays=(0,),
        reps_max=1,
        seed=0,
    )
    params.update(overrides)
    return Scenario(**params)


def make_orthogonal(K=2, PG=4, **overrides) -> Scenario:
    params = dict(
        K=K, PG=PG,
        signatures=walsh_hadamard_signatures(K, PG),
        energies=(1.0,) * K,
        gains=(1.0,) * K,
        noise_sigma=0.0,
        quantizer=QuantizerSpec(n_ch=3, amplitude=1.5 * np.sqrt(K)),
        gamma=0,
        delays=(0,),
        reps_max=1,
        seed=0,
    )
    params.update(overrides)
    return Scenario(**params)


def random_unit_signatures(rng: np.random.Generator, K: int, PG: int):
    sig = rng.normal(size=(K, PG))
    sig /= np.linalg.norm(sig, axis=1, keepdims=True)
    return tuple(tuple(row) for row in sig)


def ill_conditioned_rows():
    """(soft, R): 2000 rows R b + 0.3 n with K = 6 and cond(R) = 1e5, at seed 5."""
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    R = (Q * np.logspace(0, -5, 6)) @ Q.T
    R = (R + R.T) / 2
    soft = rng.choice([-1.0, 1.0], size=(2000, 6)) @ R + 0.3 * rng.normal(size=(2000, 6))
    return soft, R


def spy_exact_search(monkeypatch) -> list:
    """Record every row the optimal search hands to its exact search."""
    seen = []
    real = detectors._exact_rows

    def spy(soft, R):
        seen.extend(map(tuple, soft.tolist()))
        return real(soft, R)

    monkeypatch.setattr(detectors, "_exact_rows", spy)
    return seen


@pytest.fixture
def two_user_scenario():
    return make_scenario()


@pytest.fixture(autouse=True)
def _thaw_the_heap():
    """Undo the ``gc.freeze()`` that ``qmud.cli.main`` leaves behind.

    The collector never visits a frozen object.  Without this, the cyclic
    garbage pending at each in-process ``main`` call, and every frozen cycle
    that dies later, would stay in memory for the rest of the session.
    """
    yield
    gc.unfreeze()
