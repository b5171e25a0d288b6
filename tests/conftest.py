import numpy as np
import pytest

from memtraj.config import Config
from memtraj.datasets import SynthMode, synth_generate
from memtraj.intention import kmeans_batch


def quick_config(**overrides):
    """A config sized for fast unit tests; override whatever a test pins."""
    base = dict(
        scale="meter",
        past_dim=32,
        intent_dim=16,
        addr_dim=32,
        epochs_features=10,
        epochs_addresser=8,
        epochs_fulfillment=10,
        batch_size=16,
        n_retrieve=10,
        n_predict=4,
        seed=3,
    )
    base.update(overrides)
    return Config(**base)


def kmeans_one(points, k, seed):
    """The package's k-means for one scene: :func:`kmeans_batch` on a block of one."""
    return kmeans_batch(np.asarray(points, dtype=np.float64)[None], k, [seed])[0]


def single_mode_spec():
    """Every scene walks straight; the second mode exists but never fires."""
    return [SynthMode(0.0, 1.0), SynthMode(np.pi / 2.0, 0.0)]


@pytest.fixture(scope="session")
def small_scenes():
    return synth_generate(11, 40)
