import contextlib

import numpy as np
import pytest

from entropic import svm
from entropic.dataset import EMOTIONS, audio_columns
from entropic.stats import ActorInfo, EntropyMatrix


def make_matrix(values: np.ndarray) -> EntropyMatrix:
    """Wrap a 24x60 value grid in the canonical RAVDESS-shaped metadata."""
    n_actors = values.shape[0]
    return EntropyMatrix(
        values=values,
        actor_meta=tuple(
            ActorInfo(i + 1, "male" if (i + 1) % 2 == 1 else "female") for i in range(n_actors)
        ),
        audio_meta=tuple(audio_columns()),
    )


@contextlib.contextmanager
def scaled_kernel(c: float):
    """Within the block, every Gram matrix is c * K: the kernel c * k, with
    the same bits as a kernel that multiplies its own values by c."""
    plain = svm.kernel_matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svm, "kernel_matrix", lambda spec, X, Y: c * plain(spec, X, Y))
        yield


@pytest.fixture
def separable_matrix() -> EntropyMatrix:
    """24x60 matrix whose emotions occupy disjoint entropy ranges."""
    rng = np.random.default_rng(7)
    offsets = {em: i for i, em in enumerate(EMOTIONS)}
    cols = audio_columns()
    values = np.empty((24, 60))
    for j, col in enumerate(cols):
        values[:, j] = offsets[col.emotion] + rng.uniform(0.0, 0.3, 24)
    return make_matrix(values)


@pytest.fixture
def random_matrix() -> EntropyMatrix:
    """24x60 matrix of i.i.d. entropies: no emotion signal at all."""
    rng = np.random.default_rng(42)
    return make_matrix(rng.uniform(0.0, 5.0, (24, 60)))


def make_blobs(seed: int = 0, n_per_class: int = 20, centers=((0.0, 0.0), (4.0, 4.0))):
    """Well-separated Gaussian blobs; labels 'A', 'B', ... by center."""
    rng = np.random.default_rng(seed)
    X, labels = [], []
    for ci, center in enumerate(centers):
        X.append(rng.normal(center, 0.5, (n_per_class, len(center))))
        labels.extend([chr(ord("A") + ci)] * n_per_class)
    return np.vstack(X), labels
