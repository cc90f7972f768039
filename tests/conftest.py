import numpy as np
import pytest

from scenetok import PipelineConfig, SceneSpec, generate_scene


@pytest.fixture(scope="session")
def small_spec():
    return SceneSpec(n_agents=2, n_clutter=3, T=5, area_m=50.0, cameras=2, D=8)


@pytest.fixture(scope="session")
def small_scene(small_spec):
    return generate_scene(7, small_spec)


@pytest.fixture(scope="session")
def small_config():
    return PipelineConfig(T=5, D=8, n_elem_agent=8, n_elem_openset=32,
                          n_elem_ground=64, n_pts_ground=2000,
                          n_pts_agent=1200, n_pts_openset=1000)


@pytest.fixture
def toy_fusion_inputs():
    """Random toy-dimension tensors for the fusion network."""
    rng = np.random.default_rng(42)
    n_elem, T, D = 4, 3, 8
    n_pts = 30
    P_xyz = rng.normal(size=(n_pts, 3))
    P_ind = np.stack([rng.integers(0, T, n_pts),
                      rng.integers(0, n_elem, n_pts)], axis=1)
    B = rng.normal(size=(n_elem, T, 7))
    F_img = rng.normal(size=(n_elem, T, D))
    elem_valid = rng.random((n_elem, T)) > 0.25
    elem_valid[0] = False  # one element with no valid frame
    return dict(n_elem=n_elem, T=T, D=D, P_xyz=P_xyz, P_ind=P_ind, B=B,
                F_img=F_img, elem_valid=elem_valid)


@pytest.fixture
def ragged_fusion_inputs():
    """Toy fusion tensors whose elements are valid in 0..T frames.

    Elements are valid in 0, 1, 2, 3 and 4 of the T=4 frames, and the
    frames hold 5, 3, 2 and 5 valid elements, so both attention axes run
    several group lengths, some of them with more than one group.
    """
    rng = np.random.default_rng(43)
    elem_valid = np.array([[0, 0, 0, 0],
                           [1, 0, 0, 0],
                           [0, 1, 0, 1],
                           [1, 1, 0, 1],
                           [1, 1, 1, 1],
                           [0, 0, 0, 1],
                           [1, 0, 1, 1],
                           [1, 0, 0, 0]], dtype=bool)
    n_elem, T = elem_valid.shape
    D = 8
    n_pts = 60
    P_xyz = rng.normal(size=(n_pts, 3))
    P_ind = np.stack([rng.integers(0, T, n_pts),
                      rng.integers(0, n_elem, n_pts)], axis=1)
    B = rng.normal(size=(n_elem, T, 7))
    F_img = rng.normal(size=(n_elem, T, D))
    return dict(n_elem=n_elem, T=T, D=D, P_xyz=P_xyz, P_ind=P_ind, B=B,
                F_img=F_img, elem_valid=elem_valid)
