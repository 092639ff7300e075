"""Shared synthetic fixtures.

Scene construction and rational-model fitting are deterministic but not
free, so the bundles are built once per session. Module tests use moderate
image sizes; the acceptance tests build their own scenes at full size.
"""

from types import SimpleNamespace

import pytest

from satpinhole import equate, fit_scene_rpc, make_pinhole_scene, make_pushbroom_scene


@pytest.fixture(scope="session")
def pinhole_bundle():
    scene = make_pinhole_scene(7, image_size=(512, 512))
    model, fit_rms = fit_scene_rpc(scene)
    camera, report = equate(model, scene.image_size)
    return SimpleNamespace(
        scene=scene, model=model, fit_rms=fit_rms, camera=camera, report=report
    )


@pytest.fixture(scope="session")
def pushbroom_bundle():
    scene = make_pushbroom_scene(3, image_size=(1024, 1024))
    model, fit_rms = fit_scene_rpc(scene)
    camera, report = equate(model, scene.image_size)
    return SimpleNamespace(
        scene=scene, model=model, fit_rms=fit_rms, camera=camera, report=report
    )


@pytest.fixture(scope="session")
def acceptance_512():
    """The acceptance family's seed-21 512 x 512 pushbroom scene and its model."""
    scene = make_pushbroom_scene(21, (512, 512), relief=60, extent_deg=0.16)
    model, _ = fit_scene_rpc(scene)
    return SimpleNamespace(scene=scene, model=model, image_size=scene.image_size)
