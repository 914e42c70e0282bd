import numpy as np
import pytest

from rebit.channel import AffineChannel
from rebit.linalg import rotation_matrix
from rebit.render import disk_figure_svg


def image(minor, dressed):
    """The figure of the zero-shift channel diag(0.4, minor), or of its dressing rot(0.3) diag(0.4, minor) rot(1.1)."""
    a = np.diag([0.4, minor])
    if dressed:
        a = rotation_matrix(0.3) @ a @ rotation_matrix(1.1)
    return disk_figure_svg(AffineChannel(a, [0.0, 0.0]))


@pytest.mark.parametrize("dressed", [False, True])
def test_a_minor_semi_axis_of_1e_12_draws_a_segment(dressed):
    figure = image(1e-12, dressed)  # 2e-10 px at the disk's radius
    assert '<line class="image"' in figure and "<ellipse" not in figure


@pytest.mark.parametrize("dressed", [False, True])
def test_a_minor_semi_axis_of_1e_7_draws_an_ellipse(dressed):
    figure = image(1e-7, dressed)  # 2e-5 px at the disk's radius
    assert "<ellipse" in figure and '<line class="image"' not in figure
