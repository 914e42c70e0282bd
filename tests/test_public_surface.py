"""The package's public surface: ``rebit.__all__`` holds what callers use and nothing more.

Helpers that only the tests and the benchmark's tracer reach stay in their
submodules, where ``perfbench/spans.py`` looks them up, and do not come back
into the package namespace unnoticed.
"""

import rebit

MAX_EXPORTS = 44
DROPPED = ("svd2", "canonical_decompose", "shift_region_contains", "charpoly_coeffs", "image_ellipse", "ImageEllipse")


def test_all_is_sorted_and_unique():
    assert rebit.__all__ == sorted(set(rebit.__all__))


def test_every_exported_name_is_bound():
    assert [name for name in rebit.__all__ if not hasattr(rebit, name)] == []


def test_the_surface_stays_small():
    assert len(rebit.__all__) <= MAX_EXPORTS
    assert [name for name in DROPPED if hasattr(rebit, name)] == []
