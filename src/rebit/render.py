"""Deterministic SVG rendering of the Bloch disk and the admissibility region.

Output is plain SVG 1.1 assembled from formatted strings: identical inputs
produce identical bytes.  The viewport is 512x512 with the unit disk mapped
to a 200 px radius circle at the center; the vertical axis points up, so
y-coordinates are flipped when mapped to screen space.
"""

import math

from .canonical import decompose_channel
from .channel import AffineChannel
from .cp import admissible_pentagon

VIEW = 512
CX = CY = VIEW // 2
DISK_R = 200.0
# Semi-axis at or below which the image is drawn as a segment (a point, when both are): CP_TOL's size,
# 2e-7 px at DISK_R; chosen, not derived; bound by test_a_minor_semi_axis_of_1e_12_draws_a_segment (at 0)
# and test_a_minor_semi_axis_of_1e_7_draws_an_ellipse (at x1000).
DEGENERATE_AXIS = 1e-9

_STYLE = """\
  <style>
    .disk { fill: none; stroke: #202020; stroke-width: 1.5; }
    .axis { stroke: #b0b0b0; stroke-width: 1; }
    .image { fill: none; stroke: #c02020; stroke-width: 2; }
    .image-fill { fill: #c02020; }
    .marker-0 { fill: #d62728; }
    .marker-1 { fill: #e8c519; }
    .marker-2 { fill: #2ca02c; }
    .marker-3 { fill: #1f77b4; }
    .pentagon { fill: #dce9f7; stroke: #1f77b4; stroke-width: 2; }
    .vertex { fill: #1f3a5f; }
    .label { font-family: monospace; font-size: 13px; fill: #202020; }
  </style>
"""


def _fmt(x: float) -> str:
    # fixed decimals keep the byte stream independent of repr quirks; every drawn number passes here, and one
    # far off the canvas (a far shift overflows to inf on Python floats) is clamped to +-1e9 to stay an SVG number
    return f"{min(max(x, -1e9), 1e9) + 0.0:.4f}"


def _px(x: float, y: float, scale: float = DISK_R) -> tuple[float, float]:
    return CX + scale * x, CY - scale * y


def _header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{VIEW}" height="{VIEW}" viewBox="0 0 {VIEW} {VIEW}">',
        f"  <title>{title}</title>",
        _STYLE.rstrip("\n"),
    ]


def _line(cls: str, start: tuple[float, float], end: tuple[float, float]) -> str:
    (x0, y0), (x1, y1) = start, end
    return f'  <line class="{cls}" x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}"/>'


def _legend(lines: list[str]) -> list[str]:
    out = []
    y = 24
    for line in lines:
        out.append(f'  <text class="label" x="12" y="{y}">{line}</text>')
        y += 18
    return out


def disk_figure_svg(channel: AffineChannel) -> str:
    """Bloch disk with axes, boundary markers and the channel's image ellipse."""
    form = decompose_channel(channel)
    a1, a2, tilt = abs(form.lam1), abs(form.lam2), form.theta1  # the image ellipse's semi-axes and tilt
    c1, c2 = channel.w.tolist()  # and its center, as Python floats, which overflow to inf without a warning
    parts = _header("Bloch disk image")
    parts.append(_line("axis", _px(-1.1, 0.0), _px(1.1, 0.0)))
    parts.append(_line("axis", _px(0.0, -1.1), _px(0.0, 1.1)))
    parts.append(f'  <circle class="disk" cx="{CX}" cy="{CY}" r="{_fmt(DISK_R)}"/>')
    for index, phi in enumerate((0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)):
        mx, my = _px(math.cos(phi), math.sin(phi))
        parts.append(f'  <circle class="marker-{index}" cx="{_fmt(mx)}" cy="{_fmt(my)}" r="6"/>')
    ex, ey = _px(c1, c2)
    if a1 <= DEGENERATE_AXIS and a2 <= DEGENERATE_AXIS:
        parts.append(f'  <circle class="image-fill" cx="{_fmt(ex)}" cy="{_fmt(ey)}" r="3"/>')
    elif a2 <= DEGENERATE_AXIS:
        dx = a1 * math.cos(tilt)
        dy = a1 * math.sin(tilt)
        parts.append(_line("image", _px(c1 - dx, c2 - dy), _px(c1 + dx, c2 + dy)))
    else:
        tilt_deg = -math.degrees(tilt)  # screen y points down
        parts.append(
            f'  <ellipse class="image" cx="{_fmt(ex)}" cy="{_fmt(ey)}" '
            f'rx="{_fmt(a1 * DISK_R)}" ry="{_fmt(a2 * DISK_R)}" '
            f'transform="rotate({_fmt(tilt_deg)} {_fmt(ex)} {_fmt(ey)})"/>'
        )
    parts.extend(
        _legend(
            [
                f"lambda = ({form.lam1:.6g}, {form.lam2:.6g})",
                f"w = ({channel.w[0]:.6g}, {channel.w[1]:.6g})",
                f"tilt = {tilt:.6g}",
            ]
        )
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def region_figure_svg() -> str:
    """The admissibility pentagon in the scale-coefficient square [-1, 1]^2."""
    scale = 180.0
    parts = _header("Admissibility region")
    parts.append(_line("axis", _px(-1.2, 0.0, scale), _px(1.2, 0.0, scale)))
    parts.append(_line("axis", _px(0.0, -1.2, scale), _px(0.0, 1.2, scale)))
    vertices = admissible_pentagon()
    points = " ".join(
        f"{_fmt(px)},{_fmt(py)}" for px, py in (_px(vx, vy, scale) for vx, vy in vertices)
    )
    parts.append(f'  <polygon class="pentagon" points="{points}"/>')
    for vx, vy in vertices:
        px, py = _px(vx, vy, scale)
        parts.append(f'  <circle class="vertex" cx="{_fmt(px)}" cy="{_fmt(py)}" r="4"/>')
        lx = px + (8 if vx >= 0 else -72)
        ly = py + (-8 if vy >= 0 else 18)
        parts.append(
            f'  <text class="label" x="{_fmt(lx)}" y="{_fmt(ly)}">({vx:g}, {vy:g})</text>'
        )
    parts.extend(_legend(["admissible scale pairs (lambda1, lambda2)"]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
