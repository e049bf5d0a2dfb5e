"""Deterministic SVG pictures: lattice hull with its boundary chain, and the
cycle of resolution curves.  Output depends only on the input data, so the
same chain always renders to the same bytes."""

from __future__ import annotations

import math

from .lattice import _quad_sign


def _fmt(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def _approx(scalar) -> float:
    """The scalar with sqrt(D) cut to six decimals, correctly rounded."""
    root = math.isqrt(10**12 * (scalar.D or 0))
    return (scalar.num * 10**6 + scalar.irr * root) / (scalar.den * 10**6)


def hull_figure(chain) -> str:
    """Lattice points, the two cone edges, and the chain polyline with
    labeled vertices across two unit periods."""
    verts = chain.extended_vertices(2)
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    span = max(max(map(abs, xs)), max(map(abs, ys)), 2)

    from .quadfield import cusp_cone

    ideal = chain.cusp.ideal
    cone = cusp_cone(ideal)
    # totally positive lattice points with coordinates in [-r, r]
    (u0, u1), (v0, v1) = ideal.basis.num, ideal.basis.irr
    r = min(span + 1, 64)
    dots = []
    for c1 in range(-r, r + 1):
        for c2 in range(-r, r + 1):
            p, q = u0 * c1 + u1 * c2, v0 * c1 + v1 * c2
            if _quad_sign(p, q, ideal.D) > 0 and _quad_sign(p, -q, ideal.D) > 0:
                dots.append((c1, c2))

    scale, pad = 28.0, 30.0

    def sx(x):
        return pad + scale * (x + span)

    def sy(y):
        return pad + scale * (span - y)

    w = _fmt(2 * pad + scale * 2 * span)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {w}" width="{w}" height="{w}">',
        '<rect class="background" width="100%" height="100%" fill="white"/>',
    ]
    reach = 2.5 * span
    for g in cone.generators:
        gx, gy = _approx(g[0]), _approx(g[1])
        n = math.hypot(gx, gy) or 1.0
        parts.append(
            f'<line class="cone-edge" x1="{_fmt(sx(0))}" y1="{_fmt(sy(0))}" '
            f'x2="{_fmt(sx(reach * gx / n))}" y2="{_fmt(sy(reach * gy / n))}" '
            'stroke="#999" stroke-dasharray="4 3"/>'
        )
    for (px, py) in dots:
        parts.append(
            f'<circle class="lattice-point" cx="{_fmt(sx(px))}" cy="{_fmt(sy(py))}" '
            'r="2" fill="#bbb"/>'
        )
    path = " ".join(
        f"{'M' if i == 0 else 'L'} {_fmt(sx(v[0]))} {_fmt(sy(v[1]))}"
        for i, v in enumerate(verts)
    )
    parts.append(
        f'<path class="chain-edge" d="{path}" fill="none" stroke="#1f5fbf" stroke-width="1.5"/>'
    )
    b_cycle = chain.extended_b(2)
    for i, v in enumerate(verts):
        parts.append(
            f'<circle class="chain-vertex" cx="{_fmt(sx(v[0]))}" cy="{_fmt(sy(v[1]))}" '
            'r="3.5" fill="#1f5fbf"/>'
        )
        if i < len(b_cycle):
            parts.append(
                f'<text class="vertex-label" x="{_fmt(sx(v[0]) + 5)}" '
                f'y="{_fmt(sy(v[1]) - 5)}" font-size="10">v{i} b={b_cycle[i]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cycle_figure(cycle) -> str:
    """Ring of m curves labeled with their self-intersection numbers."""
    m = cycle.m
    radius, pad = 80.0, 40.0
    cx = cy = radius + pad
    size = _fmt(2 * (radius + pad))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">',
        '<rect class="background" width="100%" height="100%" fill="white"/>',
    ]
    centers = []
    for j in range(m):
        ang = 2 * math.pi * j / m - math.pi / 2
        centers.append((cx + radius * math.cos(ang), cy + radius * math.sin(ang)))
    if m == 1:
        x, y = centers[0]
        parts.append(
            f'<path class="cycle-edge" d="M {_fmt(x - 18)} {_fmt(y)} '
            f'C {_fmt(x - 50)} {_fmt(y - 60)}, {_fmt(x + 50)} {_fmt(y - 60)}, '
            f'{_fmt(x + 18)} {_fmt(y)}" fill="none" stroke="#444"/>'
        )
    else:
        for j in range(m):
            x1, y1 = centers[j]
            x2, y2 = centers[(j + 1) % m]
            parts.append(
                f'<line class="cycle-edge" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="#444"/>'
            )
    for j, (x, y) in enumerate(centers):
        parts.append(
            f'<circle class="cycle-node" cx="{_fmt(x)}" cy="{_fmt(y)}" r="16" '
            'fill="#eef" stroke="#1f5fbf"/>'
        )
        parts.append(
            f'<text class="cycle-label" x="{_fmt(x)}" y="{_fmt(y + 4)}" '
            f'font-size="11" text-anchor="middle">{-cycle.b[j]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
