"""Minimal SVG emitter: polyline/circle/text primitives, no dependencies.

Enough for the two figures the CLI produces (quotient convergence lines
and the (d_fs, |gamma_b|) scatter under the saturation quarter circle).
"""

import numpy as np

_COLORS = ["#1f6fb2", "#c44e52", "#55a868", "#8172b2", "#937860"]


class Canvas:
    def __init__(self, width=640, height=480):
        self.width = width
        self.height = height
        self.parts = []

    def line(self, x1, y1, x2, y2):
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="#444" stroke-width="1.0"/>')

    def polyline(self, points, stroke="#1f6fb2", width=1.5):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def circle(self, cx, cy, r, fill="#1f6fb2"):
        self.parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="{fill}" '
            'stroke="none"/>')

    def text(self, x, y, s, size=12, anchor="start", fill="#222"):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}" '
            f'font-family="sans-serif">{s}</text>')

    def to_string(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">\n'
                f'<rect width="100%" height="100%" fill="white"/>\n'
                f"{body}\n</svg>\n")

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_string())


class _Frame:
    """Data-to-pixel transform in a 50 px margin, with axes and five ticks each."""

    def __init__(self, canvas, x_range, y_range):
        self.canvas = canvas
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.pad = 50

    def px(self, x):
        w = self.canvas.width - 2 * self.pad
        return self.pad + (x - self.x0) / (self.x1 - self.x0) * w

    def py(self, y):
        h = self.canvas.height - 2 * self.pad
        return self.canvas.height - self.pad - (y - self.y0) / (self.y1 - self.y0) * h

    def axes(self, xlabel="", ylabel=""):
        c, p = self.canvas, self.pad
        c.line(p, c.height - p, c.width - p, c.height - p)
        c.line(p, p, p, c.height - p)
        for t in np.linspace(self.x0, self.x1, 5):
            c.line(self.px(t), c.height - p, self.px(t), c.height - p + 4)
            c.text(self.px(t), c.height - p + 16, f"{t:.3g}", size=10, anchor="middle")
        for t in np.linspace(self.y0, self.y1, 5):
            c.line(p - 4, self.py(t), p, self.py(t))
            c.text(p - 6, self.py(t) + 3, f"{t:.3g}", size=10, anchor="end")
        if xlabel:
            c.text(c.width / 2, c.height - 8, xlabel, anchor="middle")
        if ylabel:
            c.text(12, p - 10, ylabel)


def line_chart(path, series, title="", xlabel="", ylabel=""):
    """series: {label: (xs, ys)}; linear axes spanning all data."""
    xs_all = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    canvas = Canvas()
    span_y = ys_all.max() - ys_all.min()
    frame = _Frame(canvas, (xs_all.min(), xs_all.max() or 1.0),
                   (ys_all.min() - 0.05 * span_y - 1e-9,
                    ys_all.max() + 0.05 * span_y + 1e-9))
    frame.axes(xlabel, ylabel)
    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = [(frame.px(x), frame.py(y)) for x, y in zip(xs, ys)]
        canvas.polyline(pts, stroke=color)
        for x, y in pts:
            canvas.circle(x, y, 2.5, fill=color)
        canvas.text(canvas.width - frame.pad, frame.pad + 14 * (i + 1), label,
                    size=11, anchor="end", fill=color)
    if title:
        canvas.text(canvas.width / 2, 20, title, size=14, anchor="middle")
    canvas.write(path)


def scatter_under_quarter_circle(path, d_values, gamma_abs_values, title=""):
    """(d_fs, |gamma_b|) scatter with the strong-QII saturation arc and
    the d = |gamma| chord."""
    canvas = Canvas(width=520, height=520)
    lim = max(np.pi, max(d_values, default=np.pi) * 1.05)
    frame = _Frame(canvas, (0.0, lim), (0.0, lim))
    frame.axes("d_fs", "|gamma_b|")
    s = np.linspace(0.0, np.pi / 2, 128)
    arc = [(frame.px(np.pi * np.sin(t)), frame.py(np.pi * (1 - np.cos(t)))) for t in s]
    canvas.polyline(arc, stroke="#c44e52", width=1.5)
    chord = [(frame.px(0), frame.py(0)), (frame.px(np.pi), frame.py(np.pi))]
    canvas.polyline(chord, stroke="#999", width=0.8)
    for d, g in zip(d_values, gamma_abs_values):
        canvas.circle(frame.px(d), frame.py(g), 2.2, fill="#1f6fb2")
    if title:
        canvas.text(canvas.width / 2, 20, title, size=14, anchor="middle")
    canvas.write(path)
