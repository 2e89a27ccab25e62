"""Plane charts of graded classes, as text or SVG.

Conventions follow the figures the tables are read against: x is the
trivial coordinate, y the sign coordinate, a square is a free class on
the standard lattice, a circle a free class on the doubled lattice, a
dot an F_2 class.  Thin vertical segments join a class to its a-multiple
and diagonal segments to its vbar-multiples, whenever both ends are
drawn classes of the chart.

A drawn class is a `coefficients.BasisEntry` or a `blocks.TowerClass`;
a chart reads its lattice, its torsion flag and its monomial, which is
None, and joins no segment, for a class without a monomial name.
"""

from __future__ import annotations

from .coefficients import Monomial, vbar_monomial
from .grading import Degree, Window

GLYPH_FREE = "□"      # square, lattice 1
GLYPH_DOUBLED = "○"   # circle, lattice 2
GLYPH_TORSION = "•"   # dot, F_2

# degree -> its classes, each a BasisEntry or a TowerClass
Cells = dict[Degree, list]


def _glyph(cls) -> str:
    if cls.torsion:
        return GLYPH_TORSION
    return GLYPH_DOUBLED if cls.lattice == 2 else GLYPH_FREE


def _cell_char(classes: list) -> str:
    if not classes:
        return " "
    if len(classes) == 1:
        return _glyph(classes[0])
    return str(len(classes)) if len(classes) <= 9 else "#"


def ascii_chart(cells: Cells, window: Window) -> str:
    """Rows from sgn_max down to sgn_min, one character per degree."""
    lines = []
    for s in range(window.sgn_max, window.sgn_min - 1, -1):
        row = "".join(_cell_char(cells.get(Degree(t, s), []))
                      for t in range(window.triv_min, window.triv_max + 1))
        lines.append(f"{s:>4} |{row}|")
    width = window.triv_max - window.triv_min + 1
    lines.append("     +" + "-" * width + "+")
    marks = [" "] * width
    for t in range(window.triv_min, window.triv_max + 1):
        if t % 4 == 0:
            label = str(t)
            pos = t - window.triv_min
            for i, ch in enumerate(label):
                if pos + i < width:
                    marks[pos + i] = ch
    lines.append("      " + "".join(marks))
    legend = (f"{GLYPH_FREE} Z  {GLYPH_DOUBLED} Z (doubled lattice)  "
              f"{GLYPH_TORSION} F_2  (digits: classes per cell)")
    return "\n".join(lines + [legend]) + "\n"


def _actions(cells: Cells, max_index: int) -> list[tuple[Degree, Degree]]:
    """(source, target) degree pairs with a drawn multiplication between them."""
    pairs = []
    mults = [Monomial(1, 0)] + [vbar_monomial(i)
                                for i in range(1, max_index + 1)]
    for alpha, classes in cells.items():
        monos = {c.mono for c in classes if c.mono is not None}
        if not monos:
            continue
        for mult in mults:
            target = alpha + mult.degree()
            if target not in cells:
                continue
            hit = {c.mono for c in cells[target] if c.mono is not None}
            for m in monos:
                prod = m.times(mult)
                if prod in hit:
                    pairs.append((alpha, target))
                    break
    return sorted(set(pairs), key=lambda p: (p[0].triv, p[0].sgn,
                                             p[1].triv, p[1].sgn))


def svg_chart(cells: Cells, window: Window, max_index: int = 3) -> str:
    """One grid unit per degree, legend block above the grid."""
    unit, left, top, bottom = 18, 46, 64, 34
    cols = window.triv_max - window.triv_min + 1
    rows = window.sgn_max - window.sgn_min + 1
    width = left + cols * unit + 12
    height = top + rows * unit + bottom

    def cx(t: int) -> float:
        return left + (t - window.triv_min + 0.5) * unit

    def cy(s: int) -> float:
        return top + (window.sgn_max - s + 0.5) * unit

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}" '
           f'font-family="monospace" font-size="10">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    # grid and axes
    for i in range(cols + 1):
        x = left + i * unit
        out.append(f'<line x1="{x}" y1="{top}" x2="{x}" '
                   f'y2="{top + rows * unit}" stroke="#e0e0e0"/>')
    for j in range(rows + 1):
        y = top + j * unit
        out.append(f'<line x1="{left}" y1="{y}" x2="{left + cols * unit}" '
                   f'y2="{y}" stroke="#e0e0e0"/>')
    if window.triv_min <= 0 <= window.triv_max:
        x = left + (0 - window.triv_min) * unit
        out.append(f'<line x1="{x}" y1="{top}" x2="{x}" '
                   f'y2="{top + rows * unit}" stroke="#999"/>')
    if window.sgn_min <= 0 <= window.sgn_max:
        y = top + (window.sgn_max - 0 + 1) * unit
        out.append(f'<line x1="{left}" y1="{y}" x2="{left + cols * unit}" '
                   f'y2="{y}" stroke="#999"/>')
    for t in range(window.triv_min, window.triv_max + 1):
        if t % 2 == 0:
            out.append(f'<text x="{cx(t)}" y="{top + rows * unit + 14}" '
                       f'text-anchor="middle">{t}</text>')
    for s in range(window.sgn_min, window.sgn_max + 1):
        if s % 2 == 0:
            out.append(f'<text x="{left - 6}" y="{cy(s) + 3}" '
                       f'text-anchor="end">{s}</text>')
    # multiplication segments under the glyphs
    for src, tgt in _actions(cells, max_index):
        out.append(f'<line x1="{cx(src.triv)}" y1="{cy(src.sgn)}" '
                   f'x2="{cx(tgt.triv)}" y2="{cy(tgt.sgn)}" '
                   f'stroke="#b0b0b0" stroke-width="0.8"/>')
    # glyphs, spread inside their cell when a degree carries several
    for alpha in sorted(cells, key=lambda d: (d.triv, d.sgn)):
        classes = cells[alpha]
        if not classes or alpha not in window:
            continue
        k = len(classes)
        step = min(9.0, (unit - 6) / k) if k > 1 else 0.0
        for i, cls in enumerate(classes):
            dx = (i - (k - 1) / 2) * step
            x, y = cx(alpha.triv) + dx, cy(alpha.sgn)
            if cls.torsion:
                out.append(f'<circle cx="{x}" cy="{y}" r="2.2" fill="black"/>')
            elif cls.lattice == 2:
                out.append(f'<circle cx="{x}" cy="{y}" r="4.2" fill="white" '
                           f'stroke="black" stroke-width="1.2"/>')
            else:
                out.append(f'<rect x="{x - 3.8}" y="{y - 3.8}" width="7.6" '
                           f'height="7.6" fill="white" stroke="black" '
                           f'stroke-width="1.2"/>')
    # legend
    out.append(f'<rect x="{left}" y="14" width="7.6" height="7.6" '
               f'fill="white" stroke="black" stroke-width="1.2"/>')
    out.append(f'<text x="{left + 14}" y="22">Z</text>')
    out.append(f'<circle cx="{left + 44}" cy="18" r="4.2" fill="white" '
               f'stroke="black" stroke-width="1.2"/>')
    out.append(f'<text x="{left + 54}" y="22">Z (doubled lattice)</text>')
    out.append(f'<circle cx="{left + 190}" cy="18" r="2.2" fill="black"/>')
    out.append(f'<text x="{left + 198}" y="22">F_2</text>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
