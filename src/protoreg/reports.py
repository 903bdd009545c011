"""CSV, Markdown and SVG emitters for evaluation artifacts."""

from __future__ import annotations

import numpy as np

from .metrics import EmbeddingReport

SVG_SIZE = 480  # pixels: the embedding plot's side and the histogram's width


def embedding_csv(report: EmbeddingReport) -> str:
    return "".join(["id,kind,x,y,label\n", *(f"{pid},{kind},{x!r},{y!r},{label!r}\n"
                                              for pid, kind, x, y, label in report.points)])


def _svg_header(w, h):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n<rect width="{w}" height="{h}" fill="white"/>\n')


def _label_color(label: float, lo: float, hi: float) -> str:
    t = 0.0 if hi <= lo else (label - lo) / (hi - lo)
    r = int(40 + 200 * t)
    b = int(240 - 200 * t)
    return f"rgb({r},80,{b})"


def embedding_svg(report: EmbeddingReport) -> str:
    """Scatter of sample patches (stars -> small crosses) and prototypes (circles)."""
    pids, kinds, xs, ys, labels = zip(*report.points)
    xs, ys = np.array(xs), np.array(ys)
    pad = 30
    x_lo, y_lo = xs.min(), ys.min()
    span_x = max(xs.max() - x_lo, 1e-12)
    span_y = max(ys.max() - y_lo, 1e-12)
    pxs = (pad + (xs - x_lo) / span_x * (SVG_SIZE - 2 * pad)).tolist()
    pys = (SVG_SIZE - pad - (ys - y_lo) / span_y * (SVG_SIZE - 2 * pad)).tolist()
    lo, hi = min(labels), max(labels)
    styles = {label: (_label_color(label, lo, hi), f"{label:.2f}") for label in set(labels)}

    parts = [_svg_header(SVG_SIZE, SVG_SIZE)]
    ev1, ev2 = report.explained_variance
    parts.append(f'<text x="{pad}" y="18" font-size="12">latent 2-D PCA '
                 f'(explained variance {ev1:.2f} / {ev2:.2f})</text>\n')
    for pid, kind, px, py, label in zip(pids, kinds, pxs, pys, labels):
        color, text = styles[label]
        x, y = f"{px:.1f}", f"{py:.1f}"
        if kind == "prototype":
            parts.append(f'<circle cx="{x}" cy="{y}" r="6" fill="{color}" '
                         f'stroke="black"><title>{pid} label={text}</title></circle>\n')
        else:
            parts.append(
                f'<path d="M {px - 3:.1f} {y} L {px + 3:.1f} {y} '
                f'M {x} {py - 3:.1f} L {x} {py + 3:.1f}" stroke="{color}" '
                f'stroke-width="1.5"><title>{pid} label={text}</title></path>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def histogram_svg(histogram: np.ndarray) -> str:
    """Bar chart of top-5 membership frequency per prototype."""
    m = histogram.size
    pad = 30
    bar_w = (SVG_SIZE - 2 * pad) / m
    peak = max(histogram.max(), 1e-12)
    parts = [_svg_header(SVG_SIZE, SVG_SIZE // 2)]
    parts.append(f'<text x="{pad}" y="18" font-size="12">top-5 usage per prototype</text>\n')
    floor_y = SVG_SIZE // 2 - pad
    for j, freq in enumerate(histogram):
        h = (freq / peak) * (SVG_SIZE // 2 - 2 * pad)
        x = pad + j * bar_w
        parts.append(f'<rect x="{x:.1f}" y="{floor_y - h:.1f}" width="{bar_w * 0.8:.1f}" '
                     f'height="{h:.1f}" fill="steelblue">'
                     f'<title>prototype {j}: {freq:.4f}</title></rect>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def ablation_csv(rows: list[dict]) -> str:
    cols = ["variant", "similarity", "alpha_clst", "alpha_psd", "k", "seed",
            "mae", "accuracy", "s_spars_mean", "diversity"]
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c])
                              for c in cols))
    return "\n".join(lines) + "\n"


def ablation_markdown(rows: list[dict]) -> str:
    header = "| variant | similarity | a_clst | a_psd | k | seed | MAE | accuracy | s_spars | diversity |"
    sep = "|" + "---|" * 10
    lines = [header, sep]
    for r in rows:
        lines.append(
            f"| {r['variant']} | {r['similarity']} | {r['alpha_clst']} | {r['alpha_psd']} "
            f"| {r['k']} | {r['seed']} | {r['mae']:.3f} | {r['accuracy']:.3f} "
            f"| {r['s_spars_mean']:.2f} | {r['diversity']} |"
        )
    return "\n".join(lines) + "\n"
