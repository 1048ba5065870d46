"""Rendering helpers for experiment output.

The paper presents results as per-benchmark bar charts; the textual
equivalents here are fixed-width tables with one row per benchmark and an
arithmetic-mean summary row.
"""

from __future__ import annotations

__all__ = ["render_table", "render_delta_table"]


def render_table(title: str, benchmarks: list[str],
                 columns: dict[str, dict[str, float]],
                 precision: int = 3, unit: str = "misp/KI") -> str:
    """Render ``columns[config][benchmark] -> value`` as an ASCII table."""
    names = list(columns)
    width = max(12, *(len(name) + 2 for name in names))
    bench_width = max(10, *(len(name) + 2 for name in benchmarks))
    lines = [f"{title}  ({unit})"]
    header = "".join([f"{'benchmark':<{bench_width}}"]
                     + [f"{name:>{width}}" for name in names])
    lines.append(header)
    lines.append("-" * len(header))
    for benchmark in benchmarks:
        row = [f"{benchmark:<{bench_width}}"]
        for name in names:
            row.append(f"{columns[name][benchmark]:>{width}.{precision}f}")
        lines.append("".join(row))
    lines.append("-" * len(header))
    mean_row = [f"{'amean':<{bench_width}}"]
    for name in names:
        values = [columns[name][benchmark] for benchmark in benchmarks]
        mean_row.append(f"{sum(values) / len(values):>{width}.{precision}f}")
    lines.append("".join(mean_row))
    return "\n".join(lines)


def render_delta_table(title: str, benchmarks: list[str],
                       base: dict[str, dict[str, float]],
                       other: dict[str, dict[str, float]],
                       precision: int = 3) -> str:
    """Render ``other - base`` per configuration and benchmark (the Fig 6
    "additional mispredictions" presentation)."""
    deltas = {
        name: {benchmark: other[name][benchmark] - base[name][benchmark]
               for benchmark in benchmarks}
        for name in base
    }
    return render_table(title, benchmarks, deltas, precision,
                        unit="additional misp/KI")

