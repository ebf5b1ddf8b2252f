"""Plain-text rendering of paper-style tables and figure series.

:func:`render_figure5` and :func:`render_figure6` render the
``figure5`` / ``figure6`` view bodies (:mod:`repro.experiments.
aggregate`).  They show only the depths, benchmarks and configurations
present, so a slice of the grid renders too; a missing cell shows ``-``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.experiments.plan import CONFIGURATIONS

#: Figure 6's column label for each configuration.
FIGURE6_LABELS = {
    "baseline": "2-level gskew",
    "current": "arvi current",
    "load back": "arvi load back",
    "perfect": "arvi perfect",
}


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 *, title: str | None = None,
                 float_format: str = "{:.3f}") -> str:
    """Render an aligned text table (the harness's figure output format)."""
    rendered_rows = [
        [
            float_format.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                         for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_line(list(headers)))
    lines.append(fmt_line(["-" * w for w in widths]))
    lines.extend(fmt_line(row) for row in rendered_rows)
    return "\n".join(lines)


SPECULATION_HEADERS = (
    "benchmark", "config", "depth", "speculation", "IPC", "accuracy",
    "wrong-path", "wp/commit", "rollbacks", "wp fills",
)


def speculation_row(result) -> list[object]:
    """One table row surfacing a result's wrong-path/pollution counters.

    ``result`` is any :class:`~repro.pipeline.stats.SimulationResult`-like
    object; redirect-mode rows simply show zeros, so grids mixing both
    speculation modes render uniformly.  (``squashed_tokens`` is omitted:
    today every wrong-path instruction allocates exactly one DDT entry,
    so it duplicates the wrong-path column — the engine tests assert
    that invariant.)
    """
    return [
        result.benchmark, result.configuration, result.pipeline_depth,
        result.speculation, result.ipc, result.prediction_accuracy,
        result.wrong_path_instructions, result.wrong_path_ratio,
        result.rollbacks, result.wrong_path_fills,
    ]


def arithmetic_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _cell(value) -> object:
    return "-" if value is None else value


def render_figure5(view: dict) -> str:
    """Figure 5 from a ``figure5`` view body.

    (a) is the load-branch fraction per benchmark and depth; (b) the
    accuracy of load vs calculated branches, which the view takes at the
    shallowest depth each benchmark ran.
    """
    rates = view["load_rates"]
    depths = sorted({int(depth) for row in rates.values() for depth in row})
    fig_a = format_table(
        ["benchmark"] + [f"{depth}-cycle" for depth in depths],
        [[bench] + [_cell(row.get(str(depth))) for depth in depths]
         for bench, row in sorted(rates.items())],
        title="Figure 5(a): fraction of load branches")
    shallowest = f" ({depths[0]}-stage)" if depths else ""
    fig_b = format_table(
        ["benchmark", "load branch", "calc branch"],
        [[bench, split["load"], split["calculated"]]
         for bench, split in sorted(view["accuracy"].items())],
        title=f"Figure 5(b): prediction accuracy by class{shallowest}")
    return f"{fig_a}\n\n{fig_b}"


def render_figure6(view: dict, depth: int) -> str:
    """One depth of Figure 6 from a ``figure6`` view body: accuracy and
    baseline-normalized IPC per benchmark, with the suite average."""
    cells = view["depths"].get(str(depth), {})
    configs = [config for config in CONFIGURATIONS
               if any(config in row for row in cells.values())]
    headers = ["benchmark"] + [FIGURE6_LABELS[config] for config in configs]

    def rows(field: str) -> list[list[object]]:
        return [[bench] + [_cell(row.get(config, {}).get(field))
                           for config in configs]
                for bench, row in sorted(cells.items())]

    means = view["mean_normalized_ipc"].get(str(depth), {})
    acc = format_table(
        headers, rows("accuracy"),
        title=f"Figure 6: prediction accuracy, {depth}-stage",
        float_format="{:.4f}")
    ipc = format_table(
        headers, rows("normalized_ipc")
        + [["average"] + [_cell(means.get(config)) for config in configs]],
        title=f"Figure 6: normalized IPC, {depth}-stage")
    return f"{acc}\n\n{ipc}"
