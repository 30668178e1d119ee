"""Rendering STA results: text reports and JSON payloads.

The text report follows the shape of a classic STA tool's output —
an endpoint summary (arrival / required / slack per transition)
followed by the ranked critical paths with their per-arc Δ and delay
breakdown.  :func:`sta_payload` returns the plain-dict form embedded
in :class:`repro.api.StaRunResult` (and written by
``repro sta --json``).
"""

from __future__ import annotations

import math
from typing import Any

from ..units import to_ps
from .analysis import StaResult
from .graph import TimingNode
from .sweep import CornerSweepResult

__all__ = ["render_report", "render_sweep_summary", "sta_payload"]


def _fmt(value: float, signed: bool = False) -> str:
    """Picosecond rendering with ±inf spelled out."""
    if math.isinf(value):
        return "never" if value > 0 else "long ago"
    sign = "+" if signed else ""
    return f"{to_ps(value):{sign}.2f}"


def render_report(result: StaResult, title: str = "") -> str:
    """Render an :class:`~repro.sta.analysis.StaResult` as text.

    Parameters
    ----------
    result : StaResult
        The analysis to render.
    title : str, optional
        Heading line (defaults to a generic one).

    Returns
    -------
    str
        The multi-line report: graph summary, endpoint table,
        ranked paths.
    """
    lines = [title or f"STA report ({result.mode} analysis)"]
    lines.append(f"  {result.graph.describe()}")
    lines.append("")
    header = (f"{'endpoint':<14} {'arrival [ps]':>14} "
              f"{'required [ps]':>15} {'slack [ps]':>12}")
    lines.append(header)
    lines.append("-" * len(header))
    for node in sorted(result.graph.endpoints):
        for transition in ("rise", "fall"):
            key = TimingNode(node, transition)
            arrival = result.arrivals[key]
            required = result.required[key]
            slack = result.slacks[key]
            lines.append(
                f"{str(key):<14} {_fmt(arrival):>14} "
                f"{(_fmt(required) if math.isfinite(required) else '-'):>15} "
                f"{(_fmt(slack, signed=True) if math.isfinite(slack) else '-'):>12}")
    worst = result.worst_slack
    if math.isfinite(worst):
        lines.append(f"worst slack: {to_ps(worst):+.2f} ps")
    if result.paths:
        lines.append("")
        lines.append(f"top {len(result.paths)} critical path(s):")
        for rank, path in enumerate(result.paths, start=1):
            lines.append(f"#{rank} " + path.describe())
    return "\n".join(lines)


def render_sweep_summary(sweep: CornerSweepResult) -> str:
    """One-paragraph summary of a corner sweep's arrival spread."""
    stats = sweep.summary()
    lines = [f"corner sweep: {sweep.corners} corners "
             f"({sweep.mode} analysis)"]
    lines.append(
        "  worst endpoint arrival: "
        f"min {to_ps(stats['min']):.2f} ps, "
        f"mean {to_ps(stats['mean']):.2f} ps, "
        f"p95 {to_ps(stats['p95']):.2f} ps, "
        f"max {to_ps(stats['max']):.2f} ps")
    if sweep.required is not None:
        slack = sweep.worst_slack()
        violations = int((slack < 0.0).sum())
        lines.append(f"  violations: {violations}/{sweep.corners} "
                     f"corners below the "
                     f"{to_ps(sweep.required):.2f} ps requirement")
    return "\n".join(lines)


def sta_payload(result: StaResult,
                sweep: CornerSweepResult | None = None
                ) -> dict[str, Any]:
    """JSON-ready analysis payload (arrivals, slacks, paths, sweep).

    This is the ``analysis`` field of :class:`repro.api.StaRunResult`
    — the plain-dict form ``repro sta --json`` embeds in its result
    envelope.

    Parameters
    ----------
    result : StaResult
        The scalar analysis.
    sweep : CornerSweepResult, optional
        An accompanying corner sweep; its per-corner worst arrivals
        and summary statistics are embedded under ``"sweep"``.
    """
    payload = result.to_dict()
    if sweep is not None:
        payload["sweep"] = {
            "corners": sweep.corners,
            "mode": sweep.mode,
            "worst_arrival_s": [
                None if not math.isfinite(value) else float(value)
                for value in sweep.worst_arrival()],
            "summary_s": {
                key: (None if not math.isfinite(value)
                      else float(value))
                for key, value in sweep.summary().items()},
        }
    return payload
