"""Process-global metrics registry with Prometheus text export.

Counters, gauges and fixed-bucket histograms, registered by name with
optional labels, lock-guarded, and rendered in the Prometheus text
exposition format (version 0.0.4).  One process-wide default registry
(:func:`registry`) holds the library-level instruments — engine call
counters, disk-cache read/write counters, session dispatch counters —
while components that exist many times per process (each
:class:`repro.server.ReproServer`) own a private
:class:`MetricsRegistry` and merge it into the scrape
(:func:`render_prometheus` accepts several registries).

Instrument naming follows the Prometheus conventions: ``*_total`` for
counters, base units (seconds) for histograms, labels for bounded
dimensions only (route patterns, engine names — never ids).  The full
catalog lives in ``docs/observability.md``.

Usage::

    from repro.obs import metrics

    calls = metrics.registry().counter(
        "repro_engine_calls_total", "delay-engine invocations",
        labels={"engine": "vectorized", "direction": "falling"})
    calls.inc()

    print(metrics.registry().render())    # exposition text
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "percentile",
    "registry",
    "render_prometheus",
    "validate_exposition",
]

#: Default histogram bucket upper bounds for request latencies,
#: seconds (sub-millisecond cache hits up to multi-second sweeps).
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def percentile(samples: "list[float]", q: float) -> float:
    """Nearest-rank percentile of a non-empty sample list.

    The single percentile definition of the package (the server's
    p50/p99 report and the histogram sample windows both call it).
    Edge cases are pinned by direct unit tests: a single sample is
    every percentile of itself, ``q=0`` is the minimum, ``q=100`` the
    maximum, and fractional ranks round *up* (nearest-rank), so
    ``q=1.0`` of 200 samples is the 2nd smallest.

    Parameters
    ----------
    samples : list of float
        Observations (not necessarily sorted).
    q : float
        Percentile in ``[0, 100]``.

    Returns
    -------
    float
        The nearest-rank percentile value.

    Raises
    ------
    ValueError
        On an empty sample list or a percentile outside ``[0, 100]``
        (NaN included).
    """
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(len(ordered) * q / 100.0)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


class Counter:
    """A monotonically increasing count.

    Constructed through :meth:`MetricsRegistry.counter`, never
    directly.
    """

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: "int | float" = 1) -> None:
        """Add *amount* (must be >= 0) to the counter.

        Raises
        ------
        ValueError
            If *amount* is negative (counters only go up).
        """
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depths, pool sizes)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: "int | float") -> None:
        """Set the gauge to *value*."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: "int | float" = 1) -> None:
        """Add *amount* (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: "int | float" = 1) -> None:
        """Subtract *amount* from the gauge."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution of observations.

    Tracks cumulative bucket counts, total sum and count (the
    Prometheus histogram triplet) plus — when *window* is nonzero — a
    bounded ring of the most recent raw samples from which
    :meth:`percentile` answers exactly (the server's p50/p99 report
    rides on this ring, so percentiles are not bucket-quantized).

    Constructed through :meth:`MetricsRegistry.histogram`.
    """

    kind = "histogram"

    def __init__(self, buckets=DEFAULT_LATENCY_BUCKETS,
                 window: int = 0) -> None:
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = uppers
        self._lock = threading.Lock()
        self._counts = [0] * (len(uppers) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._window: "deque[float] | None" = (
            deque(maxlen=int(window)) if window else None)

    def observe(self, value: "int | float") -> None:
        """Record one observation."""
        value = float(value)
        index = len(self.buckets)
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._window is not None:
                self._window.append(value)

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        with self._lock:
            return self._sum

    def samples(self) -> "list[float]":
        """The raw recent-sample window (empty without a window)."""
        with self._lock:
            return list(self._window) if self._window else []

    def percentile(self, q: float) -> "float | None":
        """Exact nearest-rank percentile of the recent-sample window.

        Parameters
        ----------
        q : float
            Percentile in ``[0, 100]``.

        Returns
        -------
        float or None
            ``None`` when the window is empty (or disabled) — the
            caller decides how to render "no data yet", it is never
            an exception here.
        """
        window = self.samples()
        if not window:
            return None
        return percentile(window, q)

    def snapshot(self) -> dict:
        """Cumulative bucket counts, sum and count as a plain dict."""
        with self._lock:
            counts = list(self._counts)
            total, cumulative = self._count, []
            running = 0
            for value in counts:
                running += value
                cumulative.append(running)
            return {"buckets": dict(zip(self.buckets, cumulative)),
                    "sum": self._sum, "count": total}


class _Family:
    """All children (label sets) of one metric name."""

    __slots__ = ("name", "kind", "help", "buckets", "window",
                 "children")

    def __init__(self, name, kind, help_text, buckets=None,
                 window=0):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.window = window
        self.children: "dict[tuple, object]" = {}

    def _child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS,
                         window=self.window)


class MetricsRegistry:
    """A named collection of instruments, rendered for Prometheus.

    The process-global instance (:func:`registry`) backs the
    library-level instruments; per-component registries (one per
    server) keep multi-instance counters separable.  All operations
    are thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "dict[str, _Family]" = {}

    # ------------------------------------------------------------------
    # instrument access
    # ------------------------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str,
                buckets=None, window: int = 0) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name: {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets,
                                 window)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a "
                    f"{kind}")
            return family

    @staticmethod
    def _label_key(labels: "dict[str, str] | None") -> tuple:
        if not labels:
            return ()
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"bad label name: {key!r}")
        return tuple(sorted((str(k), str(v))
                            for k, v in labels.items()))

    def _instrument(self, name, kind, help_text, labels,
                    buckets=None, window=0):
        family = self._family(name, kind, help_text, buckets, window)
        key = self._label_key(labels)
        with self._lock:
            child = family.children.get(key)
            if child is None:
                child = family.children[key] = family._child()
            return child

    def counter(self, name: str, help_text: str = "",
                labels: "dict[str, str] | None" = None) -> Counter:
        """Get-or-create the counter *name* for one label set.

        Parameters
        ----------
        name : str
            Metric name (Prometheus conventions: ``*_total``).
        help_text : str, optional
            One-line description (first registration wins).
        labels : dict, optional
            Label name -> value; each distinct set is its own child.
        """
        return self._instrument(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: "dict[str, str] | None" = None) -> Gauge:
        """Get-or-create the gauge *name* for one label set."""
        return self._instrument(name, "gauge", help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: "dict[str, str] | None" = None,
                  buckets=DEFAULT_LATENCY_BUCKETS,
                  window: int = 0) -> Histogram:
        """Get-or-create the histogram *name* for one label set.

        Parameters
        ----------
        name : str
            Metric name (base units; seconds for latencies).
        help_text : str, optional
            One-line description.
        labels : dict, optional
            Label name -> value.
        buckets : sequence of float, optional
            Bucket upper bounds (default: the latency buckets).
        window : int, optional
            Bound of the raw recent-sample ring for exact
            percentiles; ``0`` disables it.
        """
        return self._instrument(name, "histogram", help_text, labels,
                                buckets=buckets, window=window)

    def get(self, name: str) -> "dict[tuple, object] | None":
        """The children of family *name* (label key -> instrument),
        or ``None`` for an unknown name."""
        with self._lock:
            family = self._families.get(name)
            return dict(family.children) if family else None

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    @staticmethod
    def _escape(value: str) -> str:
        return (value.replace("\\", r"\\").replace("\n", r"\n")
                .replace('"', r'\"'))

    @classmethod
    def _label_text(cls, key: tuple, extra: str = "") -> str:
        parts = [f'{name}="{cls._escape(value)}"'
                 for name, value in key]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    @staticmethod
    def _number(value: float) -> str:
        if value == math.inf:
            return "+Inf"
        if value == -math.inf:
            return "-Inf"
        if float(value).is_integer() and abs(value) < 1e15:
            return str(int(value))
        return repr(float(value))

    def render(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: "list[str]" = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            help_text = family.help or name
            lines.append(f"# HELP {name} "
                         + help_text.replace("\\", r"\\")
                         .replace("\n", r"\n"))
            lines.append(f"# TYPE {name} {family.kind}")
            children = sorted(family.children.items())
            for key, instrument in children:
                labels = self._label_text(key)
                if family.kind in ("counter", "gauge"):
                    lines.append(
                        f"{name}{labels} "
                        f"{self._number(instrument.value)}")
                    continue
                snap = instrument.snapshot()
                for upper, cumulative in snap["buckets"].items():
                    le = self._label_text(
                        key, f'le="{self._number(upper)}"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                inf = self._label_text(key, 'le="+Inf"')
                lines.append(f"{name}_bucket{inf} {snap['count']}")
                lines.append(f"{name}_sum{labels} "
                             f"{self._number(snap['sum'])}")
                lines.append(f"{name}_count{labels} "
                             f"{snap['count']}")
        return "\n".join(lines) + "\n" if lines else ""


#: The process-global default registry.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global default registry."""
    return REGISTRY


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Concatenate several registries into one exposition document.

    Parameters
    ----------
    *registries : MetricsRegistry
        Rendered in order (no default); the server passes the global
        registry plus its own.

    Returns
    -------
    str
        Valid Prometheus text exposition (0.0.4).
    """
    return "".join(reg.render() for reg in registries)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?\s+"
    r"(?P<value>[+-]?(?:Inf|NaN|[0-9.eE+-]+))\s*$")
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def validate_exposition(text: str) -> "dict[str, int]":
    """Validate Prometheus text exposition format, strictly.

    Used by the tests and the CI scrape smoke: every non-comment line
    must be a well-formed sample, every sample's metric name must
    follow a matching ``# TYPE`` header, and label pairs must parse.

    Parameters
    ----------
    text : str
        An exposition document (e.g. the ``GET /v1/metrics`` body).

    Returns
    -------
    dict of str to int
        Metric family name -> number of sample lines.

    Raises
    ------
    ValueError
        On the first malformed line, with its line number.
    """
    types: "dict[str, str]" = {}
    counts: "dict[str, int]" = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary",
                    "untyped"):
                raise ValueError(f"line {number}: bad TYPE: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            if not line.startswith("# HELP "):
                raise ValueError(
                    f"line {number}: unknown comment: {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {number}: bad sample: {line!r}")
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if (name.endswith(suffix)
                    and name[:-len(suffix)] in types):
                family = name[:-len(suffix)]
                break
        if family not in types:
            raise ValueError(
                f"line {number}: sample {name!r} has no TYPE header")
        labels = match.group("labels")
        if labels:
            body = labels[1:-1]
            if body:
                for pair in re.split(r',(?=[a-zA-Z_])', body):
                    if not _LABEL_PAIR_RE.match(pair):
                        raise ValueError(
                            f"line {number}: bad label pair "
                            f"{pair!r}")
        counts[family] = counts.get(family, 0) + 1
    return counts
