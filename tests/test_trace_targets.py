"""The benchmark's traced run wraps precint's layers by module and attribute
name; a refactor that renames or moves one of them must fail here, not only
in a traced benchmark run."""

from __future__ import annotations

from pathlib import Path

import precint.cli  # noqa: F401  the tracer patches modules already imported

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer().install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
