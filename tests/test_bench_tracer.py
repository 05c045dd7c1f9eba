"""The benchmark's tracer still finds every library function it reports on.

`bench/tracer.py` names library functions in `LAYER_METRICS` and
`GROUPS`; renaming or deleting one of them makes `layer_metrics` raise
KeyError, which the benchmark's own tests would report only when run.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_reports_every_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import contestq.cli  # noqa: F401  the tracer reads every contestq module
    import tracer

    metrics = tracer.Tracer().layer_metrics(1, 1.0)
    assert list(metrics) == list(tracer.LAYER_METRICS)
