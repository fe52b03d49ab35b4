"""The traced pass of the benchmark harness (`bench/spans.py`) reaches the
program through the functions named in `PATCHES` and the result attributes
`work_counts` reads; a rename on either side fails here, not only in a
`bench/run.py --trace 1` run."""

import importlib
from pathlib import Path

from test_parser import FIG1

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_pass_records_every_span_and_counter(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    root = tmp_path / "p"
    (root / "src").mkdir(parents=True)
    (root / "vl.toml").write_text('[project]\nname = "p"\nversion = "0.1.0"\n')
    (root / "src" / "counter.vl").write_text(FIG1.replace("module Counter", "pub module Counter"))
    tracer = spans.Tracer(True)
    with tracer.patched():
        got = spans.run_pass(root, tmp_path / "out", tracer)
    assert got["result"].ok and got["written"] and got["pages"]
    assert {span for _, _, span, _ in spans.PATCHES} <= {s[0] for s in tracer.spans}
    counts = spans.work_counts(got) | tracer.counts
    # `project.git_calls` comes from the git seam, which a pass without dependencies never calls.
    wanted = {key for key, _ in spans.COUNTS} - {"project.git_calls"} | {key for *_, key in spans.PER_BYTE}
    assert wanted <= set(counts)
