"""vl benchmark: CLI wall time on seeded synthetic projects, plus a traced
in-process run for per-layer numbers.

    python3 bench/run.py --workload flat_rtl --seed 1 --seconds 40 --trace 0

Run from the repository root.  `--trace 0` runs `vl build`, `vl check`,
`vl fmt --check` and `vl doc` as subprocesses (`python -m vl.cli` on this
tree's `src/`) in rounds for `--seconds`, checks every output against the
generator's answers, and reports medians.  `--trace 1` instead calls each
layer's public functions in-process, with and without spans, and reports
per-layer time, work counts and the tracing overhead (see spans.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Scratch projects go to `.bench_work/`, span dumps to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".bench_work"
OUT = REPO / ".bench_out"

# (metric, CLI arguments) in the order each round runs them.
COMMANDS = (
    ("build_s", ["build", "--offline"]),
    ("check_s", ["check", "--offline", "--format", "json"]),
    ("fmt_check_s", ["fmt", "--check"]),
    ("doc_s", ["doc", "--offline"]),
)

# One round of the end-to-end run: the four commands, with a fresh set-up
# after each pair, so that set-up time gets twice as many samples.
ROUND = (*COMMANDS[:2], ("setup_s", None), *COMMANDS[2:], ("setup_s", None))

_GIT = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", "-c", "init.defaultBranch=main"]


def vl_env(cache: Path) -> dict[str, str]:
    """Hermetic environment: this tree's sources, a private cache, no git config."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(REPO / "src"),
        VL_CACHE_DIR=str(cache),
        GIT_CONFIG_NOSYSTEM="1",
        GIT_CONFIG_GLOBAL=os.devnull,
        GIT_AUTHOR_DATE="2024-01-01T00:00:00Z",
        GIT_COMMITTER_DATE="2024-01-01T00:00:00Z",
    )
    return env


def run_vl(args: list[str], cwd: Path, env: dict[str, str]) -> tuple[int, str, str, float, float]:
    """Run one `vl` process; returns (exit code, stdout, stderr, wall s, max RSS MB)."""
    out, err = cwd.parent / "stdout.txt", cwd.parent / "stderr.txt"
    with open(out, "wb") as so, open(err, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "vl.cli", *args], cwd=cwd, env=env, stdout=so, stderr=se)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"), wall, usage.ru_maxrss / 1024


def setup(name: str, seed: int, dest: Path, scale: int = 1):
    """Generate the workload under `dest`: dependency git repos, the root
    project, and a lockfile plus warm cache from `vl update`.  Returns
    (workload, project root, environment)."""
    from gen import WORKLOADS

    wl = WORKLOADS[name](seed, scale)
    env = vl_env(dest / "cache")
    urls = []
    for dep in wl.deps:
        repo = dest / "repos" / dep.name
        _write(repo, dep.files, dep.manifest())
        for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "v0.1.0"], ["tag", "v0.1.0"]):
            subprocess.run(_GIT + cmd, cwd=repo, env=env, check=True, capture_output=True)
        urls.append(f"file://{repo}")
    root = dest / wl.root.name
    _write(root, wl.root.files, wl.root.manifest(urls))
    rc, _, err, _, _ = run_vl(["update"], root, env)
    lock = (root / "vl.lock").read_text(encoding="utf-8") if rc == 0 else ""
    if rc != 0 or len(lock.splitlines()) != len(wl.deps):
        raise RuntimeError(f"vl update failed ({rc}): {err.strip()}")
    return wl, root, env


def _write(root: Path, files: dict[str, str], manifest: str) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (root / "vl.toml").write_text(manifest, encoding="utf-8")


def summarize(samples: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it
    when that percentile lies above the median (from 20 samples on)."""
    n = len(samples)
    line = f"median {statistics.median(samples):.4f}"
    pct = 100 * (n - 10) // n
    if pct >= 50:
        rank = -(-pct * n // 100)  # nearest rank, 1-based
        line += f"  p{pct} {sorted(samples)[rank - 1]:.4f}"
    else:
        line += "  (no tail percentile: fewer than 20 samples)"
    return line + f"  n={n}"


def run_cli(name: str, seed: int, seconds: float, svread) -> tuple[dict, int, int]:
    """End-to-end run: rounds of the four commands and two fresh set-ups for
    `seconds` (the last round stops at the first step that would not finish
    in time).  Set-ups are spread over the run like the commands, so that
    their median sees the same machine as the commands' medians do."""
    import check

    t0 = time.perf_counter()
    wl, root, env = setup(name, seed, WORK / name / "project")
    samples: dict[str, list[float]] = {"setup_s": [time.perf_counter() - t0]}
    samples.update((m, []) for m, _ in COMMANDS)
    print(f"workload {name}: {wl.source_bytes} source bytes in {sum(len(u.files) for u in [wl.root, *wl.deps])} files")
    target = root / "target"
    digests: dict[str, str] = {}
    peak_rss = 0.0
    attempted = failed = 0
    start = time.perf_counter()
    last: dict[str, float] = {}  # duration of each step's last sample, checks included
    for metric, args in itertools.cycle(ROUND):
        t0 = time.perf_counter()
        if metric in last and t0 - start + last[metric] > seconds:
            break  # the next sample would end after `seconds`
        if args is None:
            spare = WORK / name / "spare"
            setup(name, seed, spare)
            samples[metric].append(time.perf_counter() - t0)
            shutil.rmtree(spare)
            last[metric] = time.perf_counter() - t0
            continue
        shutil.rmtree(target, ignore_errors=True)
        rc, out, err, wall, rss = run_vl(args, root, env)
        samples[metric].append(wall)
        peak_rss = max(peak_rss, rss)
        if metric == "build_s":
            problems = check.check_build(wl, rc, target, svread) + check.check_human(wl, err)
            digest = check.digest_tree(target)
        elif metric == "check_s":
            problems = check.check_diags(wl, rc, out)
            digest = check.digest_text(out)
        elif metric == "fmt_check_s":
            problems = check.check_fmt(wl, rc, out)
            digest = check.digest_text(out)
        else:
            problems = check.check_doc(wl, rc, target / "doc") + check.check_human(wl, err)
            digest = check.digest_tree(target / "doc")
        if digests.setdefault(metric, digest) != digest:
            problems.append(f"{metric}: output digest changed between rounds")
        attempted += 1
        if problems:
            failed += 1
            print(f"FAILED {metric}: " + "; ".join(problems))
        last[metric] = time.perf_counter() - t0
    for metric, values in samples.items():
        print(f"{metric:12} {summarize(values)} s")
    print(f"peak_rss_mb  {peak_rss:.1f} MB")
    print(f"failed_frac  {failed}/{attempted} = {failed / attempted:.4f}")
    print("digests      " + " ".join(f"{m.removesuffix('_s')}={d[:16]}" for m, d in digests.items()))
    metrics = {m: (statistics.median(v), "s") for m, v in samples.items()}
    metrics["peak_rss_mb"] = (peak_rss, "MB")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    from gen import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    svread_dir = REPO / "tests"
    if not (REPO / "src" / "vl" / "cli.py").is_file() or not (svread_dir / "svread.py").is_file():
        print("error: run from a vl checkout: src/vl and tests/svread.py are missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(svread_dir)]
    import svread

    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  seed {args.seed}  trace {args.trace}")
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    try:
        if args.trace:
            import spans

            metrics, attempted, failed = spans.run_traced(args.workload, args.seed, args.seconds, svread, OUT)
        else:
            metrics, attempted, failed = run_cli(args.workload, args.seed, args.seconds, svread)
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
