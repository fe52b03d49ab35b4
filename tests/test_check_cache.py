"""`vl check` replays its last result on a project whose inputs did not
change (`vl.cache`, `cli.cmd_check`): a warm run gives a cold run's output
and exit code, after any change of its inputs, and an entry that cannot
serve is a miss, never an error."""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vl
from vl import cache, driver
from vl.cli import main
from vl.diagnostics import Diagnostic
from vl.tokens import Span

from helpers import make_project
from test_cli import _COMPILER_MODULES, modules_after
from test_parser import FIG1
from test_project import git, make_repo

FIXTURES = sorted((Path(__file__).parent / "fixtures" / "diag").glob("*.vl"))
MODES = ["human", "json"]
# A dependency with a warning in its own file, and a root that instantiates it.
DEP = "pub module Sample () {\n    var x: logic;\n}"
TOP = "pub module Top () {\n    inst s: sample::Sample;\n}\n"
E0311 = "module M (\n    o_x: output logic,\n) {\n    assign o_x = 4'd16; // é\n}\n"


@pytest.fixture
def check(tmp_path, monkeypatch, capsys):
    """`run(root, mode, cold=False)`: (exit code, stdout, stderr, whether the
    pipeline ran) of one in-process `vl check` on a cache root of this test;
    `cold` runs it with `check/` deleted, then puts the old `check/` back."""
    monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / "cache"))
    entries, kept = tmp_path / "cache" / "check", tmp_path / "kept"
    calls = []
    real = driver.check_program
    monkeypatch.setattr(driver, "check_program", lambda *args: calls.append(args) or real(*args))

    def run(root: Path, mode: str = "human", cold: bool = False):
        if cold:
            entries.rename(kept)
        calls.clear()
        rc = main(["check", "--format", mode, "--manifest", str(root / "vl.toml")])
        if cold:
            shutil.rmtree(entries)
            kept.rename(entries)
        return rc, *capsys.readouterr(), bool(calls)

    return run


def with_dependency(tmp_path: Path) -> Path:
    """A root project `top` over a `file://` dependency `sample` (`DEP`), locked by `vl update`."""
    url = make_repo(tmp_path, "sample", module=DEP)
    root = make_project(tmp_path, TOP, "top", "top")
    with (root / "vl.toml").open("a") as f:
        f.write(f'\n[dependencies]\n"{url}" = "0.1.0"\n')
    assert main(["update", "--manifest", str(root / "vl.toml")]) == 0
    return root


@pytest.mark.parametrize("mode", MODES)
def test_a_second_check_replays_the_first(tmp_path, check, mode):
    roots = [make_project(tmp_path, fx.read_text(), f"p_{fx.stem}", "main") for fx in FIXTURES]
    for root in [*roots, with_dependency(tmp_path)]:
        first, second = check(root, mode), check(root, mode)
        assert first[3] and not second[3], root.name
        assert second[:3] == first[:3], root.name
    assert "W0304" in first[1] + first[2] and first[0] == 0  # in the dependency's file


@pytest.mark.parametrize("mode", MODES)
def test_a_replayed_check_writes_the_same_bytes(tmp_path, monkeypatch, mode):
    root = make_project(tmp_path, E0311, "p", "main")
    monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / "cache"))
    env = dict(os.environ, PYTHONPATH=str(Path(vl.__file__).parent.parent))
    command = [sys.executable, "-m", "vl.cli", "check", "--format", mode]
    cold, warm = (subprocess.run(command, capture_output=True, env=env, cwd=root, timeout=60) for _ in range(2))
    assert cache.check_entry(root, mode).is_file()
    assert (warm.returncode, warm.stdout, warm.stderr) == (cold.returncode, cold.stdout, cold.stderr)
    assert cold.returncode == 1 and ("é".encode() in cold.stderr or mode == "json")


def test_after_each_input_change_a_check_equals_a_cold_one(tmp_path, check, monkeypatch):
    root = with_dependency(tmp_path)
    src = root / "src"
    (dep_source,) = (tmp_path / "cache").glob("*/*/src/main.vl")
    dep_manifest = dep_source.parent.parent / "vl.toml"
    repo = tmp_path / "repo_sample"

    def relock():
        """Commit another `Sample` and point `vl.lock` at it."""
        (repo / "src" / "main.vl").write_text(DEP.replace("var x", "var y"))
        git("commit", "-q", "-am", "next", cwd=repo)
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True, check=True).stdout.strip()
        lock = root / "vl.lock"
        url, version, _, name = lock.read_text().rstrip("\n").split("\t")
        lock.write_text(f"{url}\t{version}\t{head}\t{name}\n")

    def refingerprint():
        """Another vl: `check/` holds no entry of its fingerprint."""
        real = cache.entry_dir
        monkeypatch.setattr(cache, "entry_dir", lambda kind: real(kind).with_name("0" * 64))

    changes = {
        "edit a source": lambda: (src / "top.vl").write_text(TOP.replace("{\n", "{\n    var y: logic;\n")),
        "add a source": lambda: (src / "extra.vl").write_text(E0311),
        "rename a source": lambda: (src / "extra.vl").rename(src / "more.vl"),
        "delete a source": lambda: (src / "more.vl").unlink(),
        "edit a dependency's cached source": lambda: dep_source.write_text(DEP.replace("var x", "var z")),
        # Only the plan shows it: `sample::Sample` no longer resolves.
        "rename the dependency in its cached vl.toml": lambda: dep_manifest.write_text(dep_manifest.read_text().replace('"sample"', '"other"')),
        "edit vl.lock": relock,
        "edit vl.toml": lambda: (root / "vl.toml").write_text('[project]\nname = "top"\nversion = "0.1.0"\n'),
        # Its Unicode tables, which the lexer and the excerpts read, may differ.
        "another Python": lambda: monkeypatch.setattr(sys, "version", "3.99.0" + sys.version[sys.version.index(" ") :]),
        "another vl": refingerprint,
    }
    last = {mode: check(root, mode) for mode in MODES}
    for change, apply in changes.items():
        apply()
        for mode in MODES:
            warm = check(root, mode)
            assert warm[3] and warm[:3] == check(root, mode, cold=True)[:3], (change, mode)
            if change not in ("another vl", "another Python"):
                assert warm[:3] != last[mode][:3], (change, mode)  # the change shows in the output
            last[mode] = warm
    # One entry per root and format, whatever the edits.
    assert sorted(p.name for p in cache.entry_dir("check").iterdir()) == sorted(cache.check_entry(root, m).name for m in MODES)


def _truncate(entry: Path) -> None:
    entry.write_bytes(entry.read_bytes()[:-1])


def _wrong_key(entry: Path) -> None:
    entry.write_bytes(b"0" * 64 + entry.read_bytes()[64:])


def _garbage_header(entry: Path) -> None:
    entry.write_bytes(b"garbage\n" + entry.read_bytes().split(b"\n", 1)[1])


def _not_utf8(entry: Path) -> None:
    head, body = entry.read_bytes().split(b"\n", 1)
    entry.write_bytes(head + b"\n" + b"\xff" * len(body))


def _foreign_exit_code(entry: Path) -> None:
    head, body = entry.read_bytes().split(b"\n", 1)
    key, _, n_out, n_err = head.split(b" ")
    entry.write_bytes(b" ".join([key, b"2", n_out, n_err]) + b"\n" + body)


def _directory(entry: Path) -> None:
    entry.unlink()
    entry.mkdir()


def _unwritable(entry: Path, monkeypatch) -> None:
    def refuse(path, data):
        raise PermissionError(13, "Permission denied", str(path))

    entry.unlink()
    monkeypatch.setattr(Path, "write_bytes", refuse)


def _disk_full(entry: Path, monkeypatch) -> None:
    def write_half(path, data):
        with open(path, "wb") as f:
            f.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device", str(path))

    entry.unlink()
    monkeypatch.setattr(Path, "write_bytes", write_half)


def _check_is_a_file(entry: Path) -> None:
    check_dir = entry.parent.parent
    shutil.rmtree(check_dir)
    check_dir.write_text("a file, not a directory")


def _no_home(entry: Path, monkeypatch) -> None:
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("VL_CACHE_DIR")
    monkeypatch.setattr(Path, "home", no_home)


@pytest.mark.parametrize(
    "damage",
    [_truncate, _wrong_key, _garbage_header, _not_utf8, _foreign_exit_code, _directory, _unwritable, _disk_full, _check_is_a_file, _no_home],
    ids=lambda f: f.__name__[1:],
)
@pytest.mark.parametrize("mode", MODES)
def test_an_entry_that_cannot_serve_is_a_miss(tmp_path, check, monkeypatch, damage, mode):
    root = make_project(tmp_path, E0311, "p", "main")
    cold = check(root, mode)
    entry = cache.check_entry(root, mode)
    if damage in (_unwritable, _disk_full, _no_home):
        damage(entry, monkeypatch)
    else:
        damage(entry)
    got = check(root, mode)
    assert got[:3] == cold[:3] and got[3]
    assert "EIO01" not in got[1] + got[2] and "internal error" not in got[2]
    # The cold run rewrote a damaged entry; a cache that cannot hold one stays a miss.
    rewritten = damage in (_truncate, _wrong_key, _garbage_header, _not_utf8, _foreign_exit_code)
    assert check(root, mode) == (*cold[:3], not rewritten)
    if damage is _directory:
        assert entry.is_dir()
    elif damage in (_unwritable, _disk_full):
        assert not entry.exists()
    if damage not in (_check_is_a_file, _no_home):
        assert not list(entry.parent.glob("*.tmp"))  # a failed write leaves no part of an entry


def test_a_result_that_is_not_utf8_gets_no_entry(tmp_path):
    # A file id of a path that is not UTF-8 holds a lone surrogate.
    cache.store(tmp_path / "entry", "k", "", "  --> /cache/\udcff/src/main.vl:1:1\n", 0)
    assert not (tmp_path / "entry").exists()


def _warn_in_manifest(files, table):
    diags, resolved = _real_analyze(files, table)
    manifest = files[0].file_id.replace("src/main.vl", "vl.toml")
    return [*diags, Diagnostic("W0401", "a finding in a file no key covers", Span(manifest, 0, 1, 1, 1))], resolved


_real_analyze = driver.analyze_unit


@pytest.mark.parametrize("case", ["load diagnostic", "decoding diagnostic", "span outside the key"])
def test_a_check_that_reads_more_than_its_key_covers_stores_nothing(tmp_path, check, monkeypatch, case):
    root = make_project(tmp_path, FIG1, "p", "main")
    if case == "load diagnostic":
        with (root / "vl.toml").open("a") as f:
            f.write('\n[build]\nbogus = "x"\n')  # W0401
    elif case == "decoding diagnostic":
        (root / "src" / "bad.vl").write_bytes(b"// \xff\n")  # E0003
    else:
        monkeypatch.chdir(root)  # the file id `vl.toml` is read from the working directory
        monkeypatch.setattr(driver, "analyze_unit", _warn_in_manifest)
    runs = [check(root, mode) for mode in MODES for _ in range(2)]
    assert all(ran for *_, ran in runs) and runs[0] == runs[1] and runs[2] == runs[3]
    assert ("W0401" if case != "decoding diagnostic" else "E0003") in runs[0][2]
    assert not (tmp_path / "cache" / "check").exists()


def test_first_check_entry_of_a_fingerprint_prunes_stale_fingerprints(tmp_path, check):
    root = make_project(tmp_path, FIG1, "p", "main")
    days = cache.STALE_DAYS
    for kind, name, age in (("check", "stale", days + 1), ("check", "fresh", days - 1), ("fmt", "stale", days + 1)):
        (tmp_path / "cache" / kind / name).mkdir(parents=True)
        then = time.time() - age * 24 * 60 * 60
        os.utime(tmp_path / "cache" / kind / name, (then, then))
    assert check(root) == (0, "", "", True)
    assert {p.name for p in (tmp_path / "cache" / "check").iterdir()} == {"fresh", cache.entry_dir("check").name}
    assert [p.name for p in (tmp_path / "cache" / "fmt").iterdir()] == ["stale"]  # `vl fmt` prunes its own


# A warm `check` replays its entry: it loads the package layer, not the
# compiler, and no `json`, in either format, with or without a dependency.
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dependency", [False, True])
def test_warm_check_loads_no_compiler_module_and_no_json(tmp_path, mode, dependency):
    modules = modules_after(tmp_path, ["check", "--format", mode, "--manifest", "counter/vl.toml"], dependency, warm=True)
    assert not (_COMPILER_MODULES | {"json"}) & modules
    assert {"vl.project", "vl.cache"} <= modules
