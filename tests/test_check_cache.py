"""`vl check`, `vl build` and `vl doc` replay their last result on a project
whose inputs did not change (`vl.cache`, `cli.cmd_compile`): a warm run
gives a cold run's output files, output and exit code, after any change of
its inputs, and an entry that cannot serve is a miss, never an error."""

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
COMMANDS = ["check", "build", "doc"]
# A dependency with a warning in its own file, and a root that instantiates it.
DEP = "pub module Sample () {\n    var x: logic;\n}"
TOP = "pub module Top () {\n    inst s: sample::Sample;\n}\n"
E0311 = "module M (\n    o_x: output logic,\n) {\n    assign o_x = 4'd16; // é\n}\n"
# A warning and no error: `build` writes `.sv` files and `doc` its pages.
W0304 = "/// A module with a finding.\npub module M (\n    o_x: output logic,\n) {\n    var unused: logic; // é\n    assign o_x = 1'b0;\n}\n"


def tree(out_root: Path) -> dict[str, bytes]:
    """The bytes of each file under `out_root`, by its path relative to it."""
    return {str(p.relative_to(out_root)): p.read_bytes() for p in sorted(out_root.rglob("*")) if p.is_file()}


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """`run(command, root, mode="human", cold=False, out=None)`:
    ((exit code, stdout, stderr, output tree), whether the pipeline ran) of
    one in-process `vl <command>` on a cache root of this test.  The out
    root, `out` or the project's `target/`, is deleted first.  `cold` runs
    it with `<command>/` deleted, then puts the old `<command>/` back."""
    monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / "cache"))
    kept = tmp_path / "kept"
    calls = []
    real = driver.check_program
    monkeypatch.setattr(driver, "check_program", lambda *args: calls.append(args) or real(*args))

    def run_one(command: str, root: Path, mode: str = "human", cold: bool = False, out: Path | None = None):
        entries = tmp_path / "cache" / command
        out_root = out or root / "target"
        shutil.rmtree(out_root, ignore_errors=True)
        if cold:
            entries.rename(kept)
        calls.clear()
        rc = main([command, "--format", mode, "--manifest", str(root / "vl.toml"), *(["--out", str(out)] if out else [])])
        if cold:
            shutil.rmtree(entries, ignore_errors=True)
            kept.rename(entries)
        return (rc, *capsys.readouterr(), tree(out_root)), bool(calls)

    return run_one


def with_dependency(tmp_path: Path) -> Path:
    """A root project `top` over a `file://` dependency `sample` (`DEP`), locked by `vl update`."""
    url = make_repo(tmp_path, "sample", module=DEP)
    root = make_project(tmp_path, TOP, "top", "top")
    with (root / "vl.toml").open("a") as f:
        f.write(f'\n[dependencies]\n"{url}" = "0.1.0"\n')
    assert main(["update", "--manifest", str(root / "vl.toml")]) == 0
    return root


@pytest.mark.parametrize("mode", MODES)
def test_a_second_check_replays_the_first(tmp_path, run, mode):
    roots = [make_project(tmp_path, fx.read_text(), f"p_{fx.stem}", "main") for fx in FIXTURES]
    for root in [*roots, with_dependency(tmp_path)]:
        for command in COMMANDS:
            (first, ran), (second, ran_again) = run(command, root, mode), run(command, root, mode)
            assert ran and not ran_again, (root.name, command)
            assert second == first, (root.name, command)  # the replayed tree is the cold one, byte for byte
    builds, docs = (run(command, root, mode)[0] for command in ("build", "doc"))
    assert "W0304" in first[1] + first[2] and first[0] == 0  # in the dependency's file
    assert {"sv/top.sv", "sv/sample/main.sv", "name_map.json"} == set(builds[3])
    assert {"doc/index.html", "doc/Top.md"} <= set(docs[3])


@pytest.mark.parametrize("mode", MODES)
def test_a_replayed_check_writes_the_same_bytes(tmp_path, monkeypatch, mode):
    monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / "cache"))
    env = dict(os.environ, PYTHONPATH=str(Path(vl.__file__).parent.parent))
    for command, source in (("check", E0311), ("build", W0304), ("doc", W0304)):
        root = make_project(tmp_path / command, source, "p", "main")
        argv = [sys.executable, "-m", "vl.cli", command, "--format", mode]

        def cli():
            shutil.rmtree(root / "target", ignore_errors=True)
            proc = subprocess.run(argv, capture_output=True, env=env, cwd=root, timeout=60)
            return proc.returncode, proc.stdout, proc.stderr, tree(root / "target")

        cold, warm = cli(), cli()
        assert cache.run_entry(command, root, mode).is_file()
        assert warm == cold
        assert cold[0] == (1 if command == "check" else 0) and ("é".encode() in cold[2] or mode == "json")
        assert bool(cold[3]) == (command != "check")


def test_after_each_input_change_a_check_equals_a_cold_one(tmp_path, run, monkeypatch):
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
        """Another vl: no directory holds an entry of its fingerprint."""
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
    runs = [(command, mode) for command in COMMANDS for mode in MODES]
    last = {(command, mode): run(command, root, mode)[0] for command, mode in runs}
    for change, apply in changes.items():
        apply()
        for command, mode in runs:
            warm, ran = run(command, root, mode)
            assert ran and warm == run(command, root, mode, cold=True)[0], (change, command, mode)
            if change not in ("another vl", "another Python"):
                assert warm != last[command, mode], (change, command, mode)  # the change shows in the output
            last[command, mode] = warm
    # One entry per command, root and format, whatever the edits.
    for command in COMMANDS:
        got = sorted(p.name for p in cache.entry_dir(command).iterdir())
        assert got == sorted(cache.run_entry(command, root, m).name for m in MODES), command


def test_a_replay_writes_under_the_out_it_is_given(tmp_path, run):
    root = make_project(tmp_path, W0304, "p", "main")
    for command in ("build", "doc"):
        cold, _ = run(command, root)
        shutil.rmtree(root / "target")
        for out in (tmp_path / "elsewhere", tmp_path / "deeper" / "out"):
            warm, ran = run(command, root, out=out)
            assert warm == cold and not ran, (command, out)
            assert not (root / "target").exists()


def test_a_build_with_errors_replays_no_sv_and_a_doc_its_pages(tmp_path, run):
    root = make_project(tmp_path, "/// Doc.\npub " + E0311, "p", "main")
    for mode in MODES:
        (build, _), (warm_build, ran_build) = run("build", root, mode), run("build", root, mode)
        (doc, _), (warm_doc, ran_doc) = run("doc", root, mode), run("doc", root, mode)
        assert not ran_build and not ran_doc
        assert warm_build == build and build[0] == 1 and build[3] == {}
        assert warm_doc == doc and doc[0] == 1 and {"doc/M.html", "doc/index.md"} <= set(doc[3])


@pytest.mark.parametrize("mode", MODES)
def test_an_unwritable_out_root_is_one_eio01_and_stores_nothing(tmp_path, run, mode):
    root = make_project(tmp_path, W0304, "p", "main")
    blocked = tmp_path / "a_file"
    blocked.write_text("not a directory")
    for command in ("build", "doc"):
        cold, _ = run(command, root, mode)
        entry = cache.run_entry(command, root, mode)
        stored = entry.read_bytes()
        # Warm: the replay cannot write, so it runs cold and reports the failure.
        warm, ran = run(command, root, mode, out=blocked / "out")
        assert ran and warm[0] == 2 and (warm[1] + warm[2]).count("EIO01") == 1, command
        assert "W0304" in warm[1] + warm[2]
        assert entry.read_bytes() == stored  # an EIO01 run replaces no entry
        # Cold: an EIO01 run stores nothing, so the next run is cold too.
        entry.unlink()
        assert run(command, root, mode, out=blocked / "out")[0][:3] == warm[:3]
        assert not entry.exists()
        assert run(command, root, mode) == (cold, True)


def test_a_damaged_output_in_a_build_entry_is_a_miss(tmp_path, run):
    root = make_project(tmp_path, FIG1, "p", "main")
    cold, _ = run("build", root)
    entry = cache.run_entry("build", root, "human")
    data = bytearray(entry.read_bytes())
    at = data.index(b"endmodule")
    data[at] ^= 0x20  # `Endmodule`: the sizes still add up
    entry.write_bytes(bytes(data))
    assert run("build", root) == (cold, True)
    assert cold[0] == 0 and "sv/main.sv" in cold[3]
    assert run("build", root) == (cold, False)  # the cold run stored a sound entry


def test_an_entry_holds_the_texts_its_run_wrote_not_what_is_on_disk_after(tmp_path, run, monkeypatch):
    # Another run on the same out root rewrites an output after this run wrote it.
    root = make_project(tmp_path, "/// Doc.\n" + FIG1, "p", "main")
    for command, name, step in (("build", "sv/main.sv", "emit_program"), ("doc", "doc/index.html", "doc_program")):
        real = getattr(driver, step)

        def then_overwritten(result, out_root):
            got = real(result, out_root)
            (out_root / name).write_text("another run's output\n")
            return got

        monkeypatch.setattr(driver, step, then_overwritten)
        raced, _ = run(command, root)
        monkeypatch.setattr(driver, step, real)
        assert raced[3][name] == b"another run's output\n"
        warm, ran = run(command, root)
        assert not ran and warm == run(command, root, cold=True)[0], command


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
    rc, sizes = body.split(b" ", 1)
    entry.write_bytes(head + b"\n" + b"2 " + sizes)


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
    command_dir = entry.parent.parent
    shutil.rmtree(command_dir)
    command_dir.write_text("a file, not a directory")


def _no_home(entry: Path, monkeypatch) -> None:
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("VL_CACHE_DIR", raising=False)
    monkeypatch.setattr(Path, "home", no_home)


@pytest.mark.parametrize(
    "damage",
    [_truncate, _wrong_key, _garbage_header, _not_utf8, _foreign_exit_code, _directory, _unwritable, _disk_full, _check_is_a_file, _no_home],
    ids=lambda f: f.__name__[1:],
)
@pytest.mark.parametrize("mode", MODES)
def test_an_entry_that_cannot_serve_is_a_miss(tmp_path, run, monkeypatch, damage, mode):
    roots = {"check": make_project(tmp_path, E0311, "p", "main"), "build": make_project(tmp_path, W0304, "q", "main")}
    roots["doc"] = roots["build"]
    cold = {command: run(command, roots[command], mode)[0] for command in COMMANDS}
    entries = {command: cache.run_entry(command, roots[command], mode) for command in COMMANDS}
    for entry in entries.values():
        if damage in (_unwritable, _disk_full, _no_home):
            damage(entry, monkeypatch)
        else:
            damage(entry)
    # The cold run rewrote a damaged entry; a cache that cannot hold one stays a miss.
    rewritten = damage in (_truncate, _wrong_key, _garbage_header, _not_utf8, _foreign_exit_code)
    for command, entry in entries.items():
        got, ran = run(command, roots[command], mode)
        assert got == cold[command] and ran, command
        assert "EIO01" not in got[1] + got[2] and "internal error" not in got[2]
        assert run(command, roots[command], mode) == (cold[command], not rewritten), command
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


def test_a_result_of_exit_code_2_gets_no_entry(tmp_path):
    # An output or config failure lies outside what the key covers.
    cache.store(tmp_path / "entry", "k", "", "error[EIO01]: cannot write target/sv/main.sv\n", 2, [("sv/top.sv", "module top;\nendmodule\n")])
    assert not (tmp_path / "entry").exists()
    cache.store(tmp_path / "entry", "k", "", "", 1, [("sv/top.sv", "module top;\nendmodule\n")])
    assert cache.replay(tmp_path / "entry", "k") == ("", "", 1, [("sv/top.sv", "module top;\nendmodule\n")])


def _warn_in_manifest(files, table):
    diags, resolved = _real_analyze(files, table)
    manifest = files[0].file_id.replace("src/main.vl", "vl.toml")
    return [*diags, Diagnostic("W0401", "a finding in a file no key covers", Span(manifest, 0, 1, 1, 1))], resolved


_real_analyze = driver.analyze_unit


@pytest.mark.parametrize("case", ["load diagnostic", "decoding diagnostic", "span outside the key"])
def test_a_check_that_reads_more_than_its_key_covers_stores_nothing(tmp_path, run, monkeypatch, case):
    root = make_project(tmp_path, FIG1, "p", "main")
    if case == "load diagnostic":
        with (root / "vl.toml").open("a") as f:
            f.write('\n[build]\nbogus = "x"\n')  # W0401
    elif case == "decoding diagnostic":
        (root / "src" / "bad.vl").write_bytes(b"// \xff\n")  # E0003
    else:
        monkeypatch.chdir(root)  # the file id `vl.toml` is read from the working directory
        monkeypatch.setattr(driver, "analyze_unit", _warn_in_manifest)
    for command in COMMANDS:
        runs = [run(command, root, mode) for mode in MODES for _ in range(2)]
        assert all(ran for _, ran in runs) and runs[0] == runs[1] and runs[2] == runs[3], command
        assert ("W0401" if case != "decoding diagnostic" else "E0003") in runs[0][0][2]
        assert not (tmp_path / "cache" / command).exists()


def test_first_check_entry_of_a_fingerprint_prunes_stale_fingerprints(tmp_path, run):
    root = make_project(tmp_path, FIG1, "p", "main")
    days = cache.STALE_DAYS
    for kind in [*COMMANDS, "fmt"]:
        for name, age in (("stale", days + 1), ("fresh", days - 1)):
            (tmp_path / "cache" / kind / name).mkdir(parents=True)
            then = time.time() - age * 24 * 60 * 60
            os.utime(tmp_path / "cache" / kind / name, (then, then))
    for command in COMMANDS:
        assert run(command, root)[0][:3] == (0, "", "")
        assert {p.name for p in (tmp_path / "cache" / command).iterdir()} == {"fresh", cache.entry_dir(command).name}
    assert {p.name for p in (tmp_path / "cache" / "fmt").iterdir()} == {"stale", "fresh"}  # `vl fmt` prunes its own


def test_a_module_rewritten_with_its_old_size_and_time_is_another_fingerprint(tmp_path, monkeypatch):
    monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / "cache"))
    package = tmp_path / "vl"
    shutil.copytree(Path(vl.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cache, "__file__", str(package / "cache.py"))
    first = cache.entry_dir("build")
    assert cache.entry_dir("build") == first and first.parent == tmp_path / "cache" / "build"
    module = package / "tokens.py"
    text, old = module.read_text(), module.stat()
    time.sleep(0.05)  # past the file system's coarsest timestamp step
    module.write_text(text.replace("Span", "Spam", 1))
    os.utime(module, ns=(old.st_atime_ns, old.st_mtime_ns))
    assert module.stat().st_size == old.st_size and module.stat().st_mtime_ns == old.st_mtime_ns
    assert cache.entry_dir("build") not in (first, None)


# A warm `check`, `build` or `doc` replays its entry: it loads the package
# layer, not the compiler, and no `json`, in either format, with or without a
# dependency.
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dependency", [False, True])
def test_warm_check_loads_no_compiler_module_and_no_json(tmp_path, mode, dependency):
    for command in COMMANDS:
        (tmp_path / command).mkdir()
        modules = modules_after(tmp_path / command, [command, "--format", mode, "--manifest", "counter/vl.toml"], dependency, warm=True)
        assert not (_COMPILER_MODULES | {"json"}) & modules, command
        assert {"vl.project", "vl.cache"} <= modules
        assert (tmp_path / command / "counter" / "target").is_dir() == (command != "check")
