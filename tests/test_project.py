import subprocess

import pytest

import vl.project as project
from vl.driver import load_program
from vl.project import Lockfile, load_manifest, resolve_dependencies

FIG5_MANIFEST = """\
[project]
name = "local"
version = "0.1.0"

[dependencies]
"https://github.com/veryl-lang/sample" = "0.1.0"
"""


def write_manifest(tmp_path, text, name="vl.toml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_fig5_manifest(tmp_path):
    m, diags = load_manifest(write_manifest(tmp_path, FIG5_MANIFEST))
    assert diags == []
    assert m.name == "local" and m.version == "0.1.0"
    assert [(d.url, d.version) for d in m.dependencies] == [("https://github.com/veryl-lang/sample", "0.1.0")]
    assert (m.clock_type, m.reset_type, m.target_dir) == ("posedge", "async_low", "target")


def test_manifest_without_dependencies(tmp_path):
    m, diags = load_manifest(write_manifest(tmp_path, '[project]\nname = "x"\nversion = "1.2.3"\n'))
    assert diags == [] and m.dependencies == []


def test_build_section(tmp_path):
    text = '[project]\nname = "x"\nversion = "0.1.0"\n\n[build]\nclock_type = "negedge"\nreset_type = "sync_high"\ntarget_dir = "out"\n'
    m, diags = load_manifest(write_manifest(tmp_path, text))
    assert diags == []
    assert (m.clock_type, m.reset_type, m.target_dir) == ("negedge", "sync_high", "out")


def test_invalid_reset_type_is_e0402(tmp_path):
    text = '[project]\nname = "x"\nversion = "0.1.0"\n\n[build]\nreset_type = "async_lo"\n'
    m, diags = load_manifest(write_manifest(tmp_path, text))
    assert [d.code for d in diags] == ["E0402"]
    assert m.reset_type == "async_low"  # falls back to the default


def test_missing_project_is_e0401(tmp_path):
    m, diags = load_manifest(write_manifest(tmp_path, '[build]\nclock_type = "posedge"\n'))
    assert m is None
    assert "E0401" in [d.code for d in diags]


def test_unknown_keys_are_w0401(tmp_path):
    text = '[project]\nname = "x"\nversion = "0.1.0"\ncolor = "red"\n\n[extra]\nfoo = "bar"\n'
    m, diags = load_manifest(write_manifest(tmp_path, text))
    assert m is not None
    assert sorted(d.code for d in diags) == ["W0401", "W0401"]


def test_bad_project_name_is_e0401(tmp_path):
    m, diags = load_manifest(write_manifest(tmp_path, '[project]\nname = "has space"\nversion = "0.1.0"\n'))
    assert m is None and [d.code for d in diags] == ["E0401"]


def test_lockfile_round_trip():
    lock, diags = Lockfile.parse("u2\t0.1.0\t" + "b" * 40 + "\tbeta\nu1\t0.2.0\t" + "a" * 40 + "\talpha\n", "vl.lock")
    assert len(lock.entries) == 2 and diags == []
    dumped = Lockfile(sorted(lock.entries, key=lambda e: e.url)).dump()
    assert dumped.startswith("u1\t") and dumped.endswith("\n")
    assert Lockfile.parse(dumped, "vl.lock")[0].dump() == dumped


# -- git fixtures ----------------------------------------------------------------


def git(*args, cwd):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


def make_repo(tmp_path, name, version="0.1.0", deps=(), module="pub module Sample () {}"):
    repo = tmp_path / f"repo_{name}"
    (repo / "src").mkdir(parents=True)
    dep_lines = "".join(f'"{url}" = "{ver}"\n' for url, ver in deps)
    manifest = f'[project]\nname = "{name}"\nversion = "{version}"\n'
    if dep_lines:
        manifest += "\n[dependencies]\n" + dep_lines
    (repo / "vl.toml").write_text(manifest)
    (repo / "src" / "main.vl").write_text(module + "\n")
    git("init", "-q", cwd=repo)
    git("add", "-A", cwd=repo)
    git("commit", "-q", "-m", "init", cwd=repo)
    git("tag", f"v{version}", cwd=repo)
    return f"file://{repo}"


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("VL_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def root_manifest(tmp_path, deps):
    text = '[project]\nname = "local"\nversion = "0.1.0"\n\n[dependencies]\n'
    text += "".join(f'"{url}" = "{ver}"\n' for url, ver in deps)
    m, diags = load_manifest(write_manifest(tmp_path, text))
    assert diags == []
    return m


def test_resolve_file_url_dependency(tmp_path, cache):
    url = make_repo(tmp_path, "sample")
    m = root_manifest(tmp_path, [(url, "0.1.0")])
    plan, lock, diags = resolve_dependencies(m)
    assert diags == []
    src, _ = plan
    assert src.name == "sample"
    assert (src.root / "src" / "main.vl").is_file()
    assert not (src.root / ".git").exists()
    (entry,) = lock.entries
    assert (entry.url, entry.version, entry.name) == (url, "0.1.0", "sample")
    assert len(entry.revision) == 40


def test_lockfile_idempotency(tmp_path, cache):
    url = make_repo(tmp_path, "sample")
    m = root_manifest(tmp_path, [(url, "0.1.0")])
    _, lock1, diags = resolve_dependencies(m)
    assert diags == []
    _, lock2, diags = resolve_dependencies(m, lock=lock1)
    assert diags == []
    assert lock1.dump() == lock2.dump()


def test_warm_cache_offline_zero_fetches(tmp_path, cache, monkeypatch):
    url = make_repo(tmp_path, "sample")
    m = root_manifest(tmp_path, [(url, "0.1.0")])
    _, lock, diags = resolve_dependencies(m)
    assert diags == []
    calls = []
    real = project._git
    monkeypatch.setattr(project, "_git", lambda *a, **k: calls.append(a) or real(*a, **k))
    plan, _, diags = resolve_dependencies(m, lock=lock, offline=True)
    assert diags == [] and len(plan) == 2
    assert calls == []


def test_offline_cold_cache_is_e0404(tmp_path, cache):
    url = make_repo(tmp_path, "sample")
    m = root_manifest(tmp_path, [(url, "0.1.0")])
    _, _, diags = resolve_dependencies(m, offline=True)
    assert [d.code for d in diags] == ["E0404"]


def test_missing_tag_is_e0403(tmp_path, cache):
    url = make_repo(tmp_path, "sample", version="0.1.0")
    m = root_manifest(tmp_path, [(url, "9.9.9")])
    _, _, diags = resolve_dependencies(m)
    assert [d.code for d in diags] == ["E0403"]


def test_transitive_dependencies(tmp_path, cache):
    leaf_url = make_repo(tmp_path, "leaf")
    mid_url = make_repo(tmp_path, "mid", deps=[(leaf_url, "0.1.0")])
    m = root_manifest(tmp_path, [(mid_url, "0.1.0")])
    plan, lock, diags = resolve_dependencies(m)
    assert diags == []
    assert [(u.name, u.deps) for u in plan] == [("leaf", []), ("mid", ["leaf"]), ("local", ["mid"])]
    assert len(lock.entries) == 2


def make_cycle(tmp_path, a_deps=()):
    """Repos a and b requesting each other (a also requests `a_deps`); returns a's url."""
    # Both repos must exist before their manifests can reference each other.
    a_dir = tmp_path / "repo_a"
    b_dir = tmp_path / "repo_b"
    a_url, b_url = f"file://{a_dir}", f"file://{b_dir}"
    for d, name, deps in ((a_dir, "a", [(b_url, "0.1.0"), *a_deps]), (b_dir, "b", [(a_url, "0.1.0")])):
        (d / "src").mkdir(parents=True)
        dep_lines = "".join(f'"{url}" = "{ver}"\n' for url, ver in deps)
        (d / "vl.toml").write_text(f'[project]\nname = "{name}"\nversion = "0.1.0"\n\n[dependencies]\n{dep_lines}')
        (d / "src" / "main.vl").write_text("pub module M () {}\n")
        git("init", "-q", cwd=d)
        git("add", "-A", cwd=d)
        git("commit", "-q", "-m", "init", cwd=d)
        git("tag", "v0.1.0", cwd=d)
    return a_url


def test_dependency_cycle_is_e0405(tmp_path, cache):
    a_url = make_cycle(tmp_path)
    m = root_manifest(tmp_path, [(a_url, "0.1.0")])
    plan, lock, diags = resolve_dependencies(m)
    # Once, at b's request of a; a, b and the root above them stay out of the plan.
    (d,) = diags
    assert d.code == "E0405" and a_url in d.message and d.span.file_id.startswith(str(cache))
    assert plan == [] and sorted(e.name for e in lock.entries) == ["a", "b"]
    assert [d.code for d in load_program(m.path).diagnostics] == ["E0405"]


def test_cycle_leaves_units_below_it_planned(tmp_path, cache):
    leaf_url = make_repo(tmp_path, "leaf")
    a_url = make_cycle(tmp_path, a_deps=[(leaf_url, "0.1.0")])
    side_url = make_repo(tmp_path / "side", "side", deps=[(a_url, "0.1.0")])
    m = root_manifest(tmp_path, [(a_url, "0.1.0"), (side_url, "0.1.0"), (leaf_url, "0.1.0")])
    plan, lock, diags = resolve_dependencies(m)
    assert [d.code for d in diags] == ["E0405"]
    assert [u.name for u in plan] == ["leaf"]
    assert sorted(e.name for e in lock.entries) == ["a", "b", "leaf", "side"]


def test_failed_request_is_resolved_once(tmp_path, cache, monkeypatch):
    d_url = make_repo(tmp_path, "ddd")
    b_url = make_repo(tmp_path / "b", "bbb", deps=[(d_url, "9.9.9")])
    c_url = make_repo(tmp_path / "c", "ccc", deps=[(d_url, "9.9.9")])
    m = root_manifest(tmp_path, [(b_url, "0.1.0"), (c_url, "0.1.0")])
    calls = []
    real = project._git
    monkeypatch.setattr(project, "_git", lambda args, **k: calls.append(args) or real(args, **k))
    plan, _, diags = resolve_dependencies(m)
    assert [d.code for d in diags] == ["E0403"]
    assert calls.count(["ls-remote", "--tags", d_url]) == 1
    assert [(u.name, u.deps) for u in plan] == [("bbb", []), ("ccc", []), ("local", ["bbb", "ccc"])]


def test_namespace_collision_is_e0406(tmp_path, cache):
    u1 = make_repo(tmp_path, "samename")
    u2 = make_repo(tmp_path / "other", "samename")
    m = root_manifest(tmp_path, [(u1, "0.1.0"), (u2, "0.1.0")])
    _, _, diags = resolve_dependencies(m)
    assert [d.code for d in diags] == ["E0406"]


def test_build_plan_fig5(tmp_path, cache):
    url = make_repo(tmp_path, "sample")
    m = root_manifest(tmp_path, [(url, "0.1.0")])
    plan, _, diags = resolve_dependencies(m)
    assert diags == []
    assert [u.name for u in plan] == ["sample", "local"]
    assert plan[-1].is_root


def test_build_plan_no_deps(tmp_path):
    m = root_manifest(tmp_path, [])
    plan, lock, diags = resolve_dependencies(m)
    assert diags == [] and [u.name for u in plan] == ["local"] and lock.entries == []


def test_build_plan_diamond(tmp_path, cache):
    d_url = make_repo(tmp_path, "ddd")
    b_url = make_repo(tmp_path / "b", "bbb", deps=[(d_url, "0.1.0")])
    c_url = make_repo(tmp_path / "c", "ccc", deps=[(d_url, "0.1.0")])
    m = root_manifest(tmp_path, [(b_url, "0.1.0"), (c_url, "0.1.0")])
    plan, _, diags = resolve_dependencies(m)
    assert diags == []
    assert [u.name for u in plan] == ["ddd", "bbb", "ccc", "local"]


def test_dependency_own_build_config(tmp_path, cache):
    repo = tmp_path / "repo_negedge"
    (repo / "src").mkdir(parents=True)
    (repo / "vl.toml").write_text(
        '[project]\nname = "negedge_lib"\nversion = "0.1.0"\n\n[build]\nclock_type = "negedge"\n'
    )
    (repo / "src" / "main.vl").write_text("pub module M () {}\n")
    git("init", "-q", cwd=repo)
    git("add", "-A", cwd=repo)
    git("commit", "-q", "-m", "init", cwd=repo)
    git("tag", "v0.1.0", cwd=repo)
    m = root_manifest(tmp_path, [(f"file://{repo}", "0.1.0")])
    plan, _, diags = resolve_dependencies(m)
    assert diags == []
    assert plan[0].manifest.clock_type == "negedge"
