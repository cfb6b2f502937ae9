"""Per-rule tests for repro-lint: each rule fires on a minimal bad
snippet and stays quiet on the corresponding good one."""

import json
import textwrap

import pytest

from repro.sanitize.lint import (
    RULES,
    filter_baselined,
    lint_paths,
    lint_source,
    load_baseline,
    main,
    write_baseline,
)

# Paths chosen so the path-scoped rules apply.
DRIVER = "src/repro/experiments/exp_fake.py"
SYNC = "src/repro/sync/fake.py"
SRC = "src/repro/fake.py"
TEST = "tests/fake_test.py"


def _rules(source, path=SRC):
    return [v.rule for v in lint_source(textwrap.dedent(source), path)]


class TestSAN101:
    def test_fires_on_bare_sync_call(self):
        assert _rules("def f(g):\n    g.sync(0, 0)\n") == ["SAN101"]
        assert _rules("def f(g):\n    g.arrive(0, 0)\n") == ["SAN101"]
        assert _rules("def f(g):\n    g.wait(0, 0)\n") == ["SAN101"]

    def test_quiet_on_yield_from(self):
        assert _rules("def f(g):\n    yield from g.sync(0, 0)\n") == []

    def test_quiet_on_exempt_receivers(self):
        assert _rules("import os\ndef f():\n    os.wait()\n") == []
        assert _rules("def f(proc):\n    proc.wait()\n") == []


class TestSAN102:
    def test_fires_on_inline_timeout_in_sync_code(self):
        src = "def wait(self):\n    yield Timeout(5.0)\n"
        assert _rules(src, SYNC) == ["SAN102"]

    def test_quiet_on_named_timeout_constant(self):
        assert _rules("def wait(self):\n    yield self._t_arrive\n", SYNC) == []

    def test_quiet_outside_sync_package(self):
        assert _rules("def f():\n    yield Timeout(5.0)\n", SRC) == []


class TestSAN104:
    def test_fires_on_wall_clock_in_driver(self):
        src = "import time\ndef run_x(s):\n    t = time.time()\n"
        assert _rules(src, DRIVER) == ["SAN104"]
        src2 = "import time\ndef run_x(s):\n    time.sleep(1)\n"
        assert "SAN104" in _rules(src2, DRIVER)

    def test_quiet_outside_drivers(self):
        src = "import time\ndef f():\n    return time.time()\n"
        assert _rules(src, SRC) == []

    def test_quiet_on_engine_time(self):
        assert _rules("def run_x(s):\n    t = engine.now\n", DRIVER) == []


class TestSAN105:
    def test_fires_on_bare_random(self):
        assert _rules("import random\nx = random.random()\n") == ["SAN105"]
        assert "SAN105" in _rules("import numpy as np\nx = np.random.rand(3)\n")

    def test_quiet_on_seeded_generator(self):
        assert _rules("import numpy as np\nr = np.random.default_rng(7)\n") == []

    def test_quiet_outside_src(self):
        assert _rules("import random\nx = random.random()\n", TEST) == []


class TestSAN106:
    def test_fires_on_prefixed_extras_key(self):
        assert _rules("def f(s):\n    return s.extra('extra.n')\n") == ["SAN106"]
        assert _rules("def f(s):\n    return s.extra_float('extra.n')\n") == ["SAN106"]

    def test_quiet_on_stripped_key(self):
        assert _rules("def f(s):\n    return s.extra('n')\n") == []


class TestSAN107:
    def test_fires_on_swallowed_exception(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert _rules(src) == ["SAN107"]
        assert _rules("try:\n    f()\nexcept:\n    pass\n") == ["SAN107"]

    def test_quiet_when_narrowed_or_handled(self):
        assert _rules("try:\n    f()\nexcept OSError:\n    pass\n") == []
        src = "try:\n    f()\nexcept Exception:\n    log()\n"
        assert _rules(src) == []

    def test_quiet_outside_src(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert _rules(src, TEST) == []


class TestSAN109:
    def test_fires_on_direct_construction(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "pool = ProcessPoolExecutor(max_workers=4)\n"
        )
        assert _rules(src) == ["SAN109"]

    def test_fires_on_qualified_construction(self):
        src = (
            "import concurrent.futures\n"
            "pool = concurrent.futures.ProcessPoolExecutor(max_workers=4)\n"
        )
        assert _rules(src) == ["SAN109"]

    def test_quiet_in_worker_layer(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "pool = ProcessPoolExecutor(max_workers=4)\n"
        )
        assert _rules(src, "src/repro/experiments/service/workers.py") == []

    def test_quiet_outside_src(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "pool = ProcessPoolExecutor(max_workers=4)\n"
        )
        assert _rules(src, TEST) == []

    def test_quiet_on_thread_pool(self):
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "pool = ThreadPoolExecutor(max_workers=4)\n"
        )
        assert _rules(src) == []


class TestInfrastructure:
    def test_rule_catalog_is_complete(self):
        assert set(RULES) == {f"SAN10{i}" for i in (1, 2, 4, 5, 6, 7, 9)}
        for summary, anchor in RULES.values():
            assert summary and anchor.startswith("docs/sanitize.md#")

    def test_syntax_error_is_reported_not_raised(self):
        vio = lint_source("def f(:\n", SRC)
        assert len(vio) == 1 and "does not parse" in vio[0].message

    def test_fingerprint_ignores_line_numbers(self):
        a = lint_source("def f(g):\n    g.sync(0, 0)\n", SRC)[0]
        b = lint_source("\n\n\ndef f(g):\n    g.sync(0, 0)\n", SRC)[0]
        assert a.fingerprint == b.fingerprint
        assert a.line != b.line

    def test_baseline_round_trip(self, tmp_path):
        vio = lint_source("def f(g):\n    g.sync(0, 0)\n", SRC)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, vio)
        baseline = load_baseline(baseline_file)
        assert filter_baselined(vio, baseline) == []

    def test_baseline_multiset_absorbs_exact_count(self, tmp_path):
        # Two identical baselined lines absorb two occurrences, not three.
        src = "def f(g):\n    g.sync(0, 0)\n    g.sync(0, 0)\n"
        vio = lint_source(src, SRC)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, vio)
        baseline = load_baseline(baseline_file)
        more = lint_source(src + "    g.sync(0, 0)\n", SRC)
        fresh = filter_baselined(more, baseline)
        assert len(fresh) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_version_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ValueError, match="unsupported baseline version"):
            load_baseline(bad)


class TestCli:
    def _write(self, tmp_path, source):
        f = tmp_path / "snippet.py"
        f.write_text(textwrap.dedent(source))
        return f

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        f = self._write(tmp_path, "def f(g):\n    yield from g.sync(0, 0)\n")
        assert main([str(f), "--no-baseline"]) == 0

    def test_exit_one_on_violation(self, tmp_path, capsys):
        f = self._write(tmp_path, "def f(g):\n    g.sync(0, 0)\n")
        assert main([str(f), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "SAN101" in out

    def test_json_format(self, tmp_path, capsys):
        f = self._write(tmp_path, "def f(g):\n    g.sync(0, 0)\n")
        assert main([str(f), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "SAN101"

    def test_write_then_check_baseline(self, tmp_path, capsys):
        f = self._write(tmp_path, "def f(g):\n    g.sync(0, 0)\n")
        baseline = tmp_path / "baseline.json"
        assert main([str(f), "--baseline", str(baseline), "--write-baseline"]) == 0
        assert main([str(f), "--baseline", str(baseline)]) == 0

    def test_baseline_matches_however_paths_are_spelled(
        self, tmp_path, monkeypatch, capsys
    ):
        """Files are named relative to the baseline's directory, so the
        baseline matches and the ``src/repro/``-scoped SAN107 fires
        however the path is spelled and wherever the linter runs."""
        tree = tmp_path / "tree"
        pkg = tree / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("try:\n    pass\nexcept Exception:\n    pass\n")
        monkeypatch.chdir(tree)
        assert main(["src", "--baseline", "baseline.json", "--write-baseline"]) == 0
        assert "wrote 1 accepted" in capsys.readouterr().err
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        absolute = [str(tree / "src"), "--baseline", str(tree / "baseline.json")]
        assert main(absolute) == 0
        monkeypatch.chdir(pkg)
        argv = ["mod.py", "--baseline", "../../baseline.json", "--format", "json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--no-baseline"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [(v["rule"], v["path"]) for v in payload] == [
            ("SAN107", "src/repro/mod.py")
        ]

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "SAN101" in out and "SAN109" in out


class TestRepoIsClean:
    def test_committed_baseline_covers_the_tree(self):
        """`repro-lint src tests` must be clean against the committed
        baseline — the same gate CI runs."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        violations = lint_paths([str(root / "src"), str(root / "tests")], root=root)
        baseline = load_baseline(root / "lint-baseline.json")
        fresh = filter_baselined(violations, baseline)
        assert fresh == [], "\n".join(v.render() for v in fresh)
