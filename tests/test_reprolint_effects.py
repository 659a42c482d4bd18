"""Tests for reprolint's parallel-safety effect analysis (PR 6).

Covers the effect-summary fixpoint in :mod:`repro.analysis.graph`
(worker reachability across module boundaries, import cycles,
recursion, re-export chains, higher-order call sites), the three flow
rules built on it (REP103 worker-purity, REP203 ordered-sink flow,
REP303 pickle-boundary), the CLI's --select/--ignore/--explain, and the
incremental cache's re-keying when a distant caller changes a
worker-reachability verdict.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.cli import explain_rule, main as cli_main
from repro.analysis.config import load_config
from repro.analysis.graph import build_project_graph, summarize_module
from repro.analysis.reporters import render_sarif

REPO_ROOT = Path(__file__).resolve().parents[1]

MINI_PYPROJECT = """\
[project]
name = "repro"

[tool.reprolint]
exclude = ["*.egg-info/*", "*__pycache__*"]

[tool.reprolint.layers]
core = 0
traces = 1
synth = 2
hostload = 2
sim = 3
apps = 3
experiments = 4
"""

MINI_SCHEMA = """\
JOB_TABLE_SCHEMA = {
    "job_id": "int64",
    "submit_time": "float64",
}
"""


@pytest.fixture
def project(tmp_path):
    """A minimal repro-shaped project; returns a writer/linter helper."""

    class Project:
        root = tmp_path

        def write(self, relpath: str, source: str) -> Path:
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
            return path

        def lint(self, *relpaths: str, **kwargs):
            targets = [tmp_path / p for p in (relpaths or ("src",))]
            return lint_paths(targets, root=tmp_path, **kwargs)

    proj = Project()
    proj.write("pyproject.toml", MINI_PYPROJECT)
    proj.write("src/repro/traces/schema.py", MINI_SCHEMA)
    proj.write("src/repro/__init__.py", "")
    return proj


def rules_at(run, relpath: str, line: int) -> set[str]:
    return {
        d.rule_id
        for d in run.all_diagnostics
        if d.path == relpath and d.line == line
    }


def only(run, rule_id: str):
    return [d for d in run.all_diagnostics if d.rule_id == rule_id]


LAUNCHER = """\
from concurrent.futures import ProcessPoolExecutor

from ..core.state import work

def main(xs):
    with ProcessPoolExecutor(max_workers=2) as pool:
        return [f.result() for f in [pool.submit(work, x) for x in xs]]
"""


# -- REP103: worker purity ----------------------------------------------------


class TestWorkerPurity:
    def test_global_write_in_submitted_function_fails(self, project):
        project.write(
            "src/repro/core/state.py",
            """\
            COUNT = 0

            def work(x):
                global COUNT
                COUNT = x
                return x
            """,
        )
        project.write("src/repro/apps/launch.py", LAUNCHER)
        run = project.lint()
        [diag] = only(run, "REP103")
        assert diag.path == "src/repro/core/state.py"
        assert "COUNT" in diag.message
        assert "worker" in diag.message

    def test_pure_worker_passes(self, project):
        project.write(
            "src/repro/core/state.py",
            """\
            def work(x):
                return x * 2
            """,
        )
        project.write("src/repro/apps/launch.py", LAUNCHER)
        assert not only(project.lint(), "REP103")

    def test_unshipped_impure_function_passes(self, project):
        # The effect alone is not a finding; only worker-reachable
        # effects fire.
        project.write(
            "src/repro/core/state.py",
            """\
            COUNT = 0

            def bump(x):
                global COUNT
                COUNT = x
            """,
        )
        assert not only(project.lint(), "REP103")

    def test_transitive_effect_across_modules_fails(self, project):
        # launch -> work (shipped) -> record (other module, impure):
        # the diagnostic lands on record's effect site with the chain.
        project.write(
            "src/repro/core/counters.py",
            """\
            TALLY = {}

            def record(key, n):
                TALLY[key] = n
            """,
        )
        project.write(
            "src/repro/core/state.py",
            """\
            from .counters import record

            def work(x):
                record("x", x)
                return x
            """,
        )
        project.write("src/repro/apps/launch.py", LAUNCHER)
        run = project.lint()
        [diag] = only(run, "REP103")
        assert diag.path == "src/repro/core/counters.py"
        assert "worker root" in diag.message
        assert "repro.core.state.work" in diag.message

    def test_mutable_default_mutation_fails(self, project):
        project.write(
            "src/repro/core/state.py",
            """\
            def work(x, acc=[]):
                acc.append(x)
                return acc
            """,
        )
        project.write("src/repro/apps/launch.py", LAUNCHER)
        [diag] = only(project.lint(), "REP103")
        assert "shared default 'acc'" in diag.message

    def test_pool_initializer_is_not_a_root(self, project):
        # Per-worker setup through initializer= is the sanctioned way
        # to configure process-local state.
        project.write(
            "src/repro/core/state.py",
            """\
            STATE = {}

            def setup(path):
                STATE["path"] = path

            def work(x):
                return x
            """,
        )
        project.write(
            "src/repro/apps/launch.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            from ..core.state import setup, work

            def main(xs, path):
                with ProcessPoolExecutor(
                    max_workers=2, initializer=setup, initargs=(path,)
                ) as pool:
                    return list(pool.map(work, xs))
            """,
        )
        assert not only(project.lint(), "REP103")

    def test_worker_state_modules_exempts_global_writes(self, project):
        project.write(
            "pyproject.toml",
            MINI_PYPROJECT.replace(
                "[tool.reprolint.layers]",
                'worker-state-modules = ["repro.core.state"]\n'
                "\n[tool.reprolint.layers]",
            ),
        )
        project.write(
            "src/repro/core/state.py",
            """\
            MEMO = {}

            def work(x):
                MEMO[x] = x * 2
                return MEMO[x]
            """,
        )
        project.write("src/repro/apps/launch.py", LAUNCHER)
        assert not only(project.lint(), "REP103")

    def test_configured_worker_roots(self, project):
        # No syntactic shipping site anywhere, but the config declares
        # the entry point (e.g. for a framework-invoked worker).
        project.write(
            "pyproject.toml",
            MINI_PYPROJECT.replace(
                "[tool.reprolint.layers]",
                'worker-roots = ["repro.core.state.work"]\n'
                "\n[tool.reprolint.layers]",
            ),
        )
        project.write(
            "src/repro/core/state.py",
            """\
            COUNT = 0

            def work(x):
                global COUNT
                COUNT = x
            """,
        )
        [diag] = only(project.lint(), "REP103")
        assert "configured worker root" in diag.message

    def test_process_target_is_a_root(self, project):
        project.write(
            "src/repro/core/state.py",
            """\
            DONE = []

            def child(conn, x):
                DONE.append(x)
                conn.send(x)
            """,
        )
        project.write(
            "src/repro/apps/launch.py",
            """\
            import multiprocessing

            from ..core.state import child

            def main(conn, x):
                proc = multiprocessing.Process(target=child, args=(conn, x))
                proc.start()
            """,
        )
        [diag] = only(project.lint(), "REP103")
        assert "DONE" in diag.message


# -- fixpoint edge cases ------------------------------------------------------


class TestFixpointEdgeCases:
    def test_import_cycle_terminates_and_flags(self, project):
        project.write(
            "src/repro/core/a.py",
            """\
            from .b import helper

            TOTAL = 0

            def work(x):
                global TOTAL
                TOTAL = helper(x)
                return TOTAL
            """,
        )
        project.write(
            "src/repro/core/b.py",
            """\
            def helper(x):
                from .a import work  # import cycle, function-local
                return x + 1
            """,
        )
        project.write(
            "src/repro/apps/launch.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            from ..core.a import work

            def main(xs):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, xs))
            """,
        )
        run = project.lint()
        [diag] = only(run, "REP103")
        assert diag.path == "src/repro/core/a.py"

    def test_recursive_worker_terminates(self, project):
        project.write(
            "src/repro/core/state.py",
            """\
            DEPTH = 0

            def work(n):
                global DEPTH
                DEPTH = n
                if n:
                    return work(n - 1)
                return 0
            """,
        )
        project.write("src/repro/apps/launch.py", LAUNCHER)
        [diag] = only(project.lint(), "REP103")
        assert "DEPTH" in diag.message

    def test_reexport_chain_into_worker_root(self, project):
        # pool.submit(work) where work is re-exported through the
        # package __init__; the impure definition two hops away fires.
        project.write(
            "src/repro/core/impl.py",
            """\
            SEEN = {}

            def work(x):
                SEEN[x] = True
                return x
            """,
        )
        project.write(
            "src/repro/core/__init__.py",
            "from .impl import work\n",
        )
        project.write(
            "src/repro/apps/launch.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            from repro.core import work

            def main(xs):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(work, x) for x in xs]
            """,
        )
        run = project.lint()
        [diag] = only(run, "REP103")
        assert diag.path == "src/repro/core/impl.py"

    def test_higher_order_call_site_propagates(self, project):
        # work -> apply(impure, x) where apply calls its fn parameter:
        # the graph adds the apply -> impure edge, so impure is
        # worker-reachable even though nothing names it at a boundary.
        project.write(
            "src/repro/core/state.py",
            """\
            HITS = {}

            def impure(x):
                HITS[x] = x
                return x

            def apply(fn, x):
                return fn(x)

            def work(x):
                return apply(impure, x)
            """,
        )
        project.write("src/repro/apps/launch.py", LAUNCHER)
        run = project.lint()
        [diag] = only(run, "REP103")
        assert "repro.core.state.impure" in diag.message


# -- REP203: ordered-sink flow ------------------------------------------------


class TestOrderedSink:
    def test_set_into_join_fails(self, project):
        project.write(
            "src/repro/core/render.py",
            """\
            def legend(names):
                seen = set(names)
                return ", ".join(seen)
            """,
        )
        [diag] = only(project.lint(), "REP203")
        assert "join" in diag.message
        assert "sorted" in diag.hint

    def test_sorted_set_passes(self, project):
        project.write(
            "src/repro/core/render.py",
            """\
            def legend(names):
                seen = set(names)
                return ", ".join(sorted(seen))
            """,
        )
        assert not only(project.lint(), "REP203")

    def test_set_literal_into_ordered_loop_fails(self, project):
        project.write(
            "src/repro/core/render.py",
            """\
            def lines():
                out = []
                for name in {"b", "a"}:
                    out.append(name)
                return out
            """,
        )
        [diag] = only(project.lint(), "REP203")
        assert diag.line == 3

    def test_unordered_consumption_passes(self, project):
        # Membership tests and accumulation don't observe order.
        project.write(
            "src/repro/core/render.py",
            """\
            def total(values):
                acc = 0
                for v in set(values):
                    acc += v
                return acc
            """,
        )
        assert not only(project.lint(), "REP203")

    def test_module_level_set_constant_fails(self, project):
        project.write(
            "src/repro/core/render.py",
            """\
            KINDS = {"grid", "cloud"}

            def header():
                return " | ".join(KINDS)
            """,
        )
        [diag] = only(project.lint(), "REP203")
        assert "KINDS" in diag.message

    def test_set_returned_by_callee_fails_cross_module(self, project):
        project.write(
            "src/repro/core/tags.py",
            """\
            def tags():
                return {"b", "a"}
            """,
        )
        project.write(
            "src/repro/apps/render.py",
            """\
            from ..core.tags import tags

            def line():
                return ", ".join(tags())
            """,
        )
        run = project.lint()
        [diag] = only(run, "REP203")
        assert diag.path == "src/repro/apps/render.py"
        assert "repro.core.tags.tags" in diag.message

    def test_list_returning_callee_passes(self, project):
        project.write(
            "src/repro/core/tags.py",
            """\
            def tags():
                return ["a", "b"]
            """,
        )
        project.write(
            "src/repro/apps/render.py",
            """\
            from ..core.tags import tags

            def line():
                return ", ".join(tags())
            """,
        )
        assert not only(project.lint(), "REP203")

    def test_dict_iteration_not_flagged(self, project):
        # Insertion order is a language guarantee.
        project.write(
            "src/repro/core/render.py",
            """\
            def line(d):
                return ", ".join(d)
            """,
        )
        assert not only(project.lint(), "REP203")

    def test_set_operator_result_fails(self, project):
        project.write(
            "src/repro/core/render.py",
            """\
            def extras(have, want):
                missing = set(want) - set(have)
                return ", ".join(missing)
            """,
        )
        assert only(project.lint(), "REP203")


# -- REP303: pickle boundary --------------------------------------------------


class TestPickleBoundary:
    def test_lambda_to_submit_fails(self, project):
        project.write(
            "src/repro/apps/launch.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            def main(xs):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda x: x + 1, x) for x in xs]
            """,
        )
        [diag] = only(project.lint(), "REP303")
        assert "lambda" in diag.message
        assert "module-level function" in diag.hint

    def test_local_function_to_map_fails(self, project):
        project.write(
            "src/repro/apps/launch.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            def main(xs):
                def work(x):
                    return x + 1
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, xs))
            """,
        )
        [diag] = only(project.lint(), "REP303")
        assert "inside another function" in diag.message

    def test_local_class_in_process_args_fails(self, project):
        project.write(
            "src/repro/apps/launch.py",
            """\
            import multiprocessing

            def child(task):
                return task

            def main(x):
                class Task:
                    pass
                proc = multiprocessing.Process(target=child, args=(Task,))
                proc.start()
            """,
        )
        [diag] = only(project.lint(), "REP303")
        assert "class" in diag.message

    def test_open_handle_capture_fails(self, project):
        project.write(
            "src/repro/apps/launch.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            def work(handle):
                return handle.read()

            def main(path):
                with open(path) as fh:
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(work, fh).result()
            """,
        )
        [diag] = only(project.lint(), "REP303")
        assert "open file handle" in diag.message
        assert "ship the path" in diag.hint

    def test_module_level_function_passes(self, project):
        project.write(
            "src/repro/apps/launch.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            def work(x):
                return x + 1

            def main(xs):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, xs))
            """,
        )
        assert not only(project.lint(), "REP303")

    def test_conditionally_defined_module_function_passes(self, project):
        # Defined inside `if` at module level — still importable by
        # qualname, hence picklable.
        project.write(
            "src/repro/apps/launch.py",
            """\
            from concurrent.futures import ProcessPoolExecutor

            if True:
                def work(x):
                    return x + 1

            def main(xs):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, xs))
            """,
        )
        assert not only(project.lint(), "REP303")

    def test_pipe_send_of_local_function_fails(self, project):
        project.write(
            "src/repro/apps/launch.py",
            """\
            def child(conn):
                def outcome():
                    return 1
                conn.send(outcome)
            """,
        )
        [diag] = only(project.lint(), "REP303")
        assert "pipe send" in diag.message

    def test_cache_put_of_lambda_fails(self, project):
        project.write(
            "src/repro/core/store.py",
            """\
            from .diskcache import DiskCache

            def save(path, key):
                cache = DiskCache(path)
                cache.put(key, lambda: 1)
            """,
        )
        project.write(
            "src/repro/core/diskcache.py",
            """\
            class DiskCache:
                def __init__(self, path):
                    self.path = path

                def put(self, key, obj):
                    pass
            """,
        )
        [diag] = only(project.lint(), "REP303")
        assert "disk-cache put" in diag.message


# -- CLI: --select / --ignore / --explain -------------------------------------


class TestRuleSelection:
    def _write_mixed(self, project):
        # One REP203 finding and one REP101-style finding in one file.
        project.write(
            "src/repro/core/mixed.py",
            """\
            import numpy as np

            def make():
                return np.random.default_rng()

            def legend(names):
                return ", ".join(set(names))
            """,
        )

    def test_select_narrows_to_listed_rules(self, project):
        self._write_mixed(project)
        run = project.lint(select=("REP203",))
        assert {d.rule_id for d in run.all_diagnostics} == {"REP203"}

    def test_ignore_drops_rules(self, project):
        self._write_mixed(project)
        run = project.lint(ignore=("REP203",))
        ids = {d.rule_id for d in run.all_diagnostics}
        assert "REP203" not in ids
        assert ids  # the RNG finding is still reported

    def test_unknown_rule_id_raises(self, project):
        self._write_mixed(project)
        with pytest.raises(ValueError, match="unknown rule id"):
            project.lint(select=("REP999",))

    def test_cli_exit_codes(self, project, capsys, monkeypatch):
        self._write_mixed(project)
        monkeypatch.chdir(project.root)
        assert cli_main(["--select", "BOGUS", "src"]) == 2
        assert cli_main(["--select", "REP203", "src"]) == 1
        assert cli_main(["--select", "REP601", "src"]) == 0
        capsys.readouterr()

    def test_explain_includes_doc_and_example(self):
        text = explain_rule("REP303")
        assert "REP303" in text
        assert "pickle" in text.lower()
        assert "Example (flagged):" in text
        text = explain_rule("REP103")
        assert "worker" in text.lower()

    def test_explain_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            explain_rule("REP999")

    def test_explain_falls_back_to_module_docstring(self):
        # REP102 predates the doc/example fields; --explain must still
        # produce prose from the checker module's docstring.
        text = explain_rule("REP102")
        assert "provenance" in text.lower()


# -- incremental cache + parallel parity --------------------------------------


class TestEffectsCaching:
    def test_warm_run_reanalyzes_nothing(self, project, tmp_path):
        project.write(
            "src/repro/core/state.py",
            """\
            COUNT = 0

            def work(x):
                global COUNT
                COUNT = x
            """,
        )
        project.write("src/repro/apps/launch.py", LAUNCHER)
        cache = tmp_path / "lint-cache"
        cold = project.lint(cache_dir=cache)
        assert only(cold, "REP103")
        warm = project.lint(cache_dir=cache)
        assert warm.files_analyzed == 0
        assert warm.files_cached == warm.files_checked
        # Cached payloads still carry the findings.
        assert [d.to_dict() for d in warm.all_diagnostics] == [
            d.to_dict() for d in cold.all_diagnostics
        ]

    def test_caller_edit_rekeys_reachability_verdict(self, project, tmp_path):
        # state.py does not import launch.py, so the import closure
        # alone would serve a stale REP103 verdict; the effect-facts
        # fingerprint must re-key it.
        project.write(
            "src/repro/core/state.py",
            """\
            COUNT = 0

            def work(x):
                global COUNT
                COUNT = x
            """,
        )
        project.write("src/repro/apps/launch.py", LAUNCHER)
        cache = tmp_path / "lint-cache"
        cold = project.lint(cache_dir=cache)
        assert only(cold, "REP103")
        # Drop the shipping site; work is no longer worker-reachable.
        project.write(
            "src/repro/apps/launch.py",
            """\
            from ..core.state import work

            def main(xs):
                return [work(x) for x in xs]
            """,
        )
        warm = project.lint(cache_dir=cache)
        assert not only(warm, "REP103")
        # Both the edited file and the re-keyed verdict were re-run.
        assert warm.files_analyzed >= 2

    def test_select_keys_its_own_cache_entries(self, project, tmp_path):
        self_write = project.write
        self_write(
            "src/repro/core/render.py",
            """\
            def legend(names):
                return ", ".join(set(names))
            """,
        )
        cache = tmp_path / "lint-cache"
        full = project.lint(cache_dir=cache)
        assert only(full, "REP203")
        narrowed = project.lint(cache_dir=cache, ignore=("REP203",))
        assert not only(narrowed, "REP203")
        # And the full config's entries were not clobbered.
        full_again = project.lint(cache_dir=cache)
        assert full_again.files_analyzed == 0
        assert only(full_again, "REP203")

    def test_parallel_output_matches_serial(self, project):
        project.write(
            "src/repro/core/state.py",
            """\
            COUNT = 0

            def work(x):
                global COUNT
                COUNT = x
                return ", ".join(set("abc"))
            """,
        )
        project.write("src/repro/apps/launch.py", LAUNCHER)
        serial = project.lint(jobs=1)
        parallel = project.lint(jobs=2)
        assert [d.to_dict() for d in serial.all_diagnostics] == [
            d.to_dict() for d in parallel.all_diagnostics
        ]
        assert render_sarif(serial) == render_sarif(parallel)

    def test_sarif_carries_new_rules_and_results(self, project):
        project.write(
            "src/repro/core/render.py",
            """\
            def legend(names):
                return ", ".join(set(names))
            """,
        )
        sarif = render_sarif(project.lint())
        assert '"REP103"' in sarif
        assert '"REP203"' in sarif
        assert '"REP303"' in sarif


# -- graph-level unit coverage ------------------------------------------------


class TestEffectSummaries:
    def _graph(self, sources: dict[str, str]):
        summaries = {}
        for module, src in sources.items():
            relpath = "src/" + module.replace(".", "/") + ".py"
            summaries[relpath] = summarize_module(
                textwrap.dedent(src), module, relpath, "repro"
            )
        return build_project_graph(summaries, "repro")

    def test_env_fs_process_effects_tracked_not_reported(self):
        graph = self._graph(
            {
                "repro.core.m": """\
                import os
                import shutil
                import subprocess

                def touch_env():
                    os.environ["X"] = "1"

                def spawn():
                    subprocess.run(["true"])
                """
            }
        )
        effects = {
            fn.qualname: {e.kind for e in fn.effects}
            for fn in graph.functions.values()
        }
        assert "env" in effects["repro.core.m.touch_env"]
        assert "process" in effects["repro.core.m.spawn"]

    def test_worker_reachability_is_deterministic(self):
        sources = {
            "repro.core.state": """\
            X = 0

            def a():
                global X
                X = 1

            def b():
                a()
            """,
            "repro.apps.go": """\
            from concurrent.futures import ProcessPoolExecutor

            from ..core.state import a, b

            def main():
                with ProcessPoolExecutor() as pool:
                    pool.submit(a)
                    pool.submit(b)
            """,
        }
        first = self._graph(sources).worker_reachability()
        second = self._graph(sources).worker_reachability()
        assert first == second
        assert "repro.core.state.a" in first
        assert "repro.core.state.b" in first

    def test_effect_facts_only_cover_own_module(self):
        graph = self._graph(
            {
                "repro.core.state": """\
                def work(x):
                    return x
                """,
                "repro.apps.go": """\
                from concurrent.futures import ProcessPoolExecutor

                from ..core.state import work

                def main(xs):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(work, xs))
                """,
            }
        )
        facts = graph.effect_facts_for_module("repro.core.state")
        assert [f[0] for f in facts] == ["repro.core.state.work"]
        assert graph.effect_facts_for_module("repro.traces.none") == ()


class TestRepositoryWorkerRoots:
    def test_supervised_entry_points_are_worker_roots(self):
        # core.workers starts processes from a target parameter, so the
        # repository's two worker entry points reach REP103 only through
        # the configured worker-roots; renaming one must fail here.
        summaries = {}
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            relpath = path.relative_to(REPO_ROOT).as_posix()
            parts = path.relative_to(REPO_ROOT / "src").with_suffix("").parts
            module = ".".join(parts).removesuffix(".__init__")
            summaries[relpath] = summarize_module(
                path.read_text(encoding="utf-8"), module, relpath, "repro"
            )
        graph = build_project_graph(summaries, "repro")
        roots = {
            qualname
            for qualname, _ in graph.worker_roots(
                load_config(REPO_ROOT).worker_roots
            )
        }
        assert {
            "repro.experiments.supervisor._child_main",
            "repro.core.mapreduce._block_main",
        } <= roots
