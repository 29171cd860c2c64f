"""Tests for ``repro.lint`` — the repo-specific invariant analyzer.

Each checker gets the same trio: a seeded true positive, a clean
snippet, and the true positive silenced by a ``# repro-lint:
allow(...)`` suppression. The finale runs the full suite over the
real tree and asserts it is (and stays) clean.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.cli import DEFAULT_ROOTS, main as lint_main
from repro.lint.core import checker_names, format_json

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_tree(tmp_path, files, checker):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint it with
    one checker selected."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], select=[checker])


def rules(result):
    return [f.rule for f in result.findings]


# ---------------------------------------------------------------------------
# rng-discipline


class TestRngDiscipline:
    def test_flags_global_rng_call(self, tmp_path):
        result = lint_tree(tmp_path, {
            "agents/walker.py": """
                import random
                step = random.random()
            """,
        }, "rng-discipline")
        assert rules(result) == ["rng-discipline"]
        assert "random.random" in result.findings[0].message

    def test_flags_unseeded_and_legacy_numpy(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sweeps/draws.py": """
                import numpy as np
                rng = np.random.default_rng()
                noise = np.random.rand(3)
            """,
        }, "rng-discipline")
        assert rules(result) == ["rng-discipline"] * 2
        assert "unseeded" in result.findings[0].message

    def test_clean_when_seeded(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/env.py": """
                import numpy as np
                from numpy.random import default_rng

                def make(seed):
                    return np.random.default_rng(seed), default_rng(seed + 1)
            """,
        }, "rng-discipline")
        assert result.findings == []

    def test_out_of_scope_dirs_are_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {
            "proxy/train.py": """
                import random
                split = random.random()
            """,
        }, "rng-discipline")
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        result = lint_tree(tmp_path, {
            "agents/walker.py": """
                import random
                step = random.random()  # repro-lint: allow(rng-discipline) demo
            """,
        }, "rng-discipline")
        assert result.findings == []
        assert rules_of(result.suppressed) == ["rng-discipline"]


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# lock-guard


LOCKED_CLASS = """
    import threading

    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self.evals = 0

        def safe(self):
            with self._lock:
                self.evals += 1
"""


class TestLockGuard:
    def test_flags_unguarded_write_of_guarded_attr(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sweeps/hostpool.py": LOCKED_CLASS + """
        def racy(self):
            self.evals += 1
            """,
        }, "lock-guard")
        assert rules(result) == ["lock-guard"]
        assert "Pool.evals" in result.findings[0].message

    def test_flags_unguarded_write_through_local_name(self, tmp_path):
        # a per-host record reached through a local name, as HostPool
        # writes ``host.evals``: guarded in one method, bare in another
        result = lint_tree(tmp_path, {
            "sweeps/hostpool.py": """
                import threading

                class Pool:
                    def __init__(self, hosts):
                        self._lock = threading.Lock()
                        self._hosts = hosts

                    def safe(self, host, n):
                        with self._lock:
                            host.evals += n

                    def racy(self, host, n):
                        host.evals += n
                        host.alive = True
            """,
        }, "lock-guard")
        assert rules(result) == ["lock-guard"]
        assert "'Pool.host.evals'" in result.findings[0].message
        assert result.findings[0].line == 14

    def test_flags_unguarded_mutating_call(self, tmp_path):
        result = lint_tree(tmp_path, {
            "service/server.py": """
                import threading

                class Registry:
                    def __init__(self):
                        self._state_lock = threading.Lock()
                        self._envs = {}

                    def put(self, k, v):
                        with self._state_lock:
                            self._envs[k] = v

                    def racy(self, k):
                        self._envs.pop(k)
            """,
        }, "lock-guard")
        assert rules(result) == ["lock-guard"]

    def test_clean_when_every_write_is_guarded(self, tmp_path):
        result = lint_tree(tmp_path, {
            "service/client.py": LOCKED_CLASS + """
        def also_safe(self):
            with self._lock:
                self.evals = 0
            """,
        }, "lock-guard")
        assert result.findings == []

    def test_unguarded_attrs_stay_unguarded(self, tmp_path):
        # An attribute never written under a lock (thread-local slots,
        # start/stop plumbing) is not shared state — no finding.
        result = lint_tree(tmp_path, {
            "service/server.py": """
                class Server:
                    def start(self):
                        self._thread = object()

                    def stop(self):
                        self._thread = None
            """,
        }, "lock-guard")
        assert result.findings == []

    def test_out_of_scope_files_are_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sweeps/runner.py": LOCKED_CLASS + """
        def racy(self):
            self.evals += 1
            """,
        }, "lock-guard")
        assert result.findings == []

    def test_inconsistent_lock_order(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sweeps/hostpool.py": """
                class Pool:
                    def forward(self):
                        with self._lock:
                            with self._cache_lock:
                                pass

                    def backward(self):
                        with self._cache_lock:
                            with self._lock:
                                pass
            """,
        }, "lock-guard")
        assert rules(result) == ["lock-guard"]
        assert "inconsistent lock order" in result.findings[0].message

    def test_suppression_comment(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sweeps/hostpool.py": LOCKED_CLASS + """
        def benign(self):
            # single-threaded teardown, workers already joined
            self.evals = 0  # repro-lint: allow(lock-guard)
            """,
        }, "lock-guard")
        assert result.findings == []
        assert rules_of(result.suppressed) == ["lock-guard"]


# ---------------------------------------------------------------------------
# counter-threading


def counter_tree(stats_extra="", result_extra="", record_extra="",
                 report_extra="", rows_extra=""):
    return {
        "core/env.py": f"""
            class EnvStats:
                def __init__(self):
                    self.cache_hits = 0
                    {stats_extra or 'pass'}
        """,
        "agents/base.py": f"""
            from dataclasses import dataclass

            @dataclass
            class SearchResult:
                cache_hits: int
                {result_extra}

                def to_record(self):
                    return {{"cache_hits": self.cache_hits{record_extra}}}

                @classmethod
                def from_record(cls, record):
                    return cls(record["cache_hits"]{record_extra and ', record["foo_hits"]'})
        """,
        "sweeps/runner.py": f"""
            class SweepReport:
                def cache_hits(self):
                    return sum(r.cache_hits for r in self.results)
                {report_extra}
        """,
        "sweeps/export.py": f"""
            def report_to_rows(report):
                return [{{"cache_hits": 0{rows_extra}}}]
        """,
    }


class TestCounterThreading:
    def test_clean_chain(self, tmp_path):
        result = lint_tree(tmp_path, counter_tree(), "counter-threading")
        assert result.findings == []

    def test_flags_counter_missing_downstream(self, tmp_path):
        result = lint_tree(
            tmp_path,
            counter_tree(stats_extra="self.foo_hits = 0"),
            "counter-threading",
        )
        assert rules(result) == ["counter-threading"] * 5
        stations = " / ".join(f.message for f in result.findings)
        assert "SearchResult field" in stations
        assert "to_record" in stations
        assert "report_to_rows" in stations
        # anchored where the counter is defined
        assert all(f.path.endswith("core/env.py") for f in result.findings)

    def test_fully_threaded_counter_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            counter_tree(
                stats_extra="self.foo_hits = 0",
                result_extra="foo_hits: int = 0",
                record_extra=', "foo_hits": self.foo_hits',
                report_extra=(
                    "def foo_hits(self): "
                    "return sum(r.foo_hits for r in self.results)"
                ),
                rows_extra=', "foo_hits": 0',
            ),
            "counter-threading",
        )
        assert result.findings == []

    def test_suppression_on_definition_line(self, tmp_path):
        result = lint_tree(
            tmp_path,
            counter_tree(
                stats_extra="self.foo_hits = 0"
                "  # repro-lint: allow(counter-threading) env-local"
            ),
            "counter-threading",
        )
        assert result.findings == []
        assert len(result.suppressed) == 5


# ---------------------------------------------------------------------------
# fingerprint-coverage


FP_MODULE = """
    from dataclasses import dataclass


    @dataclass
    class TrialTask:
        n_samples: int
        seed: int
        {extra_field}

    def plan(parser):
        {exempt}
        return sweep_fingerprint(n_samples=4, seed=0)


    def _add_durability_args(parser):
        parser.add_argument({flag!r}, action="store_true")
"""


def fp_module(extra_field="", exempt="pass", flag="--seed"):
    return textwrap.dedent(FP_MODULE).format(
        extra_field=extra_field, exempt=exempt, flag=flag
    )


class TestFingerprintCoverage:
    def test_flags_unfingerprinted_field_and_flag(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sweeps/mini.py": fp_module(
                extra_field="frobnicate: bool = False", flag="--wobble"
            ),
        }, "fingerprint-coverage")
        assert rules(result) == ["fingerprint-coverage"] * 2
        messages = " / ".join(f.message for f in result.findings)
        assert "'frobnicate'" in messages and "'wobble'" in messages

    def test_clean_when_exempted_with_reason(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sweeps/mini.py": fp_module(
                extra_field="frobnicate: bool = False",
                exempt=(
                    'FINGERPRINT_EXEMPT = {"frobnicate": "wall-clock", '
                    '"wobble": "wall-clock"}'
                ),
                flag="--wobble",
            ),
        }, "fingerprint-coverage")
        assert result.findings == []

    def test_inert_without_fingerprint_call(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sweeps/mini.py": """
                from dataclasses import dataclass

                @dataclass
                class TrialTask:
                    mystery: int = 0
            """,
        }, "fingerprint-coverage")
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sweeps/mini.py": fp_module(
                extra_field="frobnicate: bool = False"
                "  # repro-lint: allow(fingerprint-coverage)"
            ),
        }, "fingerprint-coverage")
        assert result.findings == []
        assert rules_of(result.suppressed) == ["fingerprint-coverage"]


# ---------------------------------------------------------------------------
# wire-schema


def wire_tree(client_key="env", read_key="metrics"):
    return {
        "service/client.py": f"""
            class Client:
                def evaluate(self):
                    request = {{{client_key!r}: "DRAMGym-v0"}}
                    parsed = self._checked("POST", "/evaluate", request)
                    return parsed.get({read_key!r})
        """,
        "service/server.py": """
            class Handler:
                def handle(self, request):
                    env = request["env"]
                    self._reply(200, {"metrics": {}, "error": None})
        """,
    }


class TestWireSchema:
    def test_clean_when_keys_match(self, tmp_path):
        result = lint_tree(tmp_path, wire_tree(), "wire-schema")
        assert result.findings == []

    def test_flags_request_key_server_never_parses(self, tmp_path):
        result = lint_tree(tmp_path, wire_tree(client_key="mystery"),
                           "wire-schema")
        assert rules(result) == ["wire-schema"]
        assert "'mystery'" in result.findings[0].message

    def test_flags_response_key_server_never_produces(self, tmp_path):
        result = lint_tree(tmp_path, wire_tree(read_key="bogus"),
                           "wire-schema")
        assert rules(result) == ["wire-schema"]
        assert "'bogus'" in result.findings[0].message

    def test_inert_without_both_sides(self, tmp_path):
        files = wire_tree(client_key="mystery")
        del files["service/server.py"]
        result = lint_tree(tmp_path, files, "wire-schema")
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        files = wire_tree()
        files["service/client.py"] = """
            class Client:
                def evaluate(self):
                    request = {"mystery": 1}  # repro-lint: allow(wire-schema)
                    parsed = self._checked("POST", "/evaluate", request)
                    return parsed.get("metrics")
        """
        result = lint_tree(tmp_path, files, "wire-schema")
        assert result.findings == []
        assert rules_of(result.suppressed) == ["wire-schema"]

    def test_shared_wire_parser_reads_checked(self, tmp_path):
        files = wire_tree()
        files["service/wire.py"] = """
            def parse_metrics_response(parsed):
                return parsed.get("phantom")
        """
        result = lint_tree(tmp_path, files, "wire-schema")
        assert rules(result) == ["wire-schema"]
        assert "'phantom'" in result.findings[0].message


# ---------------------------------------------------------------------------
# unused-import


class TestUnusedImport:
    def test_flags_unused_import(self, tmp_path):
        result = lint_tree(tmp_path, {
            "mod.py": """
                import os
                import json

                print(json.dumps({}))
            """,
        }, "unused-import")
        assert rules(result) == ["unused-import"]
        assert "'os'" in result.findings[0].message

    def test_string_constants_count_as_uses(self, tmp_path):
        # __all__ re-export idiom: the name only appears as a string.
        result = lint_tree(tmp_path, {
            "pkg.py": """
                from collections import OrderedDict

                __all__ = ["OrderedDict"]
            """,
        }, "unused-import")
        assert result.findings == []

    def test_noqa_still_suppresses(self, tmp_path):
        result = lint_tree(tmp_path, {
            "mod.py": """
                import os  # noqa: F401
            """,
        }, "unused-import")
        assert result.findings == []

    def test_repro_lint_suppression(self, tmp_path):
        result = lint_tree(tmp_path, {
            "mod.py": """
                import os  # repro-lint: allow(unused-import)
            """,
        }, "unused-import")
        assert result.findings == []
        assert rules_of(result.suppressed) == ["unused-import"]


# ---------------------------------------------------------------------------
# framework mechanics


class TestFramework:
    def test_checker_registry(self):
        assert checker_names() == [
            "counter-threading",
            "fingerprint-coverage",
            "lock-guard",
            "rng-discipline",
            "unused-import",
            "wire-schema",
        ]

    def test_syntax_errors_become_findings(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = run_lint([str(tmp_path)])
        assert rules(result) == ["syntax"]

    def test_wildcard_suppression(self, tmp_path):
        result = lint_tree(tmp_path, {
            "mod.py": """
                import os  # repro-lint: allow(*) kept for doctest namespace
            """,
        }, "unused-import")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_json_output_shape(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": "import os\n"},
                           "unused-import")
        payload = json.loads(format_json(result))
        assert payload["counts"] == {"findings": 1, "suppressed": 0}
        finding = payload["findings"][0]
        assert finding["rule"] == "unused-import"
        assert finding["line"] == 1
        assert "mod.py" in finding["path"]

    def test_human_output_and_exit_codes(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("import os\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[unused-import]" in out and "1 finding(s)" in out
        (tmp_path / "mod.py").write_text("import os\n\nprint(os.sep)\n")
        assert lint_main([str(tmp_path)]) == 0

    def test_unknown_checker_is_an_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "nope"]) == 2
        assert "unknown checker" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the real tree


class TestRepoIsClean:
    def test_whole_repo_has_no_unsuppressed_findings(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        roots = [r for r in DEFAULT_ROOTS if (REPO_ROOT / r).is_dir()]
        result = run_lint(roots)
        assert result.findings == [], "\n".join(
            f"{f.path}:{f.line}: [{f.rule}] {f.message}"
            for f in result.findings
        )
        # the deliberate suppressions (env-local EnvStats counters)
        # are accounted for, not silently dropped
        assert result.suppressed, "expected the documented suppressions"

    def test_acceptance_command(self, monkeypatch, capsys):
        # the ISSUE's acceptance gate: `python -m repro.lint src` exits 0
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
