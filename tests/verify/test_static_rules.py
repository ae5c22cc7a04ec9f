"""Static analyzer: every rule fires on its buggy fixture, every
suppression silences it, and the sanctioned SPMD shapes stay clean."""

import pathlib
import textwrap

import pytest

from repro.verify import RULES, lint_file, lint_paths, lint_source
from repro.verify.static import Finding

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _codes(findings):
    return [f.code for f in findings]


def _lint(snippet: str):
    return lint_source(textwrap.dedent(snippet), "<test>")


class TestFixtureFiles:
    """The deliberately-buggy fixture modules self-test every rule."""

    @pytest.mark.parametrize(
        "name, code, count",
        [
            ("bad_spmd001.py", "SPMD001", 2),
            ("bad_spmd002.py", "SPMD002", 3),
            ("bad_spmd003.py", "SPMD003", 2),
            ("bad_spmd004.py", "SPMD004", 1),
            ("bad_spmd005.py", "SPMD005", 2),
        ],
    )
    def test_rule_fires_on_fixture(self, name, code, count):
        findings = lint_file(FIXTURES / name)
        assert _codes(findings) == [code] * count

    def test_suppressed_fixture_is_clean(self):
        assert lint_file(FIXTURES / "suppressed.py") == []

    def test_lint_paths_walks_directory(self):
        findings = lint_paths([FIXTURES])
        assert {f.code for f in findings} == {
            "SPMD001",
            "SPMD002",
            "SPMD003",
            "SPMD004",
            "SPMD005",
        }

    def test_findings_carry_fixits(self):
        for finding in lint_paths([FIXTURES]):
            assert finding.fixit == RULES[finding.code].fixit
            assert finding.code in finding.format()
            assert "fix:" in finding.format()
            assert finding.to_dict()["line"] == finding.line


class TestRankBranches:
    def test_matched_if_else_is_clean(self):
        assert (
            _lint(
                """
                def f(comm, x):
                    if comm.rank == 0:
                        out = comm.bcast(x, 0)
                    else:
                        out = comm.bcast(None, 0)
                    return out
                """
            )
            == []
        )

    def test_early_return_split_is_clean(self):
        # The tracer's root/receiver shape: the root arm returns, the
        # fallthrough is the other ranks' arm.
        assert (
            _lint(
                """
                def f(comm, x):
                    if comm.rank == 0:
                        return comm.gather(x, 0)
                    comm.gather(x, 0)
                    return None
                """
            )
            == []
        )

    def test_unmatched_else_arm_flagged(self):
        findings = _lint(
            """
            def f(comm, x):
                if comm.rank == 0:
                    comm.bcast(x, 0)
                else:
                    comm.bcast(x, 0)
                    comm.barrier()
            """
        )
        assert _codes(findings) == ["SPMD001"]
        assert "'barrier'" in findings[0].message

    def test_rank_guard_without_termination_flagged(self):
        findings = _lint(
            """
            def f(comm, x):
                if comm.rank != 0:
                    comm.allreduce(x, None)
            """
        )
        assert _codes(findings) == ["SPMD001"]

    def test_raise_guard_is_not_an_arm(self):
        # `if rank-dep: raise` is a guard; the collective after it is
        # the normal path, not a divergent arm.
        assert (
            _lint(
                """
                def f(comm, x):
                    if comm.rank >= 8:
                        raise ValueError("too many ranks")
                    return comm.allreduce(x, None)
                """
            )
            == []
        )

    def test_name_indirect_condition_not_detected(self):
        # Documented limitation: rank-dependence hidden behind a name.
        assert (
            _lint(
                """
                def f(comm, x):
                    leader = comm.rank == 0
                    if leader:
                        comm.bcast(x, 0)
                """
            )
            == []
        )


class TestUnawaitedRequests:
    def test_escapes_are_clean(self):
        # The TSQR driver's idioms: subscript, attribute, call argument.
        assert (
            _lint(
                """
                def f(comm, self, requests, depth, x):
                    requests[depth] = comm.irecv(1, depth)
                    self._reply = comm.irecv(2, 0)
                    self._outbox.append(comm.isend(x, 1))
                    return comm.irecv(0, 1)
                """
            )
            == []
        )

    def test_waited_names_are_clean(self):
        assert (
            _lint(
                """
                def f(comm, x, waitall):
                    a = comm.irecv(0)
                    b = comm.isend(x, 1)
                    waitall([a, b])
                """
            )
            == []
        )

    def test_module_level_discard_flagged(self):
        findings = _lint("comm.irecv(0)\n")
        assert _codes(findings) == ["SPMD002"]


class TestReservedTags:
    def test_band_boundary(self):
        clean = _lint("def f(comm, x):\n    comm.send(x, 1, (1 << 24) - 1)\n")
        assert clean == []
        flagged = _lint(
            "def f(comm, x):\n    comm.send(x, 1, tag=(1 << 24) + 7)\n"
        )
        assert _codes(flagged) == ["SPMD003"]
        assert "16777223" in flagged[0].message

    def test_computed_tags_not_flagged(self):
        assert (
            _lint(
                """
                def f(comm, x, base):
                    comm.send(x, 1, base + 3)
                """
            )
            == []
        )


class TestOutAliasing:
    def test_distinct_buffer_is_clean(self):
        assert (
            _lint(
                """
                def f(comm, x, buf, op):
                    return comm.allreduce(x, op, out=buf)
                """
            )
            == []
        )

    def test_allreduce_alias_flagged(self):
        findings = _lint(
            """
            def f(comm, block):
                return comm.allreduce(block, SUM, out=block)
            """
        )
        assert _codes(findings) == ["SPMD004"]


class TestSnapshotWrites:
    def test_copy_before_write_is_clean(self):
        assert (
            _lint(
                """
                def f(comm, x):
                    received = comm.bcast(x, 0)
                    received = received.copy()
                    received[0] = 1.0
                    return received
                """
            )
            == []
        )

    def test_mutator_method_flagged(self):
        findings = _lint(
            """
            def f(comm, x):
                shared = comm.bcast(x, 0)
                shared.fill(0.0)
            """
        )
        assert _codes(findings) == ["SPMD005"]


class TestSuppression:
    def test_bare_ignore_suppresses_all(self):
        assert (
            _lint(
                "def f(comm, x):\n"
                "    comm.isend(x, 1, 1 << 25)  # spmd: ignore\n"
            )
            == []
        )

    def test_ignore_of_other_code_keeps_finding(self):
        findings = _lint(
            "def f(comm, x):\n"
            "    comm.isend(x, 1)  # spmd: ignore[SPMD001]\n"
        )
        assert _codes(findings) == ["SPMD002"]


class TestParseErrors:
    def test_syntax_error_becomes_spmd000(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert _codes(findings) == ["SPMD000"]
        assert findings[0].path == "bad.py"


class TestShippedTreeIsClean:
    def test_repo_sources_have_zero_findings(self):
        root = pathlib.Path(__file__).resolve().parents[2]
        findings = lint_paths(
            [root / "src", root / "examples", root / "benchmarks"]
        )
        assert findings == [], "\n".join(f.format() for f in findings)


def test_finding_is_hashable_value_object():
    finding = Finding(path="p.py", line=3, col=1, code="SPMD001", message="m")
    assert finding == Finding(
        path="p.py", line=3, col=1, code="SPMD001", message="m"
    )
    assert hash(finding) is not None
