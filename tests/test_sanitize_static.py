"""Static AST pass tests: synthetic sources plus the repo-tree regression."""

import os
import textwrap

from repro.sanitize import StaticSanitizer, static_check

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check(source):
    return StaticSanitizer().check_source(textwrap.dedent(source), filename="synthetic.py")


def _rules(diagnostics):
    return [d.rule for d in diagnostics]


class TestDroppedEvents:
    def test_bare_fence_statement_is_flagged(self):
        diagnostics = _check(
            """
            def body(t: ThreadCtx):
                r = t.alloc(64)
                yield t.write(r.addr(0), 8)
                t.fence()  # built, never yielded: silently no-op
            """
        )
        dropped = [d for d in diagnostics if d.rule == "static.dropped-event"]
        assert dropped and dropped[0].severity == "error"
        assert "fence" in dropped[0].message

    def test_dropped_block_method_mentions_yield_from(self):
        diagnostics = _check(
            """
            def body(t: ThreadCtx):
                r = t.alloc(4096)
                t.write_block(r.addr(0), 4096)
            """
        )
        dropped = [d for d in diagnostics if d.rule == "static.dropped-event"]
        assert dropped and "yield from" in dropped[0].message

    def test_yielded_events_are_clean(self):
        diagnostics = _check(
            """
            def body(t: ThreadCtx):
                r = t.alloc(64)
                yield t.write(r.addr(0), 8)
                yield t.fence()
            """
        )
        assert "static.dropped-event" not in _rules(diagnostics)


class TestYieldIterator:
    def test_yield_of_block_method_is_flagged(self):
        diagnostics = _check(
            """
            def body(t: ThreadCtx):
                r = t.alloc(4096)
                yield t.write_block(r.addr(0), 4096)  # yields the iterator
            """
        )
        flagged = [d for d in diagnostics if d.rule == "static.yield-iterator"]
        assert flagged and flagged[0].severity == "error"

    def test_yield_of_read_strided_is_flagged(self):
        diagnostics = _check(
            """
            def body(t: ThreadCtx):
                r = t.alloc(4096)
                yield t.read_strided(r.addr(0), 64, 64, 8)  # yields the iterator
            """
        )
        assert "static.yield-iterator" in _rules(diagnostics)

    def test_yield_from_is_clean(self):
        diagnostics = _check(
            """
            def body(t: ThreadCtx):
                r = t.alloc(4096)
                yield from t.write_block(r.addr(0), 4096)
            """
        )
        assert "static.yield-iterator" not in _rules(diagnostics)


class TestUnlabelledWrites:
    def test_stores_outside_provenance_block_in_labelled_body(self):
        diagnostics = _check(
            """
            def body(t: ThreadCtx):
                r = t.alloc(64)
                with t.function("hot", file="x.c", line=1):
                    yield t.write(r.addr(0), 8)
                yield t.write(r.addr(8), 8)  # attributed to <unlabelled>
            """
        )
        unlabelled = [d for d in diagnostics if d.rule == "static.unlabelled-write"]
        assert unlabelled and unlabelled[0].severity == "warning"

    def test_fully_labelled_body_is_clean(self):
        diagnostics = _check(
            """
            def body(t: ThreadCtx):
                r = t.alloc(64)
                with t.function("hot", file="x.c", line=1):
                    yield t.write(r.addr(0), 8)
                    yield t.write(r.addr(8), 8)
            """
        )
        assert "static.unlabelled-write" not in _rules(diagnostics)

    def test_helper_generator_without_alloc_is_exempt(self):
        # Helpers inherit the caller's dynamic provenance scope.
        diagnostics = _check(
            """
            def helper(t: ThreadCtx, addr):
                yield t.write(addr, 8)
            """
        )
        assert "static.unlabelled-write" not in _rules(diagnostics)


class TestRawAddresses:
    def test_arithmetic_on_region_base_is_flagged(self):
        diagnostics = _check(
            """
            def body(t: ThreadCtx):
                r = t.alloc(64)
                yield t.read(r.base + 128, 8)  # out of bounds, unchecked
            """
        )
        raw = [d for d in diagnostics if d.rule == "static.raw-address"]
        assert raw and "r.addr(offset)" in raw[0].message

    def test_region_addr_is_clean(self):
        diagnostics = _check(
            """
            def body(t: ThreadCtx):
                r = t.alloc(64)
                yield t.read(r.addr(0), 8)
            """
        )
        assert "static.raw-address" not in _rules(diagnostics)


class TestSyntaxErrors:
    def test_unparsable_source_yields_one_error(self):
        diagnostics = _check("def broken(:\n")
        assert _rules(diagnostics) == ["static.syntax-error"]
        assert diagnostics[0].severity == "error"


class TestRepoTreeRegression:
    def test_workloads_and_examples_are_lint_clean(self):
        """The tree the CLI's ``--self`` mode lints must stay clean."""
        paths = [
            os.path.join(_REPO_ROOT, "src", "repro", "workloads"),
            os.path.join(_REPO_ROOT, "examples"),
        ]
        assert static_check(paths) == []
