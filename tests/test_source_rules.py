"""Rules on the library source, checked by parsing it without running it.

The benchmark harness decides nothing from a term's ``tag``, ``payload`` or
``kind``: what a term means and what it bounds are the term's own methods,
and ``tag``/``payload`` serve only the closed-form G* route."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "sbopt")
TERM_TAGS = {"tag", "payload", "kind"}


def _tag_reads(path):
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in TERM_TAGS)


def test_scanner_sees_the_reference_route():
    reads = _tag_reads(os.path.join(SRC, "reference.py"))
    assert {attr for _, attr in reads} == {"tag", "payload"}


def test_bench_reads_no_term_tags():
    bench = os.path.join(SRC, "bench")
    found = [f"bench/{name}:{line}: .{attr}"
             for name in sorted(os.listdir(bench)) if name.endswith(".py")
             for line, attr in _tag_reads(os.path.join(bench, name))]
    assert found == []
