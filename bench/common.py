"""Locations shared by the benchmark's scripts.

The benchmark drives the checkout it lives in: the library comes from
``src/`` and the acceptance corpus and transcript author from ``tests/``,
both used read-only. Everything the benchmark writes goes under
``.bench_work/`` at the checkout root.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
TESTS_DIR = os.path.join(ROOT, "tests")
WORK_DIR = os.path.join(ROOT, ".bench_work")

REQUIRED = (
    os.path.join(SRC_DIR, "solscout", "__init__.py"),
    os.path.join(TESTS_DIR, "corpus.py"),
    os.path.join(TESTS_DIR, "helpers.py"),
)


def use_checkout() -> None:
    """Put the checkout's library and test helpers first on ``sys.path``.

    Exits with status 2, printing nothing on standard output, when they
    are missing.
    """
    missing = [path for path in REQUIRED if not os.path.isfile(path)]
    if missing:
        print("error: not a solscout checkout; missing "
              + ", ".join(os.path.relpath(p, ROOT) for p in missing), file=sys.stderr)
        raise SystemExit(2)
    for path in (TESTS_DIR, SRC_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env(**extra) -> dict:
    """Environment for the benchmark's child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC_DIR, TESTS_DIR])
    # the fake provider is on 127.0.0.1: never route it through a proxy
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env.update(extra)
    return env
