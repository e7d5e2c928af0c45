import os
import random
import sys

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def fixtures_dir() -> str:
    return FIXTURES


def fixture_path(*parts) -> str:
    return os.path.join(FIXTURES, *parts)


@pytest.fixture(scope="session")
def sample_projects(tmp_path_factory) -> list:
    """Project roots of every kind of input the scanner is tested and benchmarked on.

    The four fixtures, the demo, the acceptance corpus with two fillers,
    and the benchmark generator's output: the acceptance corpus next to
    its seeded fillers (the ``wide-parse`` and ``record-latency`` shape)
    and eight ``dense-graph`` files.
    """
    from corpus import build_corpus, write_corpus

    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import generate

    root = tmp_path_factory.mktemp("samples")
    corpus, generated, dense = (str(root / name) for name in ("corpus", "generated", "dense"))
    write_corpus(corpus, build_corpus(variants=3), filler_files=2)
    write_corpus(generated, build_corpus(variants=3))
    rng = random.Random("samples")
    for i in range(2):
        with open(os.path.join(generated, "contracts", f"Filler{i}.sol"), "w",
                  encoding="utf-8") as fh:
            fh.write(generate.filler_source(i, rng))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate, "DENSE_FILES", 8)
        generate.dense_project(dense, rng)
    fixtures = [fixture_path(name) for name in ("first_deposit", "first_deposit_patched",
                                                 "checkpoint_order", "checkpoint_order_patched")]
    return fixtures + [os.path.join(ROOT, "demo", "project"), corpus, generated, dense]


@pytest.fixture(scope="session")
def scanned_sources() -> dict:
    """Project name -> ``(path, text)`` of each of its Solidity files.

    The four fixtures, the demo, the acceptance corpus, and the seed-7
    ``wide-parse`` and ``dense-graph`` benchmark inputs: the same texts
    ``bench/generate.py`` writes, kept in memory.
    """
    from corpus import build_corpus

    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import generate

    projects = {}
    for root in [fixture_path(name) for name in ("first_deposit", "first_deposit_patched",
                                                 "checkpoint_order", "checkpoint_order_patched")
                 ] + [os.path.join(ROOT, "demo", "project")]:
        files = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".sol"):
                    with open(os.path.join(dirpath, name), encoding="utf-8-sig") as fh:
                        files.append((os.path.relpath(os.path.join(dirpath, name), root), fh.read()))
        projects[os.path.relpath(root, ROOT)] = files
    corpus = [(case.filename, case.source) for case in build_corpus(variants=3)]
    projects["acceptance"] = corpus
    rng = random.Random("wide-parse:7")  # as generate.generate seeds it
    projects["wide-parse:7"] = corpus + [(f"Filler{i}.sol", generate.filler_source(i, rng))
                                         for i in range(generate.WIDE_FILLER_FILES)]
    dense = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate, "_write", lambda path, text: dense.append(
            (os.path.basename(path), text)))
        generate.dense_project("", random.Random("dense-graph:7"))
    projects["dense-graph:7"] = dense
    return projects


# the CA that signed tls/server.pem, a certificate for 127.0.0.1 and localhost
TLS_CA = fixture_path("tls", "ca.pem")


@pytest.fixture
def direct(monkeypatch):
    """Clear the proxy and CA bundle variables, so the gateway connects directly."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy") or name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name)


@pytest.fixture
def serve(direct):
    """Start ``chatserver.ChatServer``s; each is closed after the test.

    ``serve(respond, tls=True)`` serves over TLS with a certificate that
    ``TLS_CA`` signed.
    """
    import ssl

    from chatserver import ChatServer

    servers = []

    def start(respond, tls: bool = False):
        context = None
        if tls:
            context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
            context.load_cert_chain(fixture_path("tls", "server.pem"))
        try:
            server = ChatServer(respond, tls=context)
        except OSError:
            pytest.skip("local sockets unavailable")
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()
