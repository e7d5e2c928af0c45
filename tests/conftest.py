import os

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def fixtures_dir() -> str:
    return FIXTURES


def fixture_path(*parts) -> str:
    return os.path.join(FIXTURES, *parts)


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
