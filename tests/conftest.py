"""Shared fixtures and synthetic-data builders for the test suite."""

from __future__ import annotations

import json
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from clarikit.corpus import ClarificationInstance, Corpus, Document
from clarikit.retrieval import RetrievalConfig, build_inverted_index


def make_planted(
    n_instances: int,
    facets_per_instance: int = 2,
    distractors_per_instance: int = 6,
) -> tuple[Corpus, list[ClarificationInstance]]:
    """Synthetic corpus with each facet planted verbatim in its own document.

    Instance i has query "topic<i>" and two-token facets whose tokens occur
    nowhere else.  Each facet document contains the query once and the facet
    twice; distractor documents contain the query twice plus one unique
    filler token, so they outrank facet documents for the bare query but
    never contain facet text.  Result: facet-aligned retrieval finds every
    facet, query-only retrieval finds none.
    """
    docs: list[Document] = []
    instances: list[ClarificationInstance] = []
    for i in range(n_instances):
        query = f"topic{i}"
        facets = []
        for j in range(facets_per_instance):
            facet = f"fct{i}x{j}a fct{i}x{j}b"
            facets.append(facet)
            docs.append(Document(id=f"d{i}f{j}", text=f"{query} {facet} {facet}"))
        for d in range(distractors_per_instance):
            docs.append(Document(id=f"d{i}n{d}", text=f"{query} {query} filler{i}d{d}"))
        instances.append(
            ClarificationInstance(id=f"inst{i}", query=query, facets=tuple(facets))
        )
    return Corpus.from_docs(docs), instances


def constant_generator(instances):
    """Generator that ignores evidence and always emits the ground truth.

    Maximally unfaithful: its output cannot change when evidence is removed.
    """
    by_query = {inst.query: inst.facets for inst in instances}

    def generate(request):
        from clarikit.generator import Clarification

        return Clarification(question=None, facets=by_query[request.query])

    return generate


@pytest.fixture(scope="session")
def planted():
    """A 20-instance planted corpus with its index and aligned config."""
    corpus, instances = make_planted(20)
    return {
        "corpus": corpus,
        "instances": instances,
        "index": build_inverted_index(corpus),
        "aligned": RetrievalConfig(mode="lexical", alignment="facet_aligned", k=5),
        "query_only": RetrievalConfig(mode="lexical", alignment="query_only", k=5),
    }


@pytest.fixture()
def tiny_corpus() -> Corpus:
    return Corpus.from_docs(
        [
            Document(id="d1", text="penny penny cast cast"),
            Document(id="d2", text="penny show"),
            Document(id="d3", text="random words"),
        ]
    )


class MockGeneratorHandler(BaseHTTPRequestHandler):
    """Scriptable generator endpoint; behavior(request) -> (status, body, delay)."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request_body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(request_body)
        status, body, delay = self.server.behavior(request_body)
        if delay and self.server.closing.wait(delay):
            return  # torn down mid-delay: the client has given up, write nothing
        payload = body if isinstance(body, (bytes, str)) else json.dumps(body)
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client timed out and hung up: nothing to answer

    def log_message(self, *args):
        pass


class MockGeneratorServer(ThreadingHTTPServer):
    """Closing joins every handler thread; a handler's exception is recorded
    in ``errors`` instead of printed, so the fixture can fail its test."""

    daemon_threads = False

    def __init__(self):
        super().__init__(("127.0.0.1", 0), MockGeneratorHandler)
        self.requests = []
        self.behavior = lambda req: (200, {"question": None, "facets": ["cast"]}, 0)
        self.closing = threading.Event()
        self.errors = []

    def handle_error(self, request, client_address):
        self.errors.append(traceback.format_exc())


@pytest.fixture()
def mock_endpoint():
    server = MockGeneratorServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.closing.set()
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)
    if server.errors:
        pytest.fail("mock endpoint handler raised:\n" + "\n".join(server.errors))


def endpoint_url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}/generate"
