"""A chat-completion server on a loopback socket, for the remote backend's tests.

``LoopbackServer`` listens on 127.0.0.1 at a free port, serves from a thread
and speaks HTTP/1.1 with keep-alive, so one client connection can carry many
requests. Each POST takes the next reply off ``script``; once the script is
empty, it answers 200 with ``MockBackend().complete`` of the request's
prompt, so a remote run against it matches a mock run. A scripted reply is

- an ``int`` status, or a ``(status, headers)`` pair, with an empty JSON body;
- ``MALFORMED``: 200 with a JSON body that holds no completion;
- ``REFUSAL``: 200 with a completion whose ``content`` is null, the shape a
  refusal or a tool call takes;
- a ``threading.Barrier``: the default reply, once as many requests as the
  barrier has parties are waiting on it, so that many are in flight at once;
- ``DROP``: the connection closes without a reply;
- ``STALL``: no reply until the server closes, past any client timeout;
- ``CLOSE``: the default reply, after which the server closes the connection
  without having sent ``Connection: close``, as an idle keep-alive timeout does.

The server records each request's path, headers, JSON body and client
address in ``received``, and each accepted connection's client address in
``connections``. ``closed`` counts the connections the server has shut once
their handler returned, on the client's close or on a scripted one, and
``wait_closed`` waits for that count. Leaving the ``with`` block closes every socket it opened and
joins every thread it started.
"""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from echosim.backends import MockBackend

MALFORMED, REFUSAL, DROP, STALL, CLOSE = "malformed", "refusal", "drop", "stall", "close"


class _ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep the connection open between requests
    disable_nagle_algorithm = True  # the body's write follows the headers' without a delayed-ACK wait

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.received.append({"path": self.path, "headers": self.headers, "body": body,
                                    "client": self.client_address})
            reply = server.script.pop(0) if server.script else None
        if isinstance(reply, threading.Barrier):
            reply.wait()
            reply = None
        if reply in (DROP, STALL):
            if reply == STALL:
                server.closing.wait()
            self.close_connection = True
            return
        status, headers, payload = 200, {}, {"unexpected": True}
        if reply in (None, CLOSE):
            content = MockBackend().complete(body["messages"][0]["content"], body["max_tokens"], body["temperature"])
            payload = {"choices": [{"message": {"content": content}}]}
        elif reply == REFUSAL:
            payload = {"choices": [{"message": {"content": None, "refusal": "no"}}]}
        elif reply != MALFORMED:
            status, headers = reply if isinstance(reply, tuple) else (reply, {})
            payload = {}
        data = json.dumps(payload).encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if reply == CLOSE:
            self.close_connection = True

    def log_message(self, format, *args):  # keep the test output quiet
        pass


class LoopbackServer(ThreadingHTTPServer):
    daemon_threads = False  # so that server_close joins every handler thread

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.script, self.received, self.connections, self.closed = [], [], [], 0
        self.lock = threading.Lock()
        self._changed = threading.Condition(self.lock)
        self.closing = threading.Event()
        self._sockets = []
        self._thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.05})

    def url(self, scheme: str = "http") -> str:
        return f"{scheme}://127.0.0.1:{self.server_port}/v1"

    def process_request(self, request, client_address):
        with self.lock:
            self.connections.append(client_address)
            self._sockets.append(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._changed:
            self.closed += 1
            self._changed.notify_all()

    def wait_closed(self, count: int, timeout: float = 5.0) -> bool:
        """Whether ``closed`` reaches ``count`` within ``timeout`` seconds."""
        with self._changed:
            return self._changed.wait_for(lambda: self.closed >= count, timeout)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.closing.set()
        self.shutdown()
        self._thread.join()
        # a handler waiting for the next request on a kept-alive connection reads
        # end-of-file and returns, closing its socket
        for request in self._sockets:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # its handler has closed it already
                pass
        self.server_close()
