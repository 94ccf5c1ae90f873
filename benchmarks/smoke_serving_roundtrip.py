"""Server round-trip smoke: start → query → swap → query → shutdown.

Exercises the real deployment path end to end — ``cn-probase serve`` in
a **subprocess** (the CLI, not an in-process server), readiness via
``--ready-file``, queries and an authenticated hot-swap through
:class:`TaxonomyClient`, three framing checks over raw sockets (a
``Content-Length: -1`` POST must get a 400 within 2 s; a keep-alive GET
with a body, followed by a second GET on the same connection, must get
two JSON 200s; a POST whose body ends short of its length must get
exactly one 400 within 2 s; and the next query must still be answered
as before), then a clean ``/admin/shutdown``.
Appends the timings to ``benchmarks/out/BENCH_parallel.json`` under
``"serving_roundtrip"``.

Run:  python benchmarks/smoke_serving_roundtrip.py
(run_smoke.sh runs it after the cluster benchmark)
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))
sys.path.insert(0, str(REPO / "src"))

from repro.core.pipeline import PipelineConfig, build_cn_probase  # noqa: E402
from repro.encyclopedia import SyntheticWorld  # noqa: E402
from repro.serving import TaxonomyClient  # noqa: E402
from trajectory import merge_bench_json  # noqa: E402

ADMIN_TOKEN = "smoke-admin-token"
READY_TIMEOUT_SECONDS = 30.0
N_QUERIES = 300
FRAMING_TIMEOUT_SECONDS = 2.0


def build_taxonomy_file(seed: int, path: Path) -> object:
    world = SyntheticWorld.generate(seed=seed, n_entities=600)
    result = build_cn_probase(
        world.dump(), PipelineConfig(enable_abstract=False)
    )
    result.taxonomy.save(path)
    return result.taxonomy


def cli_env() -> dict[str, str]:
    """Environment for ``python -m repro.cli`` subprocesses (src on path)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def wait_for_ready(ready_file: Path, process: subprocess.Popen) -> str:
    """Base URL once `cn-probase serve --ready-file` reports readiness.

    Shared by every serving smoke script (smoke_incremental_roundtrip
    imports it), so the ready-file protocol lives in one place.  The
    file is ``{"pid": ..., "host": ..., "port": ...}`` JSON written
    only after the socket accepts and removed on clean shutdown; the
    pid is validated against the subprocess we actually spawned, so a
    stale marker left behind by a crashed server (or any other
    process) can never pass for readiness.
    """
    deadline = time.monotonic() + READY_TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(
                f"serve exited early with {process.returncode}:\n"
                f"{process.stdout.read()}"
            )
        if ready_file.exists():
            try:
                payload = json.loads(ready_file.read_text())
            except (ValueError, OSError):
                payload = None  # mid-write or garbage: keep waiting
            if (
                isinstance(payload, dict)
                and payload.get("pid") == process.pid
            ):
                return f"http://{payload['host']}:{payload['port']}"
        time.sleep(0.05)
    raise SystemExit(f"server not ready within {READY_TIMEOUT_SECONDS}s")


def raw_exchange(url: str, request: bytes, half_close: bool = False) -> bytes:
    """Every byte the server sends back for *request*, until it closes.

    With *half_close* the sender ends its side after the request, as one
    whose body ended early does.  The server must answer and close the
    connection within ``FRAMING_TIMEOUT_SECONDS``; a hang fails the
    smoke with ``TimeoutError`` instead of stalling it.
    """
    host, port = url.removeprefix("http://").rsplit(":", 1)
    with socket.create_connection(
        (host, int(port)), timeout=FRAMING_TIMEOUT_SECONDS
    ) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


def split_responses(received: bytes) -> list[tuple[int, bytes]]:
    """``(status, body)`` of each response in *received*, in order.

    Every response must carry a ``Content-Length``, and the bytes must
    end where the last body does.
    """
    responses = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 "), (
            f"not an HTTP/1.1 response: {received[:60]!r}"
        )
        status = int(head.split(b" ", 2)[1])
        length = int(head.split(b"Content-Length: ", 1)[1].split(b"\r\n")[0])
        responses.append((status, rest[:length]))
        received = rest[length:]
    return responses


def bad_length_status(url: str) -> int:
    """Status of a ``Content-Length: -1`` POST sent over a raw socket."""
    received = raw_exchange(
        url,
        b"POST /v1/men2ent HTTP/1.1\r\nHost: smoke\r\n"
        b"Content-Length: -1\r\n\r\n",
    )
    return int(received.split(b" ", 2)[1])


def get_with_body_statuses(url: str) -> list[tuple[int, dict]]:
    """A keep-alive GET with a 12-byte body, then a second GET on the
    same connection: ``(status, JSON body)`` of every response."""
    received = raw_exchange(
        url,
        b"GET /healthz HTTP/1.1\r\nHost: smoke\r\nContent-Length: 12\r\n"
        b"\r\nGARBAGE /x\r\n"
        b"GET /healthz HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n",
    )
    return [
        (status, json.loads(body))
        for status, body in split_responses(received)
    ]


def short_body_statuses(url: str) -> list[int]:
    """Statuses of a POST whose body ends 50 bytes short of its length."""
    body = json.dumps({"arguments": ["x"]}).encode("utf-8")
    received = raw_exchange(
        url,
        b"POST /v1/men2ent HTTP/1.1\r\nHost: smoke\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body) + 50, body),
        half_close=True,
    )
    return [status for status, _ in split_responses(received)]


def main() -> None:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        v1_path, v2_path = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
        taxonomy_v1 = build_taxonomy_file(5, v1_path)
        build_taxonomy_file(6, v2_path)
        mention = sorted(taxonomy_v1.freeze().as_indexes()[0])[0]

        ready_file = tmp_path / "ready"
        # a stale marker from a "crashed" predecessor: readiness must
        # wait for the real server's pid, not trust this
        ready_file.write_text(
            json.dumps({"pid": 999999999, "host": "127.0.0.1", "port": 1})
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(v1_path),
                "--shards", "4", "--replicas", "2", "--port", "0",
                "--admin-token", ADMIN_TOKEN,
                "--ready-file", str(ready_file),
            ],
            env=cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            url = wait_for_ready(ready_file, process)
            with TaxonomyClient(url, admin_token=ADMIN_TOKEN) as client:
                # start → query
                health = client.healthz()
                assert health["status"] == "ok" and health["version"] == "v1"
                assert client.men2ent(mention), "known mention must resolve"
                query_started = time.perf_counter()
                for _ in range(N_QUERIES):
                    client.men2ent(mention)
                query_seconds = time.perf_counter() - query_started

                # → swap
                swap_started = time.perf_counter()
                swapped = client.swap(str(v2_path))
                swap_seconds = time.perf_counter() - swap_started
                assert swapped["version"] == "v2", swapped

                # → query (new version serving, all shards republished)
                assert client.version()["shard_versions"] == ["v2"] * 4
                answer = client.men2ent(mention)

                # → a framing error ends in one 400, and serving goes on
                status = bad_length_status(url)
                assert status == 400, f"Content-Length: -1 got {status}"
                assert client.men2ent(mention) == answer, (
                    "query after the 400 not answered as before"
                )
                # → a GET's body is drained, not read as the next request
                answers = get_with_body_statuses(url)
                assert [status for status, _ in answers] == [200, 200] and all(
                    payload["status"] == "ok" for _, payload in answers
                ), f"GET with a body, then a GET, got {answers}"
                # → a body that ends short is one 400, never served
                statuses = short_body_statuses(url)
                assert statuses == [400], f"a short body got {statuses}"
                assert client.men2ent(mention) == answer, (
                    "query after the body checks not answered as before"
                )
                served = client.server_metrics()
                assert served["swaps"] == 1

                # → shutdown (clean exit removes the readiness marker)
                client.shutdown_server()
                process.wait(timeout=15)
                assert not ready_file.exists(), (
                    "stale ready file after shutdown"
                )
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    total_seconds = time.perf_counter() - started
    merge_bench_json("serving_roundtrip", {
        "queries": N_QUERIES,
        "query_ops": N_QUERIES / query_seconds,
        "swap_seconds": swap_seconds,
        "total_seconds": total_seconds,
        "round_trip": "start->query->swap->query->shutdown",
        "ok": True,
    })
    print(f"serving round trip ok: {N_QUERIES / query_seconds:,.0f} "
          f"single queries/s over HTTP, swap in {swap_seconds * 1e3:.0f}ms, "
          f"{total_seconds:.1f}s end to end (build included)")


if __name__ == "__main__":
    main()
