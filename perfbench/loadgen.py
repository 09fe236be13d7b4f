"""serve_mix load generator: two closed-loop clients in one process.

    python3 perfbench/loadgen.py --port P --plan FILE --seconds S \
        --out FILE [--plane-deltas]

The *hit* client cycles through the primed hit set; the *compute*
client walks the seeded sequence of add-one-origin ``grid`` partials
and cold full reports.  Each sends its next request only when the
previous one has completed.  Neither starts a request after
``--seconds``.  A request's class is its role in the sequence, never
the server's ``X-Repro-Source``.

With ``--plane-deltas`` the compute client reads ``serve.plane_miss``
from ``/metrics`` around each request, so the traced run can check
that a partial dispatches exactly the added origin's units.

Records go to ``--out`` as JSON: one ``[class, index, latency_s,
status, sha256, trace, plane_miss_delta, shape_ok]`` list per request;
``shape_ok`` is a structural check of a compute request's report, for
seeds whose output bytes are not pinned.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import sys
import threading
import time

TIMEOUT_S = 170.0


def post(port: int, spec: dict, trace: str):
    """POST /report; returns (status, body bytes, latency seconds)."""
    body = json.dumps(spec).encode("utf-8")
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("POST", "/report", body=body, headers={
            "Content-Type": "application/json", "X-Repro-Trace": trace})
        response = conn.getresponse()
        data = response.read()
        status = response.status
    finally:
        conn.close()
    return status, data, time.perf_counter() - start


def get(port: int, path: str):
    """GET ``path``; returns (status, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def counters(port: int) -> dict:
    """The server's counter totals, from ``/metrics``."""
    return json.loads(get(port, "/metrics?format=json")[1])["counters"]


def shape_ok(cls: str, data: bytes) -> bool:
    """A grid is JSON keyed by the three protocols; a full report has a
    coverage table per protocol and the McNemar section."""
    text = data.decode("utf-8", errors="replace")
    if cls == "partial":
        try:
            return sorted(json.loads(text)) == ["http", "https", "ssh"]
        except (ValueError, TypeError):
            return False
    return text.count("[coverage] ") == 3 and "[mcnemar] " in text


def _record(records, lock, cls, index, status, data, latency, trace,
            delta=None):
    digest = hashlib.sha256(data).hexdigest()
    ok = cls == "hit" or shape_ok(cls, data)
    with lock:
        records.append([cls, index, latency, status, digest, trace, delta,
                        ok])


def hit_client(port, hits, deadline, records, lock, errors):
    try:
        index = 0
        while time.perf_counter() < deadline:
            trace = f"a{index:031x}"
            status, data, latency = post(port, hits[index % len(hits)],
                                         trace)
            _record(records, lock, "hit", index, status, data, latency,
                    trace)
            index += 1
    except Exception as error:  # noqa: BLE001 — reported, run fails
        errors.append(f"hit client: {type(error).__name__}: {error}")


def compute_client(port, sequence, deadline, records, lock, errors,
                   plane_deltas):
    try:
        for index, item in enumerate(sequence):
            if time.perf_counter() >= deadline:
                break
            trace = f"b{index:031x}"
            before = counters(port).get("serve.plane_miss", 0) \
                if plane_deltas else None
            status, data, latency = post(port, item["spec"], trace)
            delta = None
            if plane_deltas:
                delta = counters(port).get("serve.plane_miss", 0) - before
            _record(records, lock, item["class"], index, status, data,
                    latency, trace, delta)
    except Exception as error:  # noqa: BLE001 — reported, run fails
        errors.append(f"compute client: {type(error).__name__}: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--plane-deltas", action="store_true")
    args = parser.parse_args(argv)

    with open(args.plan) as handle:
        plan = json.load(handle)
    records: list = []
    errors: list = []
    lock = threading.Lock()
    deadline = time.perf_counter() + args.seconds
    clients = [
        threading.Thread(target=hit_client, args=(
            args.port, plan["hits"], deadline, records, lock, errors)),
        threading.Thread(target=compute_client, args=(
            args.port, plan["compute"], deadline, records, lock, errors,
            args.plane_deltas)),
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join(TIMEOUT_S)
    if any(client.is_alive() for client in clients):
        errors.append("a client did not finish within its timeout")
    with open(args.out, "w") as handle:
        json.dump({"records": records, "errors": errors}, handle)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
