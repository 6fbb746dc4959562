#!/usr/bin/env python
"""Simulation-as-a-service tour: submit a grid job, poll it, fetch
its result (see docs/SERVICE.md).

Talks to a running ``repro serve`` endpoint — or, with no endpoint
given, boots an in-process server on a free port first, so the example
is self-contained::

    python examples/service_client.py                     # self-hosted
    python examples/service_client.py http://127.0.0.1:8765   # external
    python examples/service_client.py --result-out result.json

The script submits one small SNUCA2-vs-TLC grid, waits for it, and
prints the normalized-execution-time table the result document
carries.  The final ``cells simulated: N`` line is the dedupe contract the CI
smoke job asserts on: run the script twice against one ``--cache-dir``
(or one external server) and the second run prints ``cells
simulated: 0``.
"""

import argparse
import json
import sys
import threading

#: Small on purpose: two designs x two benchmarks at a few thousand
#: references finishes in seconds yet exercises the full pipeline.
JOB_SPEC = {
    "designs": ["SNUCA2", "TLC"],
    "benchmarks": ["gcc", "mcf"],
    "n_refs": 4_000,
}


def self_hosted_server(cache_dir):
    """An in-process service for endpoint-less runs; returns
    (base_url, shutdown callable)."""
    from repro.service import JobStore, make_server

    store = JobStore(cache=cache_dir, workers=2)
    server = make_server(store)
    threading.Thread(target=server.serve_forever, daemon=True).start()

    def shutdown():
        server.shutdown()
        server.server_close()
        store.close()

    return f"http://127.0.0.1:{server.server_address[1]}", shutdown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("endpoint", nargs="?",
                        help="a running repro serve URL; omitted = boot "
                             "an in-process server")
    parser.add_argument("--cache-dir",
                        help="result-cache directory for the self-hosted "
                             "server (two runs sharing it dedupe)")
    parser.add_argument("--result-out", metavar="FILE",
                        help="write the frozen result bytes to FILE")
    args = parser.parse_args(argv)

    from repro.service import ServiceClient

    shutdown = None
    endpoint = args.endpoint
    if endpoint is None:
        endpoint, shutdown = self_hosted_server(args.cache_dir)
        print(f"self-hosted service on {endpoint}")

    try:
        # retries=5: ride out 429 over_capacity / 503 draining answers
        # from a loaded server with capped exponential backoff that
        # honors the Retry-After header (docs/SERVICE.md).
        client = ServiceClient(endpoint, retries=5)
        health = client.healthz()
        print(f"healthz: ok={health['ok']} workers={health['workers']}")

        print(f"\nsubmitting: {json.dumps(JOB_SPEC)}")
        submitted = client.submit(JOB_SPEC)
        print(f"job {submitted['id']} "
              f"(deduplicated={submitted['deduplicated']})")

        status = client.wait(submitted["id"], timeout_s=300)
        cells = status["cells"]
        print(f"state: {status['state']} — {cells['done']}/{cells['total']} "
              f"cells done in {status['wall_time_s']}s")

        result_bytes = client.result_bytes(submitted["id"])
        result = json.loads(result_bytes)
        print("\n" + result["normalized_time"]["rendered"])

        if args.result_out:
            with open(args.result_out, "wb") as handle:
                handle.write(result_bytes)
            print(f"result bytes written to {args.result_out}")

        # The line the CI smoke job greps: cells simulated *by this
        # submission*.  A deduplicated submission enqueued no work (the
        # status above shows the original job's counters); a fresh job
        # over a warm result cache answers every cell from disk.
        # Either dedupe layer therefore prints 0.
        simulated = 0 if submitted["deduplicated"] else cells["simulated"]
        print(f"\ncells simulated: {simulated}")
        return 0
    finally:
        if shutdown is not None:
            shutdown()


if __name__ == "__main__":
    sys.exit(main())
