"""Set-up probe: time importing matbody and building bodies, samples and grids.

Run in a fresh interpreter from the root of a checkout:

    python3 perfbench/probe_setup.py '<JSON list of config documents>'

Prints the seconds from just before ``import matbody`` to the last grid
built. Each config document must give its body, grid and samples.
"""

import json
import sys
import time


def main() -> None:
    configs = json.loads(sys.argv[1])
    sys.path.insert(0, "src")
    start = time.perf_counter()
    import matbody as mb

    for doc in configs:
        body = doc["body"]
        if isinstance(body, str):
            body = mb.builtin_body(body)
        else:
            body = mb.polynomial_body(body["polynomial"]["terms"])
        mb.make_samples(doc["samples"]["count"], doc["samples"]["seed"])
        mb.make_grid(body.lo, body.hi, doc["grid"]["resolution"], doc["grid"]["margin"])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
