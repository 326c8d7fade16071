"""Time per operation of the front-end passes on large generated models.

    python3 tools/front_end_scale.py [--segments 450 1800 7200] [--repeats 3] [--src DIR]

Each model has six Uniform(0, 1) inputs and a chain of segments; segment i
reads input i mod 6 as sep6's segments do and joins a running ring sum:

    s_i = exp(sin(x))*x^2 + log(1 + x^2)
    r_i = r_(i-1) + s_(i-1)*s_i

That is 10 operations a segment, so 450, 1800 and 7200 segments give
about 4.5k, 18k and 72k operations.  For each size the passes run in
order on a freshly parsed graph, each timed alone (the later ones read
the cached results of the earlier): parse_model, Graph.order, Graph.plan,
Graph.signatures, Graph.stages, and expansion_copies on a grid of 2 points
an axis.  Graph.order runs the one walk that checks the graph and unions
each operation's signature mask, so Graph.signatures only turns those
masks into tuples.  The best of --repeats runs is printed per pass, in ms
and in microseconds per operation.  The cyclic
garbage collector stays on, as in a normal run.  --src names the `src`
directory of the uqc checkout to time (default: this one's).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

PASSES = ("parse_model", "Graph.order", "Graph.plan", "Graph.signatures", "Graph.stages",
          "expansion_copies")


def segment_model(segments: int) -> str:
    lines = [f"input x{axis} ~ Uniform(0, 1)" for axis in range(6)]
    for i in range(segments):
        x = f"x{i % 6}"
        lines.append(f"s{i} = exp(sin({x}))*{x}^2 + log(1 + {x}^2)")
        if i == 1:
            lines.append("r1 = s0*s1")
        elif i > 1:
            lines.append(f"r{i} = r{i - 1} + s{i - 1}*s{i}")
    lines.append(f"output f = r{segments - 1}")
    return "\n".join(lines) + "\n"


def time_passes(uqc, text: str, repeats: int) -> tuple[int, list[float]]:
    """(operations, best seconds of each pass)."""
    best = [float("inf")] * len(PASSES)
    for _ in range(repeats):
        clock = time.perf_counter()
        graph = uqc.parse_model(text)
        times = [time.perf_counter() - clock]
        for read in (lambda: graph.order, lambda: graph.plan, lambda: graph.signatures,
                     lambda: graph.stages, lambda: uqc.transform.expansion_copies(graph, [2] * 6)):
            clock = time.perf_counter()
            read()
            times.append(time.perf_counter() - clock)
        best = list(map(min, best, times))
    return len(graph.operations), best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--segments", type=int, nargs="+", default=[450, 1800, 7200])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    if min(args.segments) < 2 or args.repeats < 1:
        parser.error("--segments must each be at least 2 and --repeats at least 1")
    sys.path.insert(0, str(args.src))
    import uqc

    header, rows = [], {name: [] for name in PASSES}
    for segments in args.segments:
        operations, best = time_passes(uqc, segment_model(segments), args.repeats)
        header.append(f"{operations} ops")
        for name, seconds in zip(PASSES, best):
            rows[name].append(f"{seconds * 1e3:.1f} ms ({seconds * 1e6 / operations:.2f} µs/op)")
    print(f"uqc from {args.src.resolve()}, best of {args.repeats}")
    print("| pass | " + " | ".join(header) + " |")
    print("| --- " * (len(header) + 1) + "|")
    for name in PASSES:
        print(f"| `{name}` | " + " | ".join(rows[name]) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
