"""Run one benchmark workload against the library in ``src/`` of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one process, one thread, and the next
operation starts when the previous one returns.  The run first sets up
(imports ``forcing_lab`` afresh and builds the inputs from the seed)
several times, then makes one untimed warm-up pass over the workload's
fixed list of operations on the last inputs built, then timed passes over
the same inputs until ``--seconds`` is spent.  Every answer, the warm-up
pass's too, is checked outside the timed section.

The host's speed swings by up to a factor of two within a second, and
library code and other Python code slow down together.  So the run also
times a fixed piece of reference work (the benchmark's own zero forcing
along two small cycles) before the first operation of a pass and after
each one, and ``pass_rel`` divides each operation's time by the mean of the
reference times on either side of it.  ``pass_rel`` is the pass's time in
units of the reference work, and it stays put where the seconds do not.
``setup_s`` is scaled the same way, to seconds on a host where the
reference work takes ``REFERENCE_NOMINAL_S``.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
``end_to_end`` ones of ``BENCHMARK.json``.  With ``--trace 1`` half the
time goes to untraced passes and half to traced ones, the metrics are the
``per_layer`` ones, taken from the median traced pass, and that pass's
spans are written to ``perfbench/out/``.  The exit code is 0 when a
result was printed and 2 when the library cannot be imported from this
checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from types import ModuleType

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracing import Span, Tracer, layer_self_times, top_level_time  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

# The run sets up at least once and until half of SETUP_SECONDS are
# spent, at most half of SETUP_REPEATS times, so that a set-up of a few
# milliseconds still gets a steady median; and as many times again after
# the passes, so that set-up is sampled at both ends of the run.  Passes
# reuse the inputs of the last set-up before them: building them afresh
# before every pass made identical passes differ by a fifth.
SETUP_SECONDS = 2.0
SETUP_REPEATS = 20

# The reference work: zero forcing along relabeled cycles in the two
# idioms of the library's hot loops, which it does not call: round by
# round with sets and dicts on REFERENCE_ORDER vertices, as in the
# closures, and with bitmasks from each of REFERENCE_BITS start vertices,
# as in the exhaustive solvers; about 20 ms in all.  Pass to pass, the
# library's times followed it more closely than they followed either half
# alone, a list-based worklist closure or the building of sets of arcs.
REFERENCE_ORDER = 200
REFERENCE_BITS = 40
# Set-up times are reported as seconds on a host where the reference work
# takes this long: the wall time scaled by REFERENCE_NOMINAL_S over the
# reference time around it.  Unscaled, the median set-up of a run moved
# by a quarter between runs of the same code.
REFERENCE_NOMINAL_S = 0.02


def _relabeled_cycle(n: int) -> dict[int, int]:
    perm = list(range(n))
    Random(0).shuffle(perm)
    return {perm[v]: perm[(v + 1) % n] for v in range(n)}


REFERENCE_OUT = {u: {v} for u, v in _relabeled_cycle(REFERENCE_ORDER).items()}
REFERENCE_MASKS = [1 << v for _, v in sorted(_relabeled_cycle(REFERENCE_BITS).items())]


class LibraryMissing(Exception):
    pass


def load_library() -> ModuleType:
    """Import ``forcing_lab`` afresh from ``src/`` of this checkout."""
    for key in [k for k in sys.modules if k == "forcing_lab" or k.startswith("forcing_lab.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        importlib.import_module("forcing_lab.cli")
    except ImportError as exc:
        raise LibraryMissing(f"cannot import forcing_lab from {SRC}: {exc}") from exc
    fl = sys.modules["forcing_lab"]
    if not Path(fl.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"forcing_lab was imported from {fl.__file__}, not {SRC}")
    return fl


def set_up(workload: str, seed: int) -> tuple[ModuleType, list[Op], float]:
    """Import the library afresh and build the inputs; returns the time taken.

    The caller drops its previous library and inputs first, so that a
    set-up never holds two input sets at once.  The new objects are then
    frozen out of the cyclic collector: collections during a pass would
    otherwise rescan the inputs, which made identical passes differ by up
    to a third.
    """
    gc.unfreeze()
    gc.collect()
    start = time.perf_counter()
    fl = load_library()
    ops = WORKLOADS[workload](fl, seed)
    elapsed = time.perf_counter() - start
    gc.collect()
    gc.freeze()
    return fl, ops, elapsed


def scaled_set_up(
    workload: str, seed: int, before: float
) -> tuple[ModuleType, list[Op], float, float]:
    """``set_up`` with its time scaled to the reference speed, given the
    reference time just before it; also returns the one just after it."""
    fl, ops, elapsed = set_up(workload, seed)
    after = reference_seconds()
    return fl, ops, elapsed * REFERENCE_NOMINAL_S / ((before + after) / 2), after


@dataclass
class Pass:
    attempted: int = 0
    seconds: float = 0.0
    relative: float = 0.0
    failed: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


def reference_work() -> tuple[int, int]:
    """The vertices the set closure colors, and the start vertices from
    which the bitmask closure colors every vertex."""
    colored = {0}
    while True:
        forced = {}
        for u in colored:
            white = [v for v in REFERENCE_OUT[u] if v not in colored]
            if len(white) == 1:
                forced[white[0]] = u
        if not forced:
            break
        colored |= forced.keys()
    full = (1 << REFERENCE_BITS) - 1
    covering = 0
    for start in range(REFERENCE_BITS):
        bits = 1 << start
        while bits != full:
            newly = 0
            pool = bits
            while pool:
                bit = pool & -pool
                pool ^= bit
                white = REFERENCE_MASKS[bit.bit_length() - 1] & ~bits
                if white and white & (white - 1) == 0:
                    newly |= white
            if not newly:
                break
            bits |= newly
        covering += bits == full
    return len(colored), covering


def reference_seconds() -> float:
    """Time of the reference work."""
    start = time.perf_counter()
    if reference_work() != (REFERENCE_ORDER, REFERENCE_BITS):
        raise AssertionError("the reference work did not color its cycles")
    return time.perf_counter() - start


def run_pass(ops: list[Op], tracer: Tracer | None = None) -> Pass:
    """One pass over ``ops``; only the library calls are timed, and each is
    also taken relative to the reference work timed on either side of it."""
    result = Pass(attempted=len(ops))
    if tracer is not None:
        tracer.reset()
    before = reference_seconds()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            answer = op.call(*op.inputs)
        except Exception as exc:  # any failure of the library counts against it
            answer, error = None, exc
        else:
            error = None
        elapsed = time.perf_counter() - start
        after = reference_seconds()
        result.seconds += elapsed
        result.relative += elapsed / ((before + after) / 2)
        before = after
        if error is not None:
            result.failed.append(f"{op.name}: {type(error).__name__}: {error}")
            continue
        reason = op.check(answer)
        if reason is not None:
            result.wrong.append(f"{op.name}: {reason}")
    if tracer is not None:
        result.spans, result.counts = tracer.spans, dict(tracer.counts)
    return result


def measure(
    workload: str, seed: int, seconds: float, tracer: Tracer | None = None
) -> tuple[Pass, list[Pass], list[float]]:
    """Set-ups, a warm-up pass, timed passes until another would overrun
    ``seconds`` (at least one), and set-ups again; returns the warm-up pass,
    the timed passes and the set-up times."""
    start = time.perf_counter()
    setups: list[float] = []
    before = reference_seconds()
    while not setups or (
        sum(setups) < SETUP_SECONDS / 2 and len(setups) < SETUP_REPEATS // 2
    ):
        fl = ops = None
        fl, ops, scaled, before = scaled_set_up(workload, seed, before)
        setups.append(scaled)
    reserve = time.perf_counter() - start
    if tracer is not None:
        tracer.install(fl)
    try:
        warm_up = run_pass(ops, tracer)
        passes: list[Pass] = []
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(ops, tracer))
            last = time.perf_counter() - pass_start
            if time.perf_counter() - start + last + reserve > seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    before = reference_seconds()
    for _ in range(len(setups)):
        fl = ops = None
        fl, ops, scaled, before = scaled_set_up(workload, seed, before)
        setups.append(scaled)
    return warm_up, passes, setups


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has ten of {n} samples beyond it"
    p = 100 * (n - 10) // n
    rank = max(1, -(-p * n // 100))
    return f"p{p} {sorted(values)[rank - 1]:.4f}"


def layer_values(chosen: Pass, traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Every ``per_layer`` metric of ``BENCHMARK.json`` for the chosen
    traced pass; the tracing overhead compares the medians of both runs.

    ``<layer>.self_s`` sums the self time of the layer and its sub-layers,
    ``verify.<suite>.s`` is a suite's inclusive time, and any other name
    is a count kept by the tracer.
    """
    own = layer_self_times(chosen.spans)
    counts = chosen.counts
    subsets = counts.get("solvers.subsets_tested", 0)
    untraced_s = statistics.median(p.seconds for p in untraced)
    derived = {
        "solvers.hit_ratio": counts.get("solvers.calls", 0) / subsets if subsets else 0.0,
        "harness.self_s": chosen.seconds - top_level_time(chosen.spans),
        "trace.pass_s": chosen.seconds,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": chosen.seconds - untraced_s,
        "trace.overhead_share": statistics.median(p.relative for p in traced)
        / statistics.median(p.relative for p in untraced)
        - 1,
    }
    values = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".self_s"):
            prefix = name[: -len(".self_s")]
            values[name] = sum(
                t for layer, t in own.items() if layer == prefix or layer.startswith(prefix + ".")
            )
        elif name.endswith(".s"):
            layer = name[: -len(".s")]
            values[name] = sum(s.end - s.start for s in chosen.spans if s.layer == layer)
        else:
            values[name] = counts.get(name, 0)
    return values


def write_spans(workload: str, seed: int, spans: list[Span]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.spans.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict()) + "\n")
    return path


def listing(values: list[float]) -> str:
    return " ".join(f"{t:.3f}" for t in values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if args.trace:
            untraced_warm_up, untraced, _ = measure(args.workload, args.seed, args.seconds / 2)
            traced_warm_up, traced, _ = measure(
                args.workload, args.seed, args.seconds / 2, Tracer()
            )
            checked = [untraced_warm_up, *untraced, traced_warm_up, *traced]
        else:
            warm_up, passes, setup_times = measure(args.workload, args.seed, args.seconds)
            checked = [warm_up, *passes]
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        passes = untraced + traced
        chosen = sorted(traced, key=lambda p: p.seconds)[(len(traced) - 1) // 2]
        values = layer_values(chosen, traced, untraced)
        metrics = SPEC["per_layer"]
    else:
        pass_times = [p.seconds for p in passes]
        values = {
            "pass_rel": statistics.median(p.relative for p in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = SPEC["end_to_end"]

    attempted = sum(p.attempted for p in checked)
    failed = [reason for p in checked for reason in p.failed]
    wrong = [reason for p in checked for reason in p.wrong]
    print(f"workload {args.workload}, seed {args.seed}: {passes[0].attempted} ops per pass, "
          f"{len(checked)} passes, {len(checked) - len(passes)} of them untimed warm-ups")
    for reason in (failed + wrong)[:10]:
        print(f"  {reason}")
    print(f"ops_failed_frac {len(failed) / attempted:.4f} ratio "
          f"({len(failed)} of {attempted} ops)")
    print(f"wrong_verdicts {len(wrong)} count")
    if args.trace:
        layers = sum(layer_self_times(chosen.spans).values())
        path = write_spans(args.workload, args.seed, chosen.spans)
        print(f"traced pass {chosen.seconds:.4f} s = layer self times {layers:.4f} s "
              f"+ harness {values['harness.self_s']:.4f} s; tracing overhead "
              f"{values['trace.overhead_s']:+.4f} s over the untraced median "
              f"{values['trace.untraced_pass_s']:.4f} s, or {values['trace.overhead_share']:+.1%} "
              f"of pass_rel; {len(chosen.spans)} spans in {path.relative_to(ROOT)}")
    else:
        relative = [p.relative for p in passes]
        print(f"pass_rel over {len(passes)} passes: median {values['pass_rel']:.2f}, "
              f"{tail(relative)}; all: {listing(relative)}")
        print(f"pass seconds: median {statistics.median(pass_times):.4f}, "
              f"{tail(pass_times)}; all: {listing(pass_times)}")
        print(f"setup_s over {len(setup_times)} set-ups, scaled to the reference speed: "
              f"{listing(setup_times)}")
    for metric in metrics:
        print(f"{metric['name']} {values[metric['name']]:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failed and not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
