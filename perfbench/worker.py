"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode M

M is `setup` (set up, report readiness, exit), `run` (set up, then the
timed closed loop) or `trace` (the same loop with spans recorded).  The
process prints `ready` when set-up is done, just before the first timed
op, and one JSON line with its raw results at the end.  run.py starts
this script; it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

import spans
import workloads

LOOP_LIMIT_S = 140.0          # hard stop for one timed loop
# The loop moves between the CPUs it may use every ROTATE_S seconds, so
# that each run spends the same share of time on each: on a shared VM
# their speeds differ, and a run that stayed on one would read that core.
ROTATE_S = 0.25
CACHED = (("formula", "r_key"), ("formula", "atoms_of"),
          ("kernel", "_is_instance"), ("kernel", "_instantiate"))


def import_program():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import posprop
    if not os.path.abspath(posprop.__file__).startswith(src + os.sep):
        raise SystemExit(f"posprop imported from {posprop.__file__}, not {src}")
    from posprop import cli, formula, kalmar, kernel, proofio, semantics, tactics, transform
    return SimpleNamespace(cli=cli, formula=formula, kalmar=kalmar, kernel=kernel,
                           proofio=proofio, semantics=semantics, tactics=tactics,
                           transform=transform)


def cache_counts(pp) -> dict:
    out = {}
    for module, name in CACHED:
        info = getattr(getattr(pp, module), name).cache_info()
        out[f"{module}.{name.lstrip('_')}"] = [info.hits, info.misses, info.currsize]
    return out


def corrupted(pp, d):
    """d with its last modus ponens citing its premises the wrong way round
    (or, without one, its first axiom under the wrong scheme)."""
    k = pp.kernel
    steps = list(d.steps)
    for i in range(len(steps) - 1, -1, -1):
        s = steps[i]
        if isinstance(s, k.MPStep) and s.major != s.minor:
            steps[i] = k.MPStep(s.minor, s.major, s.formula)
            return k.Derivation(d.calculus, d.hypotheses, tuple(steps))
    s = steps[0]
    other = k.SchemeId.AX2 if s.scheme is k.SchemeId.AX1 else k.SchemeId.AX1
    steps[0] = k.AxiomStep(other, s.formula)
    return k.Derivation(d.calculus, d.hypotheses, tuple(steps))


def build(pp, name: str, seed: int, workdir: str):
    if name == "id-sweep":
        return workloads.id_sweep(pp, seed)
    if name == "atom-scaling":
        return workloads.atom_scaling(pp, seed)
    if name == "p-routes":
        return workloads.p_routes(pp, seed)
    return workloads.proof_files(pp, seed, workdir)


def layer_metrics(pp, tracer, steps_total: int) -> dict:
    summary = tracer.summary()
    names, layers, c = summary["names"], summary["layers"], tracer.counts

    def calls(n):
        return names.get(n, (0, 0.0, 0.0))[0]

    def self_s(n):
        return names.get(n, (0, 0.0, 0.0))[1]

    def total_s(n):
        return names.get(n, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "formula.parse.calls": calls("formula.parse"),
        "formula.parse.self_s": self_s("formula.parse"),
        "formula.pretty.self_s": self_s("formula.pretty"),
        "formula.intern.nodes": len(pp.formula._ATOM_INTERN) + len(pp.formula._BINARY_INTERN),
        "semantics.find_countermodel.calls": calls("semantics.find_countermodel"),
        "semantics.find_countermodel.self_s": self_s("semantics.find_countermodel"),
        "semantics.tautology_ratio": ratio(c["semantics.tautologies"],
                                           calls("semantics.find_countermodel")),
        "kernel.verify.calls": calls("kernel.verify"),
        "kernel.verify.self_s": self_s("kernel.verify"),
        "kernel.verify.steps": int(c["kernel.verify.steps"]),
        "kernel.recheck_ratio": ratio(c["kernel.verify.steps"], steps_total),
        "kernel.check.self_s": self_s("kernel.check"),
        "kernel.check.steps": int(c["kernel.check.steps"]),
        "kernel.prune.kept_ratio": ratio(c["kernel.prune.out"], c["kernel.prune.in"]),
        "tactics.build.calls": calls("tactics.build"),
        "tactics.build.self_s": self_s("tactics.build"),
        "tactics.include.self_s": self_s("tactics.include"),
        "tactics.deduction.calls": calls("tactics.deduction"),
        "tactics.deduction.self_s": self_s("tactics.deduction"),
        "tactics.deduction.growth": ratio(c["tactics.deduction.out"], c["tactics.deduction.in"]),
        "tactics.lemma.calls": calls("tactics.lemma"),
        "tactics.lemma.self_s": self_s("tactics.lemma"),
        "tactics.combinators.self_s": self_s("tactics.combinators"),
        "kalmar.prove.self_s": self_s("kalmar.prove"),
        "kalmar.build_line.calls": calls("kalmar.build_line"),
        "kalmar.build_line.self_s": self_s("kalmar.build_line"),
        "kalmar.build_line.steps": int(c["kalmar.build_line.steps"]),
        "kalmar.eliminate.self_s": self_s("kalmar.eliminate"),
        "kalmar.eliminate.steps": int(c["kalmar.eliminate.steps"]),
        "kalmar.line_cache.entries": len(pp.kalmar._LINE_CACHE),
        "transform.decompose.calls": calls("transform.decompose"),
        "transform.decompose.self_s": self_s("transform.decompose"),
        "transform.decompose.steps": int(c["transform.decompose.steps"]),
        "transform.translate.self_s": self_s("transform.translate"),
        "transform.translate.growth": ratio(c["transform.translate.out"],
                                            c["transform.translate.in"]),
        "proofio.write_text.self_s": self_s("proofio.write_text"),
        "proofio.write_text.mb_per_s": ratio(c["proofio.write_text.bytes"] / 1e6,
                                             total_s("proofio.write_text")),
        "proofio.read_text.self_s": self_s("proofio.read_text"),
        "proofio.read_text.mb_per_s": ratio(c["proofio.read_text.bytes"] / 1e6,
                                            total_s("proofio.read_text")),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }
    wall = total_s("bench.op")
    for layer in ("formula", "semantics", "kernel", "tactics", "kalmar",
                  "transform", "proofio", "cli", "bench"):
        m[f"layer.{layer}.self_s"] = layers.get(layer, 0.0)
    m["trace.wall_s"] = wall
    m["trace.accounted_ratio"] = ratio(sum(layers.values()), wall)
    m["trace.spans"] = len(tracer.spans)
    return m


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = p.parse_args()

    pp = import_program()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as workdir:
        plan = build(pp, args.workload, args.seed, workdir)
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        result = measure(pp, plan, args)
    if args.mode == "trace":
        out_dir = os.path.join(os.getcwd(), ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        result.pop("tracer").write(os.path.join(out_dir, f"spans-{args.workload}.tsv"))
    print(json.dumps(result), flush=True)
    return 0


def measure(pp, plan, args) -> dict:
    # the benchmark's own import site for the calls an op makes
    api = SimpleNamespace(prove=pp.kalmar.prove, prove_I=pp.transform.prove_I,
                          prove_P_reduction=pp.transform.prove_P_reduction,
                          write_text=pp.proofio.write_text, cli_main=pp.cli.main,
                          NotTautology=pp.kalmar.NotTautology,
                          ID=pp.kernel.CalculusId.ID, P=pp.kernel.CalculusId.P)
    tracer = None
    run = plan.run
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.install(spans.sites(pp, api))
        run = tracer.wrap("bench.op", run)

    perf = time.perf_counter
    latencies, problems = [], []
    busy = 0.0
    failed = steps_total = 0
    sample = None
    excluded = {key: [0, 0] for key in cache_counts(pp)}   # hits/misses from verification
    items, n_items = plan.items, len(plan.items)
    n_ops = plan.ops(args.seconds)
    cpus = sorted(os.sched_getaffinity(0))
    turn, next_turn = 0, 0.0
    i = 0
    loop_start = perf()
    while i < n_ops and perf() - loop_start < LOOP_LIMIT_S:
        if len(cpus) > 1 and perf() >= next_turn:
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            next_turn = perf() + ROTATE_S
        item = items[i % n_items]
        if tracer is not None:
            tracer.op = i
        t0 = perf()
        try:
            out, error = run(api, item), None
        except Exception as exc:  # an op that raises counts as failed
            out, error = None, exc
        dt = perf() - t0
        if tracer is not None:
            tracer.op = -1
        busy += dt
        latencies.append(dt)

        before = cache_counts(pp)
        if error is not None:
            found, steps, proof = [f"raised {type(error).__name__}: {error}"], 0, None
        else:
            found, steps, proof = plan.verify(item, out)
        del out
        for key, (hits, misses, _) in cache_counts(pp).items():
            excluded[key][0] += hits - before[key][0]
            excluded[key][1] += misses - before[key][1]
        if found:
            failed += 1
            if len(problems) < 5:
                problems.append(f"op {i}: {'; '.join(found[:3])}")
        if sample is None and proof is not None:
            sample = proof
        steps_total += steps
        i += 1

    os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    selfcheck = sample is not None and bool(
        workloads.check_proof(pp, corrupted(pp, sample[0]), sample[1], sample[2]))

    caches = {}
    for key, (hits, misses, size) in cache_counts(pp).items():
        hits -= excluded[key][0]
        misses -= excluded[key][1]
        caches[key] = {"entries": size, "hits": hits, "misses": misses}
    caches["formula.intern"] = {"entries": len(pp.formula._ATOM_INTERN)
                                + len(pp.formula._BINARY_INTERN)}
    caches["kalmar.line_cache"] = {"entries": len(pp.kalmar._LINE_CACHE)}

    ms = sorted(x * 1000 for x in latencies)
    cuts = statistics.quantiles(ms, n=100, method="inclusive") if len(ms) > 1 else ms * 99
    result = {
        "ops": i, "failed": failed, "problems": problems,
        "planned": n_ops, "complete": i == n_ops,
        "busy_s": busy, "ops_per_s": i / busy if busy else 0.0,
        "op_ms_p50": statistics.median(ms), "op_ms_p90": cuts[89], "op_ms_p99": cuts[98],
        "steps_total": steps_total,
        "file_bytes": sum(plan.written.values()),
        "peak_rss_mb": peak_rss_mb, "selfcheck": selfcheck, "caches": caches,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(pp, tracer, steps_total)
        result["tracer"] = tracer
    return result


if __name__ == "__main__":
    sys.exit(main())
