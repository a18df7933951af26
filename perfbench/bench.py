"""One workload of the gpktheory benchmark, in one process with one thread.

    python3 perfbench/bench.py --workload corpus --seed 1 --seconds 30 --trace 0

run.py is the launcher: it sets the thread environment and runs this file
in a child process.  The package is imported from src/ next to this
directory; nothing is installed.  See README.md for the workloads and
metrics.

A run has four phases:

1. set-up, timed;
2. a closed loop with one client: passes over the workload's inputs, in a
   seeded order, until --seconds have passed (the first pass always
   completes, so every input is attempted).  Peak RSS is read after the
   first pass; set-up is then timed SETUP_REPEATS - 1 more times, and its
   median is reported;
3. the census (corpus only): each input of a known defect is analyzed
   once, untimed and outside the counts of attempted and failed ops;
4. reference checks of every answer, census answers included, outside the
   timed region.

With --trace 1 the run instead does set-up once and two complete passes,
the first with spans recorded and the second without, traces the census
after the first, and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
IMPORT_REPEATS = 5
SETUP_REPEATS = 5
CAL_REF_S = 0.003  # calibration loop time at the reference machine speed
CAL_EVERY_S = 0.05  # least wall time between two calibration loops
CAL_TRIM = 0.1  # share of loops left out at each end of the run's mean


# ---------------------------------------------------------------------------
# time at a reference machine speed


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of small int64 matmuls mod p and dict/list work.

    The package spends its time on work of this kind, but the loop never
    calls it, so the loop's time follows only the speed the shared machine
    gives this process at the moment.
    """
    a = np.arange(64, dtype=np.int64).reshape(8, 8) % 5
    b = a.T.copy()
    acc = 0
    # no collection inside the loop: its time must not depend on how much
    # garbage the previous op left
    gc.disable()
    try:
        t = time.perf_counter()
        for i in range(400):
            c = (a @ b) % 5
            d = {j: j * i for j in range(20)}
            acc += int(c[i % 8, 3]) + sum(1 for x in d.values() if x % 3)
        return time.perf_counter() - t
    finally:
        gc.enable()


class RunClock:
    """Wall times of calls, and the speed of the run against the reference.

    After a timed call the calibration loop runs whenever CAL_EVERY_S have
    passed since the last one, so the loops sample the machine across the
    whole run.  Every time the run reports is its wall time multiplied by
    speed(): CAL_REF_S over the mean loop time of the run, one factor per
    run.  This removes most of the drift between runs of a shared machine
    while keeping the ratio between two versions of the package.  A factor
    per call, from the loops next to it, was noisier: a single loop jitters
    by about 13% within a run, a call's wall time by 2-5%.  The mean, not
    the median, weighs each speed the machine switched between by the time
    spent at it; the slowest and fastest CAL_TRIM of the loops (preempted
    ones, say) are left out.
    """

    def __init__(self):
        calibration_loop()  # first call pays numpy's one-time dispatch set-up
        self.cals = [calibration_loop()]
        self.last_cal = time.perf_counter()

    def start(self):
        # every timed call starts from a collected heap, so the collections
        # inside it do not depend on what the calls before it left behind;
        # the survivors are frozen, so this costs only what the last call left
        gc.collect()
        gc.freeze()
        self.t0 = time.perf_counter()

    def stop(self):
        """Wall seconds since start(); then a calibration loop, if one is due."""
        raw = time.perf_counter() - self.t0
        if time.perf_counter() - self.last_cal >= CAL_EVERY_S:
            self.cals.append(calibration_loop())
            self.last_cal = time.perf_counter()
        return raw

    def speed(self):
        """Reference seconds per wall second of this run, from the loops so far."""
        cals = sorted(self.cals)
        cut = int(len(cals) * CAL_TRIM)
        return CAL_REF_S / statistics.fmean(cals[cut:len(cals) - cut])


# ---------------------------------------------------------------------------
# statistics


def input_medians(samples: dict) -> list:
    """One time per input: the median of its samples.

    Inputs timed more often (those the deadline reached twice) then weigh
    no more than the others, so a cut-short pass does not shift the mix.
    """
    return [statistics.median(xs) for xs in samples.values()]


# ---------------------------------------------------------------------------
# workloads


class Op:
    """A timed call: `run()` returns the raw result, `summarize` makes it an answer."""

    __slots__ = ("key", "kind", "run", "summarize")

    def __init__(self, key, kind, run, summarize=lambda raw: raw):
        self.key, self.kind, self.run, self.summarize = key, kind, run, summarize


def _capture(argv):
    """cli.main in-process with its output captured: (exit code, stdout)."""
    from gpktheory import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _group(g):
    return None if g is None else (g["free_rank"], tuple(g["invariant_factors"]))


def _analyze_answer(raw):
    code, text = raw
    if code == 1 or not text:
        return {"code": code}
    j = json.loads(text)
    return {
        "code": code,
        "gorenstein": j["dimension_report"]["gorenstein_status"],
        "verdict": j["gp_catalog"]["verdict"],
        "items": len(j["gp_catalog"]["items"]),
        "k0": _group(j["k0"]),
        "k1": None if j["k1"] is None else tuple(j["k1"]["invariant_factors"]),
    }


def _compare_answer(raw):
    code, text = raw
    if code == 1 or not text:
        return {"code": code}
    j = json.loads(text)
    return {
        "code": code,
        "comparison": j["comparison"],
        "k0": (_group(j["first"]["k0"]), _group(j["second"]["k0"])),
    }


class Workload:
    """Defaults of the three workloads below."""

    fresh_state_per_pass = False  # each pass needs newly built inputs
    warm_up_pass = False  # one untimed pass after set-up fills the caches

    # setup() builds the state; a timed set-up is timed as a whole

    def prepare(self, state):
        """Untimed work on the state in use, after its set-up."""

    def census_ops(self, state):
        """Ops of known defects, run once after the timed loop and not timed."""
        return []

    @staticmethod
    def ref_key(key):
        """The reference an op's answer is checked against."""
        return key

    def extra_report(self, recorder, speed):
        """Report-only lines: [(name, value, unit)]."""
        return []


class Corpus(Workload):
    """`gpk analyze` on generated families and shipped files; `gpk compare`.

    Every op parses its file and builds a fresh algebra, so caches start
    cold on every op.  Set-up draws the presentations, builds each with the
    library (the instance is kept only for the Cartan reference) and
    serializes it as `.alg` text; the files are written untimed.  The
    strata of known defects (corpus.known_defect) are not timed: the census
    analyzes each of them once after the timed loop.
    """

    name = "corpus"
    COMPARE = (("example61A", "example61B"), ("example62A", "example62B"))

    def __init__(self, seed):
        self.seed = seed
        self.dir = OUT / f"corpus-seed{seed}"

    def setup(self):
        import corpus
        import gpktheory as gpk
        from gpktheory import cli

        rng = random.Random(self.seed)
        inputs, census, texts = [], [], []
        for i, st in enumerate(corpus.generated_strata()):
            pres = corpus.draw_presentation(st, rng)
            q, rels, a = pres.build()
            text = cli.serialize(cli.AlgebraFile(pres.name, gpk.FieldSpec(pres.p), q, rels))
            path = self.dir / f"{i:03d}-{pres.name}-gf{pres.p}.alg"
            texts.append((path, text))
            (census if corpus.known_defect(st) else inputs).append((st.key, str(path), st, a))
        for name in corpus.SHIPPED:
            a = corpus.shipped(name).build()[2]
            inputs.append((f"shipped({name})", f"{name}.alg", None, a))
        rng.shuffle(inputs)
        compares = [(f"compare({x},{y})/GF({p})", x, y, p)
                    for x, y in self.COMPARE for p in (3, 5, 7)]
        rng.shuffle(compares)
        return {"inputs": inputs, "census": census, "compares": compares, "texts": texts}

    def prepare(self, state):
        self.dir.mkdir(parents=True, exist_ok=True)
        for path, text in state["texts"]:
            path.write_text(text)

    @staticmethod
    def _analyze_ops(kind, inputs):
        return [
            Op(key, kind, lambda path=path: _capture(["analyze", path, "--json"]),
               _analyze_answer)
            for key, path, _, _ in inputs
        ]

    def plan(self, state):
        ops = self._analyze_ops("main", state["inputs"])
        ops += [
            Op(key, "side",
               lambda x=x, y=y, p=p: _capture(
                   ["compare", f"{x}.alg", f"{y}.alg", "--field", str(p), "--json"]),
               _compare_answer)
            for key, x, y, p in state["compares"]
        ]
        return ops

    def census_ops(self, state):
        return self._analyze_ops("census", state["census"])

    def references(self, state):
        import corpus

        refs = {}
        for key, _, st, a in state["inputs"] + state["census"]:
            ref = {"cartan": corpus.cartan_k0(a)}
            if st is None:
                name = key[len("shipped("):-1]
                ref["verdict"], ref["items"], ref["k1"] = corpus.SHIPPED_EXPECTED[name]
            else:
                ref["items"] = corpus.expected_catalog_size(st)
                ref["k1"] = corpus.expected_k1(st)
                if ref["items"] is not None:
                    ref["verdict"] = "CMFinite"
            refs[key] = ref
        for key, x, y, p in state["compares"]:
            refs[key] = {"cartan": tuple(
                corpus.cartan_k0(corpus.shipped(n, p).build()[2]) for n in (x, y))}
        return refs

    def check(self, kind, ans, ref):
        """None when the answer agrees with every reference, else the reason."""
        if kind == "side":
            cmp_ = ans["comparison"]
            if not (cmp_["all_predicted_equal"] and cmp_["gorenstein_equal"]):
                return f"comparison {cmp_}"
            if ans["k0"] != ref["cartan"]:
                return f"K0 {ans['k0']} != Cartan {ref['cartan']}"
            return None
        if ans["code"] == 2:
            return None if ans["verdict"] == "Unknown" or ans["k0"] is None else (
                "exit 2 with a settled answer")
        if "verdict" in ref and ans["verdict"] != ref["verdict"]:
            return f"verdict {ans['verdict']} != {ref['verdict']}"
        if ref.get("items") is not None and ans["items"] != ref["items"]:
            return f"{ans['items']} catalog items != {ref['items']}"
        if ans["gorenstein"] == "yes" and ans["k0"] != ref["cartan"]:
            return f"K0 {ans['k0']} != Cartan {ref['cartan']}"
        if ref.get("k1") is not None and ans["k1"] != tuple(ref["k1"]):
            return f"K1 {ans['k1']} != {ref['k1']}"
        return None


class Oracle(Workload):
    """`build_wdata` + `k0_oracle` at depth 1, and gluing-ladder triples.

    Inputs are the shipped algebras whose depth-1 oracle fits in a few
    seconds (kx2, semisimple2, example62A, example62B) over GF(2), GF(3)
    and GF(5).  Each pass gets fresh algebra instances with their GP
    catalogs built in set-up, so every op starts from the state
    `gpk oracle-k0` sees after its catalog.
    """

    name = "oracle"
    fresh_state_per_pass = True
    ALGEBRAS = ("kx2", "semisimple2", "example62A", "example62B")
    FIELDS = (2, 3, 5)
    DEPTH = 1
    LADDERS = 3  # gluing_check(trials=3) calls per input and pass

    def __init__(self, seed):
        self.seed = seed
        keys = [(n, p) for n in self.ALGEBRAS for p in self.FIELDS]
        # the ladders are the same for every seed, so every seed times
        # ladders of the same cost; the seed draws the order of the ops
        layout = random.Random("ladders")
        self.ladder_seeds = {
            (n, p, j): layout.randrange(2**31) for n, p in keys for j in range(self.LADDERS)
        }
        random.Random(seed).shuffle(keys)
        self.keys = keys

    def setup(self):
        import corpus
        import gpktheory as gpk

        state = {}
        for n, p in self.keys:
            a = corpus.shipped(n, p).build()[2]
            state[(n, p)] = {"catalog": gpk.gp_catalog(a)}
        return state

    def plan(self, state):
        import gpktheory as gpk

        ops = []
        for n, p in self.keys:
            slot = state[(n, p)]
            key = f"{n}/GF({p})"

            def crosscheck(slot=slot):
                data = gpk.build_wdata(slot["catalog"], depth=self.DEPTH)
                group = gpk.k0_oracle(data)
                slot["data"] = data
                return group, len(data.cofibrations)

            ops.append(Op(key, "main", crosscheck,
                          lambda raw: ((raw[0].free_rank, tuple(raw[0].invariant_factors)),
                                       raw[1])))
            for j in range(self.LADDERS):
                ops.append(Op(
                    f"{key}#ladder{j}", "side",
                    lambda slot=slot, s=self.ladder_seeds[(n, p, j)]: gpk.gluing_check(
                        slot["data"], trials=3, seed=s),
                    lambda rep: (rep.trials, len(rep.counterexamples)),
                ))
        return ops

    def references(self, state):
        import corpus
        import gpktheory as gpk

        refs = {}
        for n, p in self.keys:
            a = corpus.shipped(n, p).build()[2]
            direct = gpk.k0_gorenstein(a, gpk.gp_catalog(a))
            refs[f"{n}/GF({p})"] = {
                "direct": (direct.free_rank, tuple(direct.invariant_factors)),
                "cartan": corpus.cartan_k0(a),
            }
        return refs

    def check(self, kind, ans, ref):
        if kind == "side":
            trials, bad = ans
            return None if trials == 3 and bad == 0 else f"{bad} gluing counterexamples"
        group, _ = ans
        if not group == ref["direct"] == ref["cartan"]:
            return f"oracle {group}, direct {ref['direct']}, Cartan {ref['cartan']}"
        return None

    @staticmethod
    def ref_key(key):
        return key.split("#", 1)[0]

    def extra_report(self, recorder, speed):
        """Cofibrations certified per second of build_wdata + k0_oracle."""
        cof = sum(ans[1] for (kind, _), res in recorder.answers.items() if kind == "main"
                  for status, ans in res if status == "ok")
        main_s = sum(map(sum, recorder.samples["main"].values()))
        return [("cofibrations_per_s", cof / (main_s * speed), "1/s")]


class Warm(Workload):
    """Repeated stable-isomorphism queries and SEMT checks on objects built once.

    Set-up builds the algebras, their GP catalogs, the query modules and the
    regular bimodules (with their tensor algebras); one untimed warm-up
    pass then fills the per-algebra caches, and every timed pass reads them.
    """

    name = "warm"
    warm_up_pass = True
    QUERY_ALGEBRAS = (("example61A", 3), ("example61B", 3), ("nakayama", 3))
    SEMT_ALGEBRAS = (("kx2", 2), ("arrow", 3), ("example61B", 3))
    PER_SHAPE = 3  # queries per (left summands, right summands) shape

    def __init__(self, seed):
        self.seed = seed

    def _algebra(self, name, p, rng):
        import corpus
        import gpktheory as gpk

        if name == "nakayama":
            st = corpus.Stratum("nakayama", (("n", 3), ("L", 2)), p)
            return corpus.draw_presentation(st, rng).build()[2]
        if name == "arrow":
            q = gpk.Quiver.make(["1", "2"], [("a", "1", "2")])
            return gpk.build_algebra(q, [], gpk.FieldSpec(p))
        return corpus.shipped(name, p).build()[2]

    def setup(self):
        import gpktheory as gpk

        rng = random.Random(self.seed)
        queries = []
        for name, p in self.QUERY_ALGEBRAS:
            a = self._algebra(name, p, rng)
            cat = gpk.gp_catalog(a)
            pool = list(cat.items) + [gpk.projective(a, v) for v in a.quiver.vertices]
            n_items = len(cat.items)
            # which pool modules make up each query is the same for every
            # seed, so every seed asks queries of the same cost; the seed
            # draws the order of the summands (hence the modules' bases), the
            # witness-search seed and the order of the queries
            layout = random.Random(f"{name}/GF({p})")
            for left_n in (1, 2, 3):
                for right_n in (1, 2, 3):
                    for k in range(self.PER_SHAPE):
                        li = [layout.randrange(len(pool)) for _ in range(left_n)]
                        ri = [layout.randrange(len(pool)) for _ in range(right_n)]
                        rng.shuffle(li)
                        rng.shuffle(ri)
                        x = gpk.direct_sum([pool[i] for i in li])[0]
                        y = gpk.direct_sum([pool[i] for i in ri])[0]
                        # catalog items are pairwise non-isomorphic and
                        # non-projective, so x and y are stably isomorphic
                        # exactly when their item multisets agree
                        expect = sorted(i for i in li if i < n_items) == sorted(
                            i for i in ri if i < n_items)
                        key = f"{name}/GF({p})#{left_n}x{right_n}.{k}"
                        queries.append((key, x, y, rng.randrange(2**31), expect))
        rng.shuffle(queries)
        semts = []
        for name, p in self.SEMT_ALGEBRAS:
            a = self._algebra(name, p, rng)
            reg = gpk.regular_bimodule(a)
            samples = [gpk.simple(a, v) for v in a.quiver.vertices]
            samples += [gpk.projective(a, v) for v in a.quiver.vertices]
            semts.append((f"semt({name})/GF({p})", reg, samples))
        # the first witness each query returns, verified after the timed loop
        return {"queries": queries, "semts": semts, "witnesses": {}}

    def plan(self, state):
        import gpktheory as gpk

        witnesses = state["witnesses"]

        def query(key, x, y, s):
            answer, witness = gpk.is_weakly_equivalent(x, y, seed=s)
            witnesses.setdefault(key, witness)
            return answer

        ops = [
            Op(key, "main", lambda key=key, x=x, y=y, s=s: query(key, x, y, s))
            for key, x, y, s, _ in state["queries"]
        ]

        def semt(reg, samples):
            report = gpk.check_semt(reg, reg)
            uc = gpk.check_unit_counit_pd(reg, reg, samples)
            return report, uc

        ops += [
            Op(key, "side", lambda reg=reg, samples=samples: semt(reg, samples),
               lambda raw: (raw[0].passed, raw[0].p.dim if raw[0].p else None,
                            raw[0].q.dim if raw[0].q else None, raw[1].passed,
                            all(e["defect_projective"] for e in raw[1].entries)))
            for key, reg, samples in state["semts"]
        ]
        return ops

    def references(self, state):
        import gpktheory as gpk
        from gpktheory.rep import identity_morphism

        def strip(x):
            parts = [(r, m) for r, m in gpk.decompose(x) if not gpk.is_projective(r)]
            if not parts:
                return gpk.zero_rep(x.algebra)
            return gpk.direct_sum([r for r, m in parts for _ in range(m)])[0]

        def stably_identity(h, x):
            """h - id is zero in the stable endomorphisms of x."""
            dim, basis = gpk.stable_hom(x, x)
            return dim == 0 or basis[0].space.is_stably_zero(h.sub(identity_morphism(x)))

        def witness_holds(witness, x, y):
            """None, or f: x -> y and g: y -> x with g f and f g stably the identity."""
            if witness is None:
                return None
            f, g = witness
            return (f.domain is x and f.codomain is y and g.domain is y and g.codomain is x
                    and stably_identity(g.compose(f), x) and stably_identity(f.compose(g), y))

        refs = {}
        for key, x, y, _, expect in state["queries"]:
            by_strip = gpk.is_isomorphic(strip(x), strip(y))[0]
            refs[key] = {"stripping": by_strip, "multiset": expect,
                         "witness": witness_holds(state["witnesses"][key], x, y)}
        for key, _, _ in state["semts"]:
            refs[key] = {"semt": (True, 0, 0, True, True)}
        return refs

    def check(self, kind, ans, ref):
        if kind == "side":
            return None if ans == ref["semt"] else f"semt report {ans}"
        if not ans == ref["stripping"] == ref["multiset"]:
            return (f"witness route {ans}, stripping {ref['stripping']}, "
                    f"item multisets {ref['multiset']}")
        if ans and ref["witness"] is not True:
            return "no witness" if ref["witness"] is None else "witness not stably inverse"
        if not ans and ref["witness"] is not None:
            return "a witness for modules not stably isomorphic"
        return None


WORKLOADS = {"corpus": Corpus, "oracle": Oracle, "warm": Warm}


# ---------------------------------------------------------------------------
# the run


class Recorder:
    """Times ops and keeps per-input samples and answers.

    samples holds wall seconds; the report scales them by the run's speed.
    """

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.samples = defaultdict(lambda: defaultdict(list))  # kind -> key -> [s]
        self.answers = defaultdict(list)  # (kind, key) -> [answer or exception text]
        self.tracer = tracer
        self.count = 0

    def run_pass(self, ops, deadline=None):
        """Run the ops in order; False when the deadline cut the pass short."""
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            if self.tracer is not None:
                self.tracer.op = self.count
            self.count += 1
            self.clock.start()
            try:
                raw = op.run()
                failure = None
            except Exception as exc:  # a known defect surfaces as a traceback
                failure = f"raised {type(exc).__name__}: {str(exc)[:120]}"
            self.samples[op.kind][op.key].append(self.clock.stop())
            self.answers[(op.kind, op.key)].append(
                ("raised", failure) if failure else ("ok", op.summarize(raw)))
        return True

    def total(self):
        return sum(sum(map(sum, self.samples[k].values())) for k in ("main", "side"))


def classify(workload, recorder, refs):
    """Outcome per input: verified, undecided or failed, with a reason."""
    rows = {}
    wrong = 0
    for (kind, key), results in recorder.answers.items():
        outcome, reason = "verified", ""
        for status, ans in results:
            if status == "raised":
                outcome, reason = "failed", ans
                break
            if isinstance(ans, dict) and ans.get("code") == 1:
                outcome, reason = "failed", "exit 1"
                break
            why = workload.check(kind, ans, refs[workload.ref_key(key)])
            if why is not None:
                outcome, reason = "failed", f"wrong answer: {why}"
                wrong += 1
                break
            if isinstance(ans, dict) and ans.get("code") == 2:
                outcome, reason = "undecided", "exit 2"
        if any(ans != results[0][1] for _, ans in results):
            outcome, reason = "failed", "answers differ between passes"
            wrong += 1
        rows[(kind, key)] = (outcome, reason)
    return rows, wrong


def write_rows(path, workload, recorded, speed):
    """One row per input, from [(recorder, rows)]; times in ms at the reference speed and wall."""
    with open(path, "w") as fh:
        for recorder, rows in recorded:
            for (kind, key), (outcome, reason) in sorted(rows.items()):
                xs = recorder.samples[kind][key]
                fh.write(json.dumps({
                    "workload": workload.name, "kind": kind, "input": key,
                    "outcome": outcome, "reason": reason, "samples": len(xs),
                    "samples_ms": [round(1e3 * x * speed, 3) for x in xs],
                    "wall_ms": [round(1e3 * x, 3) for x in xs],
                }) + "\n")


def untraced_metrics(workload, recorder, rows, setup_s, peak_rss_mb, speed):
    main = [x * speed for x in input_medians(recorder.samples["main"])]
    side = [x * speed for x in input_medians(recorder.samples["side"])]
    verified = sum(
        1 for key in recorder.samples["main"] if rows[("main", key)][0] == "verified")
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_p50_ms": (1e3 * float(np.percentile(main, 50)), "ms"),
        "verified_per_s": (verified / sum(main), "1/s"),
        "side_p50_ms": (1e3 * float(np.percentile(side, 50)), "ms"),
    }


# the end-to-end metrics under the names each workload's report uses
REPORT_NAMES = {
    "corpus": {"op_p50_ms": "analyze_p50_ms", "op_p90_ms": "analyze_p90_ms",
               "verified_per_s": "verified_per_s", "side_p50_ms": "compare_p50_ms"},
    "oracle": {"op_p50_ms": "crosscheck_p50_ms", "op_p90_ms": "crosscheck_p90_ms",
               "verified_per_s": "crosschecks_per_s", "side_p50_ms": "ladder_p50_ms"},
    "warm": {"op_p50_ms": "stable_iso_p50_ms", "op_p90_ms": "stable_iso_p90_ms",
             "verified_per_s": "stable_iso_per_s", "side_p50_ms": "semt_p50_ms"},
}


def report(workload, recorder, rows, metrics, extra):
    w = workload.name
    main, side = recorder.samples["main"], recorder.samples["side"]
    outcomes = defaultdict(int)
    for outcome, _ in rows.values():
        outcomes[outcome] += 1
    print(f"{w}: {len(main)} inputs x {len(side)} side inputs, "
          f"{sum(map(len, main.values()))} + {sum(map(len, side.values()))} timed ops; "
          f"outcomes per input {dict(outcomes)}")
    for name, (value, unit) in metrics.items():
        alias = REPORT_NAMES[w].get(name, name)
        print(f"{w}  {alias:<22} {value:14.4f} {unit}")
    for alias, value, unit in extra:
        print(f"{w}  {alias:<22} {value:14.4f} {unit}")


def census_report(census_rows):
    """Report-only lines of the census: known-defect inputs, and how many still fail."""
    if not census_rows:
        return []
    failing = sum(1 for outcome, _ in census_rows.values() if outcome == "failed")
    return [("census_inputs", len(census_rows), "count"),
            ("census_failed", failing, "count")]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gpktheory" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    import_wall_s = timed_import()
    clock = RunClock()
    import gpktheory
    import gpktheory.cli  # noqa: F401  (cli.main is the entry point under test)

    if Path(gpktheory.__file__).resolve().parent != (src / "gpktheory").resolve():
        print(f"error: gpktheory imported from {gpktheory.__file__}", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    tag = f"{workload.name}-seed{args.seed}"
    if args.trace:
        return traced_run(workload, tag, clock)

    clock.start()
    state = workload.setup()
    setup_times = [clock.stop()]
    workload.prepare(state)
    warmup_s = 0.0
    if workload.warm_up_pass:
        warm = Recorder(clock)
        warm.run_pass(workload.plan(state))
        warmup_s = warm.total()

    rec = Recorder(clock)
    start = time.perf_counter()
    rec.run_pass(workload.plan(state))
    passes = 1
    # the peak of one set-up and one pass: later passes repeat the same work,
    # and the further set-ups below only serve the set-up time and later passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setups_from = time.perf_counter()
    spare = []
    for _ in range(SETUP_REPEATS - 1):
        clock.start()
        fresh = workload.setup()
        setup_times.append(clock.stop())
        if workload.fresh_state_per_pass:
            spare.append(fresh)
        del fresh
    setups_wall = time.perf_counter() - setups_from
    deadline = start + setups_wall + args.seconds

    while time.perf_counter() < deadline:
        if workload.fresh_state_per_pass:
            state = spare.pop() if spare else workload.setup()
        passes += 1
        if not rec.run_pass(workload.plan(state), deadline):
            break
    measured_s = time.perf_counter() - start - setups_wall
    speed = clock.speed()
    setup_s = (import_wall_s + statistics.median(setup_times) + warmup_s) * speed
    census = Recorder(clock)
    census.run_pass(workload.census_ops(state))

    refs = workload.references(state)
    rows, wrong = classify(workload, rec, refs)
    census_rows, census_wrong = classify(workload, census, refs)
    write_rows(OUT / f"rows-{tag}.jsonl", workload, [(rec, rows), (census, census_rows)], speed)
    metrics = untraced_metrics(workload, rec, rows, setup_s, peak_rss_mb, speed)
    attempted = rec.count
    failed_ops = sum(
        len(rec.samples[kind][key])
        for (kind, key), (outcome, _) in rows.items() if outcome == "failed"
    )
    # report-only: on oracle the p90 of 12 inputs is the time of its second
    # slowest input, sampled once or twice a run, too unsteady to bound
    p90_ms = 1e3 * speed * float(np.percentile(input_medians(rec.samples["main"]), 90))
    extra = [(REPORT_NAMES[workload.name]["op_p90_ms"], p90_ms, "ms"),
             ("failed_frac", failed_ops / attempted, "ratio"),
             ("passes", passes, "count"), ("measured_s", measured_s, "s"),
             ("machine_speed", speed, "ratio"), ("import_wall_s", import_wall_s, "s"),
             ("warmup_wall_s", warmup_s, "s")]
    extra += census_report(census_rows)
    extra += workload.extra_report(rec, speed)
    report(workload, rec, rows, metrics, extra)
    for (kind, key), (outcome, reason) in sorted({**rows, **census_rows}.items()):
        if outcome != "verified":
            print(f"{workload.name}  {outcome:<9} {kind:<6} {key}: {reason}")
    print(json.dumps({
        "correct": wrong == 0 and census_wrong == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy
t = time.perf_counter()
import gpktheory.cli
print(time.perf_counter() - t)
"""


def timed_import():
    """Wall seconds of importing the package into a fresh process.

    The median over IMPORT_REPEATS child processes that each import numpy
    untimed and then time `import gpktheory.cli`, the entry point under
    test.  The children keep the repeats out of this process's memory.
    """
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")]
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def code_hash() -> str:
    """Hash of the package sources and of this benchmark's code.

    Counts are compared only between traced runs of identical code, since a
    change to either may change them legitimately.
    """
    files = [f for f in (ROOT / "src" / "gpktheory").rglob("*")
             if f.is_file() and "__pycache__" not in f.parts]
    files += (ROOT / "perfbench").glob("*.py")
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def traced_run(workload, tag, clock):
    from tracing import Tracer, deterministic_counts, per_layer_metric_names

    tracer = Tracer()
    tracer.install()
    tracer.on = True
    state = workload.setup()
    workload.prepare(state)
    if workload.warm_up_pass:
        Recorder(clock, tracer).run_pass(workload.plan(state))
    traced = Recorder(clock, tracer)
    traced.run_pass(workload.plan(state))
    # the census is traced, so <module>.failed shows where each known defect starts
    census = Recorder(clock, tracer)
    census.run_pass(workload.census_ops(state))
    tracer.on = False
    if workload.fresh_state_per_pass:
        state = workload.setup()
    plain = Recorder(clock)
    plain.run_pass(workload.plan(state))

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced.total() / plain.total()
    tracer.write(OUT / f"spans-{tag}.npz")

    counts = deterministic_counts(metrics)
    counts_path = OUT / f"counts-{tag}-{code_hash()}.json"
    same = True
    if counts_path.exists():
        previous = json.loads(counts_path.read_text())
        diff = sorted(k for k in counts if previous.get(k) != counts[k])
        same = not diff
        print(f"{workload.name}: counts vs an earlier traced run of this code with this seed: "
              + ("identical" if same else f"DIFFERENT in {', '.join(diff)}"))
    else:
        print(f"{workload.name}: first traced run of this code with this seed; "
              f"counts written to {counts_path.relative_to(ROOT)}")
    counts_path.write_text(json.dumps(counts, indent=1, sort_keys=True))

    refs = workload.references(state)
    rows, wrong = classify(workload, traced, refs)
    census_rows, census_wrong = classify(workload, census, refs)
    failed_ops = sum(1 for outcome, _ in rows.values() if outcome == "failed")
    units = dict(per_layer_metric_names())
    for name, unit in units.items():
        print(f"{workload.name}  {name:<44} {metrics[name]:14.6g} {unit}")
    for name, value, unit in census_report(census_rows):
        print(f"{workload.name}  {name:<44} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0 and census_wrong == 0 and same,
        "attempted": traced.count,
        "failed": failed_ops,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
