"""The three benchmark workloads: seeded inputs, one op, and its oracle.

Every workload hands the library only inputs generated from the seed and
splits its schedule into passes.  A pass is a fixed set of ops whose mix
of input sizes does not depend on the seed (work per op depends on the
atom count and the quadrature parameters, not on positions), so that throughput and
latency quantiles of two seeds measure the same work:

equiv-family  one pass = the next EQUIV_PER_PASS 6-atom members of a
              seeded ``measure_family(m=1, R=8)`` stream;
              op = ``besov_neg_proxy`` + ``M_nu_s`` at a matched cutoff.
dirac-sweep   one pass = DIRAC_BLOCK unit Dirac atoms with (a, q, log eps)
              Latin-hypercube sampled, a = q(s - m/q') in [-0.5, 0.6];
              op = ``besov_neg_proxy`` at the default rtol 1e-6.
cli-demos     one pass = a fixed list of ``wedgecap.cli.main`` argv's
              on the demos/ inputs and seeded variants, stdout captured.

PASS_SECONDS is the wall time of one pass on a 2-core x86 VM with
single-threaded BLAS; run.py sizes runs from it.

``check`` runs outside the timed region and returns ``None`` for a
correct output, or ``(kind, reason)`` where kind is ``"fail"`` or a key
of KNOWN_DEFECTS; reasons for a wrong divergence verdict start with
VERDICT_MISMATCH.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

import wedgecap
import wedgecap.cli
from wedgecap import QuadratureSpec, critical_exponents, dirac, params_from_report
from wedgecap.besov import poisson_constant
from wedgecap.experiments import measure_family

# The ops call the library through module attributes (wedgecap.besov_neg_proxy,
# wedgecap.cli.main), which the traced run replaces with its wrappers.

# criterion 6 of the acceptance suite
EQUIV = dict(N=3, k=2, gamma=4.0, q=1.8, R=8.0, eps=1e-2, rtol=1e-4)
MAX_ATOMS = 10
# Only the 6-atom members are timed.  Work per op grows with the atom
# count (3.3e6 atom-cells at 1 atom, 2.44e8 at 10), so in a 1..10 mix the
# median and tail sit on a handful of ops of very different size and
# moved by up to 34% between runs on the shared 2-core VM; ops of one
# size keep them within the run-to-run drift of the host.
EQUIV_ATOMS = 6
EQUIV_PER_PASS = 5

DIRAC_BLOCK = 20
DIRAC_A = (-0.5, 0.6)
DIRAC_Q = (1.6, 3.0)
DIRAC_LOG10_EPS = (-2.5, -1.0)
DIRAC_RTOL = 1e-6      # the default QuadratureSpec rtol the op runs at

VERDICT_MISMATCH = "verdict mismatch"
# library defects the workloads keep in their samples; they count as failed
# ops but do not make a run incorrect
KNOWN_DEFECTS = {
    "near-critical-verdict":
        "besov_neg_proxy calls near-critical Dirac proxies with a = q(s - m/q') "
        "in (0, NEAR_CRITICAL_A_MAX) divergent: the cutoff ladder's fitted "
        "slope falls below -0.1 with R^2 > 0.99",
    "narrow-box-bracket":
        "the spectral chain raises BracketError ('could not isolate a positive "
        "first eigenfunction', CLI exit 3) on k=4 box openings whose first "
        "interval is narrower than NARROW_BOX_MAX rad",
}
# The library's verdict rule applied to the closed-form ladder calls a Dirac
# proxy divergent up to a = 0.228 for log10 eps in [-2.5, -1]; every other
# wrong verdict is a failure.
NEAR_CRITICAL_A_MAX = 0.25
# Over 600 seeds the widest first interval that raised was 0.223 rad.
NARROW_BOX_MAX = 0.25
BRACKET_MESSAGE = "could not isolate a positive first eigenfunction"


class EquivFamily:
    name = "equiv-family"
    PASS_SECONDS = 4.0

    def __init__(self, seed):
        report = critical_exponents(EQUIV["N"], EQUIV["k"], EQUIV["gamma"])
        self.q = EQUIV["q"]
        self.s = report.s(self.q)
        self.params = params_from_report(report, self.q, R=EQUIV["R"])
        self.quad = QuadratureSpec(rtol=EQUIV["rtol"])
        self._seed = seed
        self._picked = []
        self._drawn = 0

    def ops(self, index):
        """The next EQUIV_PER_PASS EQUIV_ATOMS-atom members of the seeded
        family; measure_family's stream is prefix-stable, so drawing it
        longer keeps the members already picked."""
        need = (index + 1) * EQUIV_PER_PASS
        while len(self._picked) < need:
            self._drawn += 200
            fam = measure_family(1, EQUIV["R"], n_measures=self._drawn,
                                 seed=self._seed, max_atoms=MAX_ATOMS)
            self._picked = [(i, mu) for i, mu in enumerate(fam)
                            if mu.n_atoms == EQUIV_ATOMS]
        return [("measure %d" % i, mu) for i, mu in self._picked[need - EQUIV_PER_PASS:need]]

    def run(self, op):
        mu = op[1]
        proxy = wedgecap.besov_neg_proxy(mu, self.s, self.q, eps=EQUIV["eps"],
                                         quad=self.quad)
        M, _ = wedgecap.M_nu_s(mu, self.params, quad=self.quad, eps=EQUIV["eps"])
        return proxy, M

    def output_bytes(self, out):
        return 0

    def check(self, op, out):
        proxy, M = out
        # s(q) = 2/9 < m/q' = 4/9: the matched-cutoff pair sits in the window
        if not proxy.divergent:
            return "fail", VERDICT_MISMATCH + ": proxy not divergent although s(q) < m/q'"
        for label, v in (("proxy", proxy.value), ("M", M)):
            if not (math.isfinite(v) and v > 0.0):
                return "fail", "%s value %r is not finite and positive" % (label, v)
        return None


def warm_up_equiv():
    rep = critical_exponents(EQUIV["N"], EQUIV["k"], EQUIV["gamma"])
    quad = QuadratureSpec(rtol=EQUIV["rtol"])
    q = EQUIV["q"]
    wedgecap.besov_neg_proxy(dirac(1), rep.s(q), q, eps=EQUIV["eps"], quad=quad)
    wedgecap.M_nu_s(dirac(1), params_from_report(rep, q, R=EQUIV["R"]), quad=quad,
           eps=EQUIV["eps"])


class DiracSweep:
    name = "dirac-sweep"
    PASS_SECONDS = 1.4

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._blocks = []

    def _lhs(self, lo_hi):
        lo, hi = lo_hi
        u = (self._rng.permutation(DIRAC_BLOCK) + self._rng.random(DIRAC_BLOCK))
        return lo + (hi - lo) * u / DIRAC_BLOCK

    def ops(self, index):
        while len(self._blocks) <= index:
            a, q, le = (self._lhs(DIRAC_A), self._lhs(DIRAC_Q),
                        self._lhs(DIRAC_LOG10_EPS))
            z = self._rng.uniform(-2.0, 2.0, DIRAC_BLOCK)
            block = []
            for ai, qi, lei, zi in zip(a, q, le, z):
                a_, q_ = float(ai), float(qi)
                s = (a_ + q_ - 1.0) / q_          # a = s q - q + 1
                block.append(("a=%+.4f q=%.4f" % (a_, q_),
                              dict(a=a_, q=q_, s=s, eps=10.0 ** float(lei),
                                   mu=dirac(1, [float(zi)]))))
            self._blocks.append(block)
        return self._blocks[index]

    def run(self, op):
        p = op[1]
        return wedgecap.besov_neg_proxy(p["mu"], p["s"], p["q"], eps=p["eps"])

    def output_bytes(self, out):
        return 0

    def _exact(self, p, cut):
        """gamma_2^q c(2q) Gamma(sq - q + 1, cut), the Dirac proxy on R^1."""
        import mpmath
        q = p["q"]
        c = math.sqrt(math.pi) * math.gamma(q - 0.5) / math.gamma(q)
        return poisson_constant(2) ** q * c * float(mpmath.gammainc(p["a"], cut))

    def check(self, op, res):
        p = op[1]
        if len(res.ladder) != 4:
            return "fail", "ladder has %d rungs, expected 4" % len(res.ladder)
        for cut, v in res.ladder:
            exact = self._exact(p, cut)
            if not abs(v - exact) <= DIRAC_RTOL * exact:
                return "fail", ("rung eps=%.3g: %r vs closed form %r (rel %.2g)"
                                % (cut, v, exact, abs(v / exact - 1.0)))
        if res.divergent != (p["a"] <= 0.0):
            kind = ("near-critical-verdict"
                    if res.divergent and 0.0 < p["a"] < NEAR_CRITICAL_A_MAX else "fail")
            return kind, ("%s: a=%+.4f, divergent=%s, fitted slope %.3f, R^2 %.4f"
                          % (VERDICT_MISMATCH, p["a"], res.divergent,
                             res.fitted_exponent, res.r_squared))
        return None


def warm_up_dirac():
    wedgecap.besov_neg_proxy(dirac(1), 0.7, 2.0, eps=2e-2)


# --------------------------------------------------------------------------
# cli-demos

CUBE_VERDICTS = {   # acceptance criterion 10 at q = 1.7
    "face": ("subcritical", 2.0, None, None),
    "edge": ("capacity-regime", 5.0 / 3.0, 2.0, 0.3529411764705883),
    "vertex": ("vertex-supercritical", 1.5, None, None),
}
CAPACITY_ALPHAS = (("0.35", "vanishing"), ("0.8", "positive"))   # p = 2, ell = 1
HEAT_VARIANTS = 3


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wedgecap.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class CliDemos:
    name = "cli-demos"
    PASS_SECONDS = 4.6

    def __init__(self, seed, workdir):
        # paths are relative to the checkout root, the working directory,
        # so stdout (which echoes them) is the same in every checkout
        rng = np.random.default_rng(seed)
        demos = "demos"
        mu_path = os.path.join(workdir, "measure.json")
        set_path = os.path.join(workdir, "grid_set.json")
        zs = rng.uniform(-2.0, 2.0, 3)
        _write_json(mu_path, {"m": 1, "atoms": [
            {"z": [float(z)], "w": float(1.0 - rng.random())} for z in zs]})
        # three points spanning 1.2, so the capacity grid size is fixed
        pts = rng.uniform(-1.0, 1.0) + np.array([-0.6, rng.uniform(-0.4, 0.4), 0.6])
        _write_json(set_path, {"pieces": [{"stratum": "edge", "kind": "grid",
                                           "points": [[float(x)] for x in pts]}]})

        def f(x):
            return repr(float(x))

        iv3 = np.sort(rng.uniform(0.3, math.pi - 0.3, 2))
        iv4 = np.sort(rng.uniform(0.3, math.pi - 0.3, 4))
        argvs = [
            ("exponents", "--N", "3", "--k", "2", "--alpha1", f(rng.uniform(0.6, 5.5))),
            ("exponents", "--N", "4", "--k", "3", "--alpha1", f(rng.uniform(0.8, 2.8)),
             "--interval", "%s,%s" % (f(iv3[0]), f(iv3[1]))),
            ("exponents", "--N", "5", "--k", "4", "--alpha1", f(rng.uniform(0.8, 2.8)),
             "--interval", "%s,%s" % (f(iv4[0]), f(iv4[2])),
             "--interval", "%s,%s" % (f(iv4[1]), f(iv4[3]))),
            ("classify", "--poly", os.path.join(demos, "cube.json"), "--q", "1.7",
             "--set", os.path.join(demos, "vertex_set.json"),
             "--measure", os.path.join(demos, "edge_measure.json")),
            ("kernel", "--measure", mu_path, "--nu", "3", "--m", "1", "--q", "1.8",
             "--s", "0.5", "--R", "8", "--tau", f(rng.uniform(0.2, 1.0)),
             "--eps", "0.01"),
            ("besov", "--measure", mu_path, "--s", "0.9", "--q", "1.8"),
        ]
        argvs += [("capacity", "--set", set_path, "--alpha", alpha, "--p", "2")
                  for alpha, _ in CAPACITY_ALPHAS]
        argvs += [
            ("verify", "dichotomy", "--N", "3", "--k", "2",
             "--alpha1", "1.5707963267948966", "--q", "2.0"),
            ("verify", "remainder"),
            ("verify", "harmonicity"),
        ]
        # q < 2 keeps the edge index of the heat lift inside (0, 2)
        argvs += [("verify", "heat", "--q", "%.3f" % q)
                  for q in rng.uniform(1.5, 1.95, HEAT_VARIANTS)]
        self.argvs = [tuple(a) for a in argvs]
        self._first_stdout = {}

    def ops(self, index):
        return [(" ".join(a[:2]), a) for a in self.argvs]

    def run(self, op):
        return run_cli(op[1])

    def output_bytes(self, out):
        return len(out[1].encode("utf-8"))

    def check(self, op, out):
        argv = op[1]
        code, stdout, stderr = out
        if code == 3 and argv[:5] == ("exponents", "--N", "5", "--k", "4") \
                and BRACKET_MESSAGE in stderr and _first_width(argv) < NARROW_BOX_MAX:
            return "narrow-box-bracket", "%s: %s" % (" ".join(argv[5:]), stderr.strip())
        if code != 0:
            return "fail", "exit code %d: %s" % (code, stderr.strip()[:200])
        first = self._first_stdout.setdefault(argv, stdout)
        if stdout != first:
            return "fail", "stdout differs from the first run of the same argv"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return "fail", "stdout is not JSON (%s)" % exc
        if (not isinstance(doc, dict) or sorted(doc) != ["config", "result", "tool", "version"]
                or doc["tool"] != "wedgecap" or doc["version"] != wedgecap.__version__):
            return "fail", "stdout is not the documented JSON envelope"
        return _check_result(argv, doc["result"])


def _first_width(argv):
    lo, hi = argv[argv.index("--interval") + 1].split(",")
    return float(hi) - float(lo)


def _check_result(argv, res):
    cmd = argv[0]
    if cmd == "exponents":
        if not (0.0 < res["gamma"] and res["q_c"] < res["q_c_star"]):
            return "fail", "exponent report out of order: %r" % res
    elif cmd == "classify":
        got = {v["stratum"]: v for v in res["verdicts"]}
        for sid, (regime, q_c, q_c_star, s) in CUBE_VERDICTS.items():
            v = got.get(sid)
            if v is None or v["regime"] != regime or abs(v["q_c"] - q_c) > 1e-4:
                return "fail", "cube verdict for %s: %r" % (sid, v)
            for key, want in (("q_c_star", q_c_star), ("s", s)):
                if want is not None and abs(v[key] - want) > 1e-4:
                    return "fail", "cube %s.%s = %r" % (sid, key, v[key])
    elif cmd == "kernel":
        for key in ("F", "M"):
            v = res[key]["value"]
            if not (math.isfinite(v) and v > 0.0):
                return "fail", "kernel %s value %r" % (key, v)
    elif cmd == "besov":
        # s = 0.9 > m/q' = 4/9: the proxy of an atomic measure converges
        if res["divergent"] or not all(v > 0.0 for _, v in res["ladder"]):
            return "fail", "besov proxy: %r" % res
    elif cmd == "capacity":
        want = dict(CAPACITY_ALPHAS)[argv[argv.index("--alpha") + 1]]
        verdicts = [p["verdict"] for p in res["pieces"]]
        if verdicts != [want]:
            return "fail", "capacity verdicts %r, expected [%r]" % (verdicts, want)
    elif cmd == "verify":
        if res["passed"] is not True:
            return "fail", "verify %s did not pass: %r" % (argv[1], res["metrics"])
    return None


def warm_up_cli():
    run_cli(("exponents", "--N", "3", "--k", "2", "--alpha1", "1.5707963267948966"))


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


WARM_UP = {"equiv-family": warm_up_equiv, "dirac-sweep": warm_up_dirac,
           "cli-demos": warm_up_cli}


def make(name, seed, workdir):
    if name == "equiv-family":
        return EquivFamily(seed)
    if name == "dirac-sweep":
        return DiracSweep(seed)
    return CliDemos(seed, workdir)
