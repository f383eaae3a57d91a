"""The four workloads: seeded operation streams with their correctness checks.

A workload is a cycle of slots.  A slot fixes the operation type and the
input shape that sets its cost (depth, term count, scalar level, grid level,
window width); the seed picks the concrete values inside that shape.  Every
seed therefore runs the same cost mix, which keeps the latency quantiles
from jumping between cost clusters, while the inputs themselves differ.

`Workload(q2, seed)` is the program-side preparation that `setup_s` times;
`op(i)` builds operation i from the seed (benchmark-side input generation,
never timed) and returns the engine call to time plus the check to run on
its result afterwards.  Checks use `oracle` and answers known by
construction only, never a second call into the engine.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle as orc

@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    info: dict = field(default_factory=dict)  # working set: terms, depth, level, ...


class Base:
    slots: tuple = ()
    kernel = "python"  # host-speed kernel resembling the layers that do the work

    @property
    def cycle(self) -> int:
        """Op i runs slot i mod cycle.  A multiple of 10 plus 5 puts both the
        median and the 90th percentile at the centre of a slot's weight."""
        return len(self.slots)

    def __init__(self, q2, seed: int):
        self.q2 = q2
        self.seed = seed

    def rng(self, i: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + i)

    def op(self, i: int) -> Op:
        slot = self.slots[i % len(self.slots)]
        return getattr(self, "_" + slot[0])(self.rng(i), *slot[1:])

    # -- shared input builders -------------------------------------------------

    def element(self, terms):
        """Engine element from (l, a, b, c, (scalar, complex)) tuples."""
        M = self.q2.Monomial
        return self.q2.Element([(M(l, a, b, c), s[0]) for l, a, b, c, s in terms])

    def coef(self, rng, gaussian: bool):
        """A rational, or a level-2 value p/q + (r/s) i, with its complex value."""
        p = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 4, 5, 7, 8)))
        value = self.q2.rational(p)
        if not gaussian:
            return value, complex(p)
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 5)))
        return value + self.q2.cyclo(2, 1) * self.q2.rational(r), complex(p) + 1j * float(r)

    def root(self, level: int, exponent: int):
        return self.q2.cyclo(level, exponent), orc.root(1 << level, exponent)


def plain(terms):
    """Oracle tuples (l, a, b, c, complex) of builder terms."""
    return [(l, a, b, c, s[1]) for l, a, b, c, s in terms]


def chain(rng, mono, depth):
    """Terms whose sum equals the monomial, split along one random path.

    (l, a, b, c) = (l, a+1, b+1, c) + (l + 2^a, a+1, b+1, c - 2^b) by the
    Cuntz relation; one child is kept and the other split again, down to b =
    depth, so the result holds depth - b + 1 terms with the last two at depth.
    """
    l, a, b, c = mono
    out = []
    while b < depth:
        kids = [(l, a + 1, b + 1, c), (l + (1 << a), a + 1, b + 1, c - (1 << b))]
        keep = rng.randrange(2)
        out.append(kids[1 - keep])
        l, a, b, c = kids[keep]
    out.append((l, a, b, c))
    return out


def with_coef(monos, s):
    return [(*m, s) for m in monos]


def negated(s):
    return (-s[0], -s[1])


def mono_at(rng, a: int, b: int, c_span: int):
    return (rng.randrange(1 << a), a, b, rng.randint(-c_span, c_span))


def bool_is(expected):
    return lambda result: result is expected


# -- deep_equality ---------------------------------------------------------------


class DeepEquality(Base):
    """Refinement-heavy verdicts on elements mixing depth-2 and depth-B terms.

    Every query refines depth-2 terms to the common depth B, so one op does
    about 2^(B-1) scalar additions at level 0 or 2 inside `algebra`.
    """

    kinds = ("equals", "normalize", "roundtrip", "scalar_part", "member")
    subs = ("O2", "F2", "QT", "CU", "D2")
    # kind = i mod 5 and B = 8 + i mod 9 cover every pair once per 45 ops; 45
    # slots put both the median and the 90th percentile at a slot's centre
    cycle = 45

    def op(self, i):
        slot = i % self.cycle
        kind, B = self.kinds[slot % 5], 8 + slot % 9
        gaussian = (slot // 9) % 2 == 1
        rng = self.rng(i)
        if kind == "member":
            return self._member(rng, B, gaussian, self.subs[(slot // 5) % 5], rng.random() < 0.5)
        return getattr(self, "_" + kind)(rng, B, gaussian)

    def base(self, rng, B, gaussian):
        """Two depth-2 terms and two depth-B terms."""
        terms = [(*mono_at(rng, rng.randint(0, 3), 2, 8), self.coef(rng, gaussian)) for _ in range(2)]
        terms += [(*mono_at(rng, rng.randint(B - 2, B + 1), B, 1 << B), self.coef(rng, gaussian))
                  for _ in range(2)]
        return terms

    def rewrite(self, rng, B, gaussian):
        """A depth-2 term t with coefficient s, and t's chain to depth B."""
        s = self.coef(rng, gaussian)
        t = mono_at(rng, rng.randint(0, 3), 2, 8)
        return [(*t, s)], with_coef(chain(rng, t, B), s)

    def info(self, B, gaussian, *elements):
        return {"terms": sum(len(e) for e in elements), "depth": B, "level": 2 if gaussian else 0}

    def _equals(self, rng, B, gaussian):
        differ = rng.random() < 0.5
        base = self.base(rng, B, gaussian)
        t, ch = self.rewrite(rng, B, gaussian)
        if differ:  # one deep term of the chain gets another coefficient
            l, a, b, c, s = ch[-1]
            ch[-1] = (l, a, b, c, (s[0] + self.q2.rational(1, 3), s[1] + 1 / 3))
        xt, yt = base + t, base + ch
        x, y = self.element(xt), self.element(yt)

        def check(result):
            agree = orc.maps_close(orc.refine(plain(xt), B), orc.refine(plain(yt), B))
            return agree is (not differ) and result is agree
        return Op("equals", lambda: self.q2.equals(x, y), check, self.info(B, gaussian, xt, yt))

    def _normalize(self, rng, B, gaussian, roundtrip=False):
        terms = self.base(rng, B, gaussian)
        x = self.element(terms)

        def check(result):
            # the oracle's own depth-B form, compared term for term; a round
            # trip must refine back to it and leave no sibling pair unmerged
            want = orc.refine(plain(terms), B)
            got = orc.terms_of(result)
            if roundtrip:
                return (all(t[2] <= B for t in got) and not orc.mergeable(got)
                        and orc.maps_close(orc.refine(got, B), want))
            return orc.same_terms(got, want)
        if roundtrip:
            run = lambda: self.q2.coarsen(self.q2.normalize_depth(x, B))
        else:
            run = lambda: self.q2.normalize_depth(x, B)
        return Op("roundtrip" if roundtrip else "normalize_depth", run, check,
                  self.info(B, gaussian, terms))

    def _roundtrip(self, rng, B, gaussian):
        return self._normalize(rng, B, gaussian, roundtrip=True)

    def _scalar_part(self, rng, B, gaussian):
        """s*1 plus a deep zero (t - chain(t)), or that plus one deep term."""
        s = self.coef(rng, gaussian)
        t, ch = self.rewrite(rng, B, gaussian)
        terms = [(0, 0, 0, 0, s)] + t + [(l, a, b, c, negated(v)) for l, a, b, c, v in ch]
        scalar = rng.random() < 0.5
        if not scalar:
            terms.append((*mono_at(rng, B, B, 1 << B), self.coef(rng, gaussian)))
        x = self.element(terms)

        def check(result):
            if not scalar:
                return result is None
            return result is not None and abs(orc.scalar_complex(result.level, result.coords) - s[1]) <= orc.TOL
        return Op("scalar_part", x.scalar_part, check, self.info(B, gaussian, terms))

    def _member(self, rng, B, gaussian, sub, expected):
        """Members by construction; non-members carry one offending term."""
        s = lambda: self.coef(rng, gaussian)
        if sub in ("O2", "F2"):
            # S_mu S_nu* words: 0 <= -c < 2^b, and a = b as well for F2
            def word(b):
                a = b if sub == "F2" else rng.randint(max(0, b - 1), b + 1)
                return (rng.randrange(1 << a), a, b, -rng.randrange(1 << b), s())
            terms = [word(2), word(2), word(B), word(B)]
            if not expected:
                l, a, b, c, v = terms[0]
                terms[0] = (l, a, b, 1, v) if sub == "O2" else (l % 4, 3, 2, c, v)
        else:
            # a deep zero t - chain(t) whose terms the expectation removes
            a_t = {"QT": 3, "CU": 2, "D2": 2}[sub]
            v = s()
            t = mono_at(rng, a_t, 2, 8)
            if sub == "D2" and t[3] == -t[0]:
                t = (t[0], t[1], t[2], t[3] + 1)
            terms = [(*t, v)] + [(l, a, b, c, negated(v)) for l, a, b, c in chain(rng, t, B)]
            if sub == "QT":
                keep = [(*mono_at(rng, a, a, 4), s()) for a in (0, 1, B)]
            elif sub == "CU":
                keep = [(0, 0, 0, rng.randint(-6, 6), s()) for _ in range(3)]
            else:
                keep = [(l, a, a, -l, s()) for l, a, _, _ in (mono_at(rng, a, a, 0) for a in (0, 1, B))]
            terms += keep
            if not expected:
                off = {"QT": (0, B + 1, B, 0), "CU": (0, B + 1, B, 0), "D2": (1, B, B, 0)}[sub]
                terms.append((*off, s()))
        x = self.element(terms)
        return Op(f"membership_{sub}", lambda: self.q2.membership(x, sub), bool_is(expected),
                  self.info(B, gaussian, terms))


# -- cyclotomic_products -----------------------------------------------------------


class CyclotomicProducts(Base):
    """Dense cyclotomic coefficients: U_z/S'_z, their relations, all-pairs
    products, gauge/beta morphisms and expectations on U_z-type diagonals."""

    # 25 slots: ten under 20 ms, five identical relation checks at n = 6 in the
    # middle (the median), seven in 40-80 ms and three far above, so that the
    # 90th percentile sits on the n = 7 relation check, away from any gap
    slots = (
        ("relations", 6), ("build", 5), ("product_uz", 8), ("apply", "gauge", 0, 3), ("relations", 7),
        ("product_uz", 5), ("relations", 6), ("dense_product", 7, 9), ("apply", "gauge", 1, 4),
        ("build", 9), ("relations", 6), ("product_uz", 6), ("s1_limit", 6), ("apply", "beta", 2, 4),
        ("compose", ("beta", 5), ("gauge", 4), 6), ("relations", 6), ("dense_product", 4, 9),
        ("build", 8), ("compose", ("gauge", 0), ("beta", 1), 3), ("relations", 8), ("relations", 6),
        ("relations", 5), ("apply", "beta", 5, 6), ("diag_window", 6, 8), ("apply", "gauge", 4, 6),
    )

    def __init__(self, q2, seed):
        super().__init__(q2, seed)
        # program-side preparation: validated gauge and beta morphisms with
        # cyclotomic parameters, reused by the apply and compose slots; the
        # seed picks the roots, the pool index fixes level and shift
        rng = self.rng(-1)
        self.morphisms = {"gauge": [], "beta": []}
        for level, n in zip(range(3, 9), (-3, -2, -1, 1, 2, 3)):
            w, wc = self.root(level, 2 * rng.randrange(1 << (level - 1)) + 1)
            self.morphisms["gauge"].append((q2.gauge(w), wc, 0))
            self.morphisms["beta"].append((q2.beta_monomial(w, n), wc, n))

    def dense(self, rng, m: int, level: int):
        """2^m terms at depth m with roots of unity of the given level."""
        return [(l, m, m, rng.randint(-4, 4) - l, self.root(level, rng.randrange(1 << level)))
                for l in range(1 << m)]

    def diagonal(self, rng, n: int):
        """U_w = sum_l w^l U^l S2^n S2*^n U^-l for w = zeta_(2^n)^e, e odd."""
        e = 2 * rng.randrange(1 << (n - 1)) + 1
        coefs = [self.root(n, e * l) for l in range(1 << n)]
        return [(l, n, n, -l, c) for l, c in enumerate(coefs)], [c[1] for c in coefs]

    def _build(self, rng, n):
        ks = orc.class_probes(n, rng)
        z = orc.root(1 << n, 1)

        def check(result):
            uz, sz = (orc.ActionIndex(orc.terms_of(e)) for e in result)
            return all(orc.vectors_close(uz.act(k), {k: z ** (k % (1 << n))})
                       and orc.vectors_close(sz.act(k), {2 * k: z ** (k % (1 << n))}) for k in ks)
        return Op("build_Uz_Sz", lambda: (self.q2.build_Uz(n), self.q2.build_Sz(n)), check,
                  {"terms": 2 << n, "depth": n, "level": n})

    def _relations(self, rng, n):
        return Op("check_Uz_relations", lambda: self.q2.check_Uz_relations(n), bool_is(True),
                  {"terms": 1 << n, "depth": n, "level": n})

    def _product_uz(self, rng, n):
        sz, uz = self.q2.build_Sz(n), self.q2.build_Uz(n)
        ks = orc.class_probes(n, rng)
        z = orc.root(1 << n, 1)

        def check(result):
            idx = orc.ActionIndex(orc.terms_of(result))
            return all(orc.vectors_close(idx.act(k), {2 * k: z ** ((2 * k) % (1 << n))}) for k in ks)
        return Op("product_Sz_Uz", lambda: sz * uz, check,
                  {"terms": 2 << n, "pairs": 4 << (2 * n), "depth": n, "level": n})

    def _dense_product(self, rng, m, level):
        xt, yt = self.dense(rng, m, level), self.dense(rng, m, level)
        x, y = self.element(xt), self.element(yt)
        ks = orc.class_probes(m, rng)  # products of depth-m dense terms stay at depth m
        xi = orc.ActionIndex(plain(xt))

        def check(result):
            got = orc.ActionIndex(orc.terms_of(result))
            for k in ks:
                want: dict = {}
                for j, v in orc.act(plain(yt), k).items():
                    for jj, vv in xi.act(j).items():
                        want[jj] = want.get(jj, 0) + v * vv
                if not orc.vectors_close(got.act(k), want):
                    return False
            return True
        return Op("dense_product", lambda: x * y, check,
                  {"terms": 2 << m, "pairs": 1 << (2 * m), "depth": m, "level": level})

    def _apply(self, rng, family, index, m):
        endo, w, n = self.morphisms[family][index]
        xt = self.dense(rng, m, 9)
        x = self.element(xt)
        return Op(f"apply_{family}", lambda: endo(x), self.beta_check(rng, xt, w, n),
                  {"terms": 1 << m, "depth": m, "level": 9})

    def _compose(self, rng, first, second, m):
        (e1, w1, n1), (e2, w2, n2) = (self.morphisms[f][k] for f, k in (first, second))
        xt = self.dense(rng, m, 9)
        x = self.element(xt)
        # beta(w1, n1) after beta(w2, n2) sends S2 to w1 w2 U^(n1+n2) S2
        return Op("compose_apply", lambda: self.q2.compose(e1, e2)(x),
                  self.beta_check(rng, xt, w1 * w2, n1 + n2),
                  {"terms": 1 << m, "depth": m, "level": 9})

    def beta_check(self, rng, xt, w, n):
        ks = orc.class_probes(max(t[2] for t in xt), rng)  # beta keeps every term's depth

        def check(result):
            got = orc.ActionIndex(orc.terms_of(result))
            return all(orc.vectors_close(got.act(k), orc.act_beta(plain(xt), w, n, k)) for k in ks)
        return check

    def _diag_window(self, rng, n, w):
        terms, values = self.diagonal(rng, n)
        x = self.element(terms)
        lo, hi = -(1 << w) + rng.randrange(8), (1 << w) - rng.randrange(8)

        def check(result):
            want = {i: values[i % (1 << n)] for i in range(lo, hi + 1)}
            got = {i: orc.scalar_complex(v.level, v.coords) for i, v in result.items()}
            return orc.vectors_close(got, want) and set(got) == set(want)
        return Op("E_diag_window", lambda: self.q2.E_diag_window(x, lo, hi), check,
                  {"terms": 1 << n, "depth": n, "level": n, "window": hi - lo + 1})

    def _s1_limit(self, rng, n):
        # (S1*)^m x S1^m e_0 = x at index 2^m - 1 = -1 mod 2^n, for m >= n
        terms, values = self.diagonal(rng, n)
        x = self.element(terms)

        def check(result):
            return abs(orc.scalar_complex(result.level, result.coords) - values[-1]) <= orc.TOL
        return Op("s1_limit", lambda: self.q2.s1_limit(x), check,
                  {"terms": 1 << n, "depth": n, "level": n})


# -- numeric_obstructions -------------------------------------------------------------


class NumericObstructions(Base):
    """numpy layers: cascade, oscillation reports, continuity, window fills."""

    # 35 slots: the median falls inside the nine ±2^16 window slots and the
    # 90th percentile on the level-13 obstruction, each away from a gap
    slots = (
        ("obstruction", 12), ("window", 16), ("cascade", 12), ("continuity", 8), ("window", 16),
        ("conjugate", 12), ("obstruction", 13), ("window", 16), ("cascade", 13), ("continuity", 6),
        ("obstruction", 12), ("window", 16), ("conjugate", 14), ("cascade", 14), ("continuity", 9),
        ("window", 16), ("obstruction", 12), ("cascade", 15), ("window", 14), ("continuity", 8),
        ("obstruction", 14), ("window", 16), ("conjugate", 16), ("cascade", 16), ("obstruction", 12),
        ("window", 16), ("continuity", 6), ("conjugate", 16), ("obstruction", 12), ("window", 16),
        ("cascade", 16), ("continuity", 8), ("obstruction", 12), ("window", 16), ("obstruction", 16),
    )
    kernel = "numpy"
    # grid kind, check, verdict known beforehand (None: checked by reference only)
    cases = (("step", "gauge", True), ("bump", "flipflop", True), ("char", "gauge", False),
             ("smooth", "gauge", False), ("step", "flipflop", None), ("char", "flipflop", False),
             ("bump", "gauge", None), ("even", "flipflop", False))

    def __init__(self, q2, seed):
        super().__init__(q2, seed)
        import numpy
        self.np = numpy
        from q2algebra import torusfunc
        self.tf = torusfunc

    def grid(self, rng, kind, level):
        """Grid samples as (engine grid, the h the cascade must return or None)."""
        np, tf = self.np, self.tf
        size = 1 << level
        theta = 2 * np.pi * np.arange(size) / size
        if kind == "step":
            return tf.step_preset(level, rng.choice((math.pi / 4, math.pi / 6, math.pi / 8))), None
        if kind == "bump":
            return tf.bump_preset(level), None
        if kind == "char":
            n = rng.randint(-5, 5)
            return tf.char_preset(level, n), np.exp(1j * n * theta)
        amps = [rng.uniform(-0.5, 0.5) for _ in range(6)]
        if kind == "even":  # f(conj z) = f(z), so Psi = |f|^2 = 1 and h = 1
            phase = sum(a * np.cos((k + 1) * theta) for k, a in enumerate(amps[:3]))
            return tf.DyadicGridFunction(level, np.exp(1j * phase)), np.ones(size)
        # a coboundary f(z) = h(z^2) / h(z) of a smooth h with h(1) = 1
        phase = sum(a * np.sin((k + 1) * theta) + b * (np.cos((k + 1) * theta) - 1)
                    for k, (a, b) in enumerate(zip(amps[:3], amps[3:])))
        h = np.exp(1j * phase)
        return tf.DyadicGridFunction(level, h[(2 * np.arange(size)) % size] / h), h

    def ref_cascade(self, psi):
        """Product formula h(z) = 1 / prod_k Psi(z^(2^k)), independent of the
        engine's valuation walk."""
        np = self.np
        size = psi.size
        idx = np.arange(size)
        prod = np.ones(size, dtype=complex)
        for k in range(int(size).bit_length() - 1):
            prod *= psi[(idx << k) % size]
        return 1 / prod

    def ref_osc(self, h, points, tol):
        """Oscillation at the given points, the report's definition, stab tol `tol`."""
        np = self.np
        size = h.size
        seqs = np.array([j * s for j in range(1, 64, 2) for s in (1, -1)])
        out = []
        for p in points:
            v0, v1, v2 = (h[(p + m * seqs) % size] for m in (1, 2, 4))
            stable = (np.abs(v0 - v1) <= tol) & (np.abs(v1 - v2) <= tol)
            vals = v0[stable]
            out.append(float(np.abs(vals[:, None] - vals[None, :]).max()) if vals.size > 1 else 0.0)
        return out

    def _obstruction(self, rng, level):
        kind, check_kind, verdict = self.cases[rng.randrange(len(self.cases))]
        f, _ = self.grid(rng, kind, level)
        values = f.values
        if check_kind == "gauge":
            psi = values * self.np.conj(values[0])
            run = lambda: self.tf.gauge_equiv_obstruction(f)
        else:
            psi = values * self.np.conj(values[(-self.np.arange(f.size)) % f.size])
            run = lambda: self.tf.flipflop_commute_obstruction(f)
        points = [0] + [rng.randrange(f.size) for _ in range(15)]

        def check(report):
            if verdict is not None and report.obstructed is not verdict:
                return False
            if report.obstructed is not (report.max_oscillation >= 1.0):
                return False
            h = self.ref_cascade(psi)
            pts = points + [int(self.np.argmax(report.osc))]
            lo = self.ref_osc(h, pts, 1e-7 - 1e-9)
            hi = self.ref_osc(h, pts, 1e-7 + 1e-9)
            return all(a - 1e-9 <= report.osc[p] <= b + 1e-9 for p, a, b in zip(pts, lo, hi))
        return Op(f"obstruction_{check_kind}", run, check,
                  {"grid_level": level, "grid": kind, "osc_rows": 64})

    def _cascade(self, rng, level):
        psi, h = self.grid(rng, rng.choice(("char", "smooth")), level)

        def check(result):
            return bool(self.np.abs(result.values - h).max() <= 1e-9)
        return Op("cascade_solve", lambda: self.tf.cascade_solve(psi), check, {"grid_level": level})

    def _continuity(self, rng, depth):
        dyadic = rng.random() < 0.5
        if dyadic:
            n = rng.randint(1, depth - 1)
            order, e = 1 << n, 2 * rng.randrange(1 << (n - 1)) + 1 if n > 1 else 1
        else:
            order, e = 3, rng.choice((1, 2))
        sampler = lambda k: cmath.exp(2j * math.pi * e * k / order)

        def check(result):
            oscs = result.oscillations
            if len(oscs) != depth or type(result).__name__ != ("Continuous" if dyadic else "Obstructed"):
                return False
            if dyadic:
                return all(o <= 1e-9 for o in oscs[n - 1:])
            j, k, m, gap = result.witness
            return (j - k) % (1 << m) == 0 and abs(abs(sampler(j) - sampler(k)) - gap) <= 1e-9
        return Op("two_adic_continuity", lambda: self.q2.two_adic_continuity(sampler, depth), check,
                  {"continuity_depth": depth, "indices": (1 << (depth + 3)) + 1})

    def terms(self, rng):
        return [(*mono_at(rng, rng.randint(0, 3), b, 1 << b), self.coef(rng, rng.random() < 0.5))
                for b in (0, 1, 2, 4, 6, 8)]

    def window_check(self, xt, rng, lo, hi, reflect):
        cols = [rng.randint(lo, hi) for _ in range(12)]

        def check(win):
            np = self.np
            for q in cols:
                mask = win.cols == q
                got = {}
                for r, v in zip(win.rows[mask].tolist(), win.vals[mask].tolist()):
                    got[r] = got.get(r, 0) + v
                src = -q - 1 if reflect else q
                want = {(-j - 1 if reflect else j): v for j, v in orc.act(xt, src).items()}
                want = {j: v for j, v in want.items() if lo <= j <= hi}
                if not orc.vectors_close(got, want):
                    return False
            return True
        return check

    def _window(self, rng, w):
        terms = self.terms(rng)
        differ = rng.random() < 0.5
        l, a, b, c, s = terms[0]
        rewritten = terms[1:] + with_coef(chain(rng, (l, a, b, c), 3), s)
        delta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if differ:
            # a diagonal term 0 <= l < 2^a, a = b, c = -l puts delta on the diagonal
            rewritten.append((0, 2, 2, 0, (self.q2.rational(delta), complex(delta))))
        x, y = self.element(terms), self.element(rewritten)
        lo, hi = -(1 << w), 1 << w
        check_x = self.window_check(plain(terms), rng, lo, hi, False)

        def run():
            wx = self.q2.window_matrix(x, lo, hi)
            return wx, wx.max_abs_diff(self.q2.window_matrix(y, lo, hi))

        def check(result):
            wx, diff = result
            want = float(delta) if differ else 0.0
            return abs(diff - want) <= 1e-9 and check_x(wx)
        return Op("window_max_abs_diff", run, check,
                  {"terms": len(terms) + len(rewritten), "window": hi - lo + 1})

    def _conjugate(self, rng, w):
        terms = self.terms(rng)
        x = self.element(terms)
        lo, hi = -(1 << w) + rng.randrange(16), (1 << w) - rng.randrange(16)
        return Op("conjugate_by_V", lambda: self.q2.conjugate_by_V(x, lo, hi),
                  self.window_check(plain(terms), rng, lo, hi, True),
                  {"terms": len(terms), "window": hi - lo + 1})


# -- cli_session ------------------------------------------------------------------------

README = (
    (["eq", "S1", "U S2"], 0, "EQUAL"),
    (["eq", "S2", "S1"], 1, "DIFFERENT"),
    (["normalize", "U", "--depth", "2"], 0, [(0, 0, 0, 1, 1)]),
    (["apply", "flipflop", "S1"], 0, "S2"),
    (["apply", "gauge:zeta(8)^3", "S2"], 0, "zeta(8)^3 S2"),
    (["apply", "chi:5", "U"], 0, "U^5"),
    (["expect", "CU", "S2^3 S2*^3"], 0, "1/8"),
    (["expect", "diag", "S2 S2*", "--window=-4:4"], 0, "-4: 1, -2: 1, 0: 1, 2: 1, 4: 1"),
    (["member", "O2", "U"], 1, "NOT-MEMBER"),
    (["eval", "S2", "--basis", "3"], 0, "e_6: 1"),
    (["window", "S2", "--window=-8:8"], 0, "csv"),
    (["uz", "3"], 0, "uz"),
    (["classify-bogoljubov", "zeta(8)", "0", "0", "zeta(8)"], 0, "Gauge(zeta(8))"),
    (["cascade", "step:pi/4", "--level", "12", "--check", "gauge"], 1, "OBSTRUCTED"),
    (["cascade", "bump:i@9pi/8", "--level", "12", "--check", "flipflop"], 1, "OBSTRUCTED"),
    (["solve-feq", "U^3"], 0, "3"),
)


def mono_text(l, a, b, c):
    parts = [f"U^{l}" if l else "", f"S2^{a}" if a else "", f"S2*^{b}" if b else "",
             (f"U^{c}" if c > 0 else f"U*^{-c}") if c else ""]
    return " ".join(p for p in parts if p) or "1"


def word_text(word, star=False):
    """S_w = S_w1 ... S_wk, or its adjoint S_wk* ... S_w1*."""
    if star:
        return " ".join(f"S{d}*" for d in reversed(word))
    return " ".join(f"S{d}" for d in word)


class CliSession(Base):
    """One `q2` invocation per op through `cli.main(argv)`, output captured."""

    slots = (
        *(("readme", k) for k in range(len(README))),
        ("eq_deep", 10, True), ("apply", "chi"), ("upow", 20000), ("normalize", 8, "text"),
        ("apply", "beta"), ("eq_deep", 13, False), ("uz", 6), ("member",), ("apply", "shift"),
        ("solve_feq",), ("upow", 8000), ("normalize", 7, "json"), ("apply", "gauge"),
        ("eq_deep", 8, False), ("upow", 2000), ("member",), ("eq_json",),
        ("eq_deep", 11, True), ("upow", 5000),
    )

    def __init__(self, q2, seed):
        super().__init__(q2, seed)
        from q2algebra import cli
        self.cli = cli  # looked up per call, so a traced run sees its wrapper

    def invoke(self, argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue()
        return run

    def cli_op(self, argv, check, info=None):
        return Op("q2_" + argv[0], self.invoke(argv), check, info or {"argv_chars": sum(map(len, argv))})

    def _readme(self, rng, k):
        argv, code, want = README[k]

        def check(result):
            rc, out = result
            out = out.strip()
            if rc != code:
                return False
            if isinstance(want, list):
                got = orc.parse_element_text(out)
                return all(t[2] == 2 for t in got) and orc.same_action(got, want, range(-9, 10))
            if want == "csv":
                rows = [tuple(line.split(",")) for line in out.splitlines()[1:]]
                return sorted((int(r), int(c), float(re), float(im)) for r, c, re, im in rows) == \
                    [(2 * k, k, 1.0, 0.0) for k in range(-4, 5)]
            if want == "uz":
                got = orc.parse_element_text(out)
                return all(orc.vectors_close(orc.act(got, k), {k: orc.root(8, k)}) for k in range(-20, 21))
            if want == "OBSTRUCTED":
                return out.endswith("OBSTRUCTED")
            return out == want
        return self.cli_op(argv, check)

    def element_text(self, rng, count=3, depth=2):
        """A few canonical terms as text, with their oracle tuples."""
        texts, terms = [], []
        for _ in range(count):
            b = rng.randint(0, depth)
            a = rng.randint(0, depth)
            l, c = rng.randrange(1 << a), rng.randint(-4, 4)
            p, q = rng.randint(1, 9), rng.choice((1, 2, 3, 4))
            texts.append(f"{p}/{q} {mono_text(l, a, b, c)}")
            terms.append((l, a, b, c, p / q))
        return " + ".join(texts), terms

    def _eq_deep(self, rng, B, same):
        """1 = S_w S_w* + sum_j S_(w<j) S_(~w_j) S_(~w_j)* S_(w<j)* for a random word w."""
        word = [rng.choice((1, 2)) for _ in range(B)]
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        terms = [f"{p}/{q} {word_text(word)} {word_text(word, True)}"]
        for j in range(B):
            side = word[:j] + [3 - word[j]]
            terms.append(f"{p}/{q} {word_text(side)} {word_text(side, True)}")
        if not same:
            terms[0] = f"{p + 1}/{q} " + terms[0].split(" ", 1)[1]
        argv = ["eq", " + ".join(terms), f"{p}/{q}"]
        code, text = (0, "EQUAL") if same else (1, "DIFFERENT")
        return self.cli_op(argv, lambda r: r == (code, text + "\n"), {"depth": B, "terms": B + 2})

    def _apply(self, rng, family):
        text, terms = self.element_text(rng)
        if family == "chi":
            odd = rng.choice((-5, -3, -1, 3, 5, 7))
            label, act = f"chi:{odd}", lambda k: orc.act_chi(terms, odd, k)
        elif family == "shift":
            label, act = "shift", lambda k: orc.act_shift(terms, k)
        else:
            level = rng.randint(2, 5)
            e = 2 * rng.randrange(1 << (level - 1)) + 1
            w = orc.root(1 << level, e)
            n = rng.randint(-3, 3) if family == "beta" else 0
            scalar = f"zeta({1 << level})^{e}"
            label = f"beta:{scalar},{n}" if family == "beta" else f"gauge:{scalar}"
            act = lambda k: orc.act_beta(terms, w, n, k)
        ks = orc.class_probes(3, rng)  # input depth <= 2; shift adds one

        def check(result):
            rc, out = result
            got = orc.parse_element_text(out)
            return rc == 0 and all(orc.vectors_close(orc.act(got, k), act(k)) for k in ks)
        return self.cli_op(["apply", label, text], check)

    def _upow(self, rng, k_max):
        k = k_max - rng.randrange(100)
        argv = ["eq", f"U^{k}", f"U^{k - 1} U"] if rng.random() < 0.5 else ["eq", f"U^{k}", f"U^{k + 1}"]
        same = argv[2].endswith(" U")
        return self.cli_op(argv, lambda r: r == ((0, "EQUAL\n") if same else (1, "DIFFERENT\n")),
                           {"exponent": k})

    def _normalize(self, rng, depth, fmt):
        text, terms = self.element_text(rng, depth=2)
        argv = ["normalize", text, "--depth", str(depth)] + (["--format=json"] if fmt == "json" else [])

        def check(result):
            rc, out = result
            got = orc.json_element_terms(json.loads(out)) if fmt == "json" else orc.parse_element_text(out)
            return rc == 0 and orc.same_terms(got, orc.refine(terms, depth))
        return self.cli_op(argv, check, {"depth": depth, "terms_out_max": 3 << depth})

    def _uz(self, rng, n):
        ks = orc.class_probes(n, rng)

        def check(result):
            rc, out = result
            got = orc.ActionIndex(orc.parse_element_text(out))
            return rc == 0 and all(orc.vectors_close(got.act(k), {k: orc.root(1 << n, k)}) for k in ks)
        return self.cli_op(["uz", str(n)], check, {"depth": n, "terms": 1 << n, "level": n})

    def _member(self, rng):
        sub = rng.choice(("O2", "F2", "CU", "QT", "D2"))
        inside = rng.random() < 0.5
        a = rng.randint(1, 4)
        if sub in ("O2", "F2"):
            b = a if sub == "F2" else rng.randint(1, 4)
            text = f"{word_text([rng.choice((1, 2)) for _ in range(a)])} {word_text([1] * b, True)}"
            if not inside:
                text += " U*"  # S_nu* U* has -c = 2^b, outside both spans
        elif sub == "CU":
            text = f"U^{rng.randint(1, 9)} + 1/2" + ("" if inside else f" + S2^{a}")
        elif sub == "QT":
            text = f"S2^{a} S2*^{a} U^3" + ("" if inside else f" + S2^{a + 1} S2*^{a}")
        else:
            text = f"U S2^{a} S2*^{a} U*" + ("" if inside else " + S2 S2* U^2")
        want = (0, "MEMBER\n") if inside else (1, "NOT-MEMBER\n")
        return self.cli_op(["member", sub, text], lambda r: r == want)

    def _solve_feq(self, rng):
        k = rng.randint(-40, 40)
        text = mono_text(0, 0, 0, k) if k else "1"
        power = rng.random() < 0.5
        argv = ["solve-feq", text] + (["--power", str(rng.randint(2, 6))] if power else [])
        return self.cli_op(argv, lambda r: r == (0, f"{k}\n"))

    def _eq_json(self, rng):
        """x (P0 + P1) = x for the range projections P0 = S2 S2*, P1 = U P0 U*;
        x P0 alone differs, because x has a depth-0 term acting on odd indices."""
        text, _ = self.element_text(rng, depth=3)
        text = f"{rng.randint(1, 9)} U^{rng.randint(-5, 5)} + {text}"
        same = rng.random() < 0.5
        rhs = f"({text}) S2 S2*" + (f" + ({text}) U S2 S2* U*" if same else "")
        want = (0 if same else 1, json.dumps({"equal": same}) + "\n")
        return self.cli_op(["eq", text, rhs, "--format=json"], lambda r: r == want)


CLASSES = {
    "deep_equality": DeepEquality,
    "cyclotomic_products": CyclotomicProducts,
    "numeric_obstructions": NumericObstructions,
    "cli_session": CliSession,
}
WORKLOADS = tuple(CLASSES)
