"""The three benchmark workloads: inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  A workload object is built from the seed
(input generation counts as set-up), runs its operations one at a time
through the package's public entry points, and checks the outputs after
the timed phase with the brute-force searches in `oracle`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import intersets
from intersets import cli

from oracle import PairSums, Spec, SumSearch

# ---------------------------------------------------------------------------
# verify-suite


class VerifySuite:
    """The 16 `verify` scenarios once each, in registry order, as the CLI
    runs them.  Each must exit 0 with every assertion passing."""

    name = "verify-suite"

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = list(intersets.scenario_ids())

    def op_name(self, i: int) -> str:
        return self.ops[i]

    def run_op(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", self.ops[i], "--seed", str(self.seed), "--format", "json"])
        return rc, buf.getvalue()

    def check(self, i: int, out) -> bool:
        rc, text = out
        doc = json.loads(text)
        return (
            rc == 0
            and doc["scenario"] == self.ops[i]
            and doc["ok"] is True
            and all(a["passed"] for a in doc["assertions"])
        )

    def extras(self, outs) -> dict:
        return {}


# ---------------------------------------------------------------------------
# hset-stream: family documents and independent layer models


def _fin(xs):
    return {"kind": "finite", "elements": [str(x) for x in sorted(xs)]}


class CoreModel:
    """A family core built from finite, congruence and cofinite pieces."""

    def __init__(self, doc, atoms):
        self.doc, self.atoms = doc, tuple(atoms)

    def contains(self, x: int) -> bool:
        return bool(Spec(self.atoms).elements(x, x))


CORE_KINDS = ("finite", "finite", "mixed", "cofinite")


def _random_core(rng: random.Random, kind: str | None = None) -> CoreModel:
    """A core of the given kind, or of one drawn from CORE_KINDS."""
    if kind is None:
        kind = rng.choice(CORE_KINDS)
    if kind == "finite":
        xs = set(rng.sample(range(-12, 13), rng.randint(3, 6)))
        return CoreModel(_fin(xs), [("fin", tuple(sorted(xs)))])
    if kind == "mixed":
        m = rng.randint(3, 8)
        res = sorted(rng.sample(range(m), rng.randint(1, 2)))
        xs = set(rng.sample(range(-12, 13), rng.randint(1, 3)))
        doc = {
            "kind": "union",
            "parts": [
                {"kind": "congruence", "modulus": str(m), "residues": [str(r) for r in res]},
                _fin(xs),
            ],
        }
        return CoreModel(doc, [("cong", m, tuple(res)), ("fin", tuple(sorted(xs)))])
    # pairwise non-adjacent points: a run of three or more normalizes to a
    # Tail, on which EnumerationFamily's complement search runs to its cap
    xs = {2 * x for x in rng.sample(range(-4, 5), rng.randint(1, 3))}
    doc = {"kind": "cofinite", "excluded": [str(x) for x in sorted(xs)]}
    return CoreModel(doc, [("cof", tuple(sorted(xs)))])


class FamilyModel:
    """A generated family: its JSON document and an independent description
    of each layer (the set, its period and its magnitude)."""

    def __init__(self, doc, layer, depth=None):
        self.doc = doc
        self.layer = layer  # q -> (Spec, period, reach)
        self.depth = depth


def _tail_model(core: CoreModel) -> FamilyModel:
    return FamilyModel(
        {"family": "tail", "core": core.doc},
        lambda q: (Spec(core.atoms + (("abs", q),)), 1, q),
    )


def _half_tail_model(core: CoreModel) -> FamilyModel:
    return FamilyModel(
        {"family": "half-tail", "core": core.doc},
        lambda q: (Spec(core.atoms + (("ge", q),)), 1, q),
    )


def _chain_model(core: tuple[int, ...], m1: int, ratio: int) -> FamilyModel:
    def layer(q):
        m = m1 * ratio ** (q - 1)
        return Spec([("cong", m, tuple({a % m for a in core}))]), m, m

    doc = {
        "family": "congruence-chain",
        "core": [str(a) for a in core],
        "m1": str(m1),
        "ratio": str(ratio),
    }
    return FamilyModel(doc, layer)


def _coset_model(d: int, x0: int) -> FamilyModel:
    def layer(q):
        spec = Spec([("cong", d, (0,)), ("congge", d, x0 % d, x0 + d * q)])
        return spec, d, abs(x0) + d * q

    return FamilyModel(
        {"family": "coset-tail", "subgroup_step": str(d), "coset_base": str(x0)}, layer
    )


def _enumeration_model(core: CoreModel) -> FamilyModel:
    # the complement in spiral order; |x| <= 64 holds far more points than
    # any depth-Q layer removes, or all of them for a cofinite core
    spiral = [0] + [v for x in range(1, 65) for v in (-x, x)]
    prefix = [v for v in spiral if not core.contains(v)]

    def layer(q):
        gone = prefix[: q - 1]
        return Spec([("cof", tuple(gone))]), 1, max((abs(v) for v in gone), default=0) + 1

    return FamilyModel({"family": "enumeration", "core": core.doc}, layer)


def _affine_model(unit: int, shift: int, inner: FamilyModel) -> FamilyModel:
    def layer(q):
        spec, period, reach = inner.layer(q)
        return spec.mapped(unit=unit, shift=shift), period, reach + abs(shift)

    doc = {"family": "affine", "unit": str(unit), "shift": str(shift), "inner": inner.doc}
    return FamilyModel(doc, layer, inner.depth)


def _scaled_model(factor: int, inner: FamilyModel) -> FamilyModel:
    def layer(q):
        spec, period, reach = inner.layer(q)
        return spec.mapped(scale=factor), period * abs(factor), reach * abs(factor)

    doc = {"family": "scaled", "factor": str(factor), "inner": inner.doc}
    return FamilyModel(doc, layer, inner.depth)


def _explicit_model(rng: random.Random) -> FamilyModel:
    base = sorted(rng.sample(range(-15, 16), rng.randint(8, 12)))
    m = rng.choice((0, 0, 4, 5, 6))
    res = tuple(sorted(rng.sample(range(m), 1))) if m else ()
    layers = []
    elems = list(base)
    for _ in range(rng.randint(2, 4)):
        layers.append(tuple(elems))
        elems = sorted(rng.sample(elems, max(len(elems) - rng.randint(1, 2), 2)))
    docs, specs = [], []
    for layer in layers:
        atoms = [("fin", layer)]
        doc = _fin(layer)
        if m:
            atoms.append(("cong", m, res))
            doc = {
                "kind": "union",
                "parts": [
                    {"kind": "congruence", "modulus": str(m), "residues": [str(r) for r in res]},
                    doc,
                ],
            }
        docs.append(doc)
        specs.append(Spec(atoms))
    reach = 16 + m
    return FamilyModel(
        {"family": "explicit", "sets": docs},
        lambda q: (specs[q - 1], m or 1, reach),
        depth=len(layers),
    )


def _shares(kinds, n: int) -> list:
    """n entries that repeat kinds in turn, so every kind gets an equal share."""
    return [kinds[i % len(kinds)] for i in range(n)]


class ProductModel:
    """Componentwise pairing of two generated families."""

    def __init__(self, left: FamilyModel, right: FamilyModel):
        self.left, self.right = left, right
        self.doc = {"family": "product", "left": left.doc, "right": right.doc}


class HsetStream:
    """A seeded stream of `hset` requests over all nine family kinds.

    About 3% are `scaled` families, which carry no certificate and take the
    empirical path; the rest are certified.  About half of the families
    draw their core from a small pool, so repeated cores are common.
    """

    name = "hset-stream"
    requests = 1000
    uncertified = 30
    hmax = 4
    _SIMPLE = ("tail", "half-tail", "congruence-chain", "coset-tail", "enumeration")
    _CERTIFIED = _SIMPLE + ("affine", "explicit", "product")

    def __init__(self, seed: int):
        rng = random.Random(f"hset-stream/{seed}")
        self._rng = rng
        # the pool holds the kinds in the shares fresh cores draw them, so
        # the cost of the pooled half does not swing with the seed
        self._core_pool = [_random_core(rng, kind) for kind in CORE_KINDS]
        self._finite_pool = [_random_core(rng, "finite") for _ in range(2)]
        self._chain_pool = [self._chain_params() for _ in range(2)]
        # each pass gets the same mix: kinds in equal shares, then shuffled
        kinds = _shares(self._CERTIFIED, self.requests - self.uncertified)
        kinds += [("scaled", k) for k in _shares(self._SIMPLE, self.uncertified)]
        rng.shuffle(kinds)
        self.models = []
        for n, kind in enumerate(kinds):
            if isinstance(kind, tuple):
                factor = (2, 3, -2)[n % 3]
                self.models.append(_scaled_model(factor, self._simple(kind[1])))
            else:
                self.models.append(self._family(kind))
        self.texts = [json.dumps(m.doc) for m in self.models]
        self._checked: dict = {}  # repeated families share their witness checks
        del self._rng

    def _core(self, finite_only: bool = False) -> CoreModel:
        rng = self._rng
        if rng.random() < 0.5:
            return rng.choice(self._finite_pool if finite_only else self._core_pool)
        return _random_core(rng, "finite" if finite_only else None)

    def _chain_params(self):
        rng = self._rng
        core = tuple(sorted(rng.sample(range(-10, 11), rng.randint(2, 5))))
        m_star = max(abs(a) for a in core)
        return core, 2 * m_star + 1 + rng.randint(0, 5), rng.choice((2, 3))

    def _simple(self, kind: str) -> FamilyModel:
        rng = self._rng
        if kind == "tail":
            return _tail_model(self._core())
        if kind == "half-tail":
            # a core bounded below keeps the finiteness certificate
            return _half_tail_model(self._core(finite_only=True))
        if kind == "congruence-chain":
            params = rng.choice(self._chain_pool) if rng.random() < 0.5 else self._chain_params()
            return _chain_model(*params)
        if kind == "coset-tail":
            d = rng.randint(2, 9)
            x0 = rng.choice([x for x in range(-20, 21) if x % d])
            return _coset_model(d, x0)
        return _enumeration_model(self._core())

    def _family(self, kind: str):
        rng = self._rng
        if kind in self._SIMPLE:
            return self._simple(kind)
        if kind == "affine":
            return _affine_model(rng.choice((1, -1)), rng.randint(-5, 5),
                                 self._simple(rng.choice(self._SIMPLE)))
        if kind == "explicit":
            return _explicit_model(rng)
        return ProductModel(self._simple(rng.choice(self._SIMPLE)),
                            self._simple(rng.choice(self._SIMPLE)))

    @property
    def ops(self):
        return self.texts

    def op_name(self, i: int) -> str:
        return self.models[i].doc["family"]

    def run_op(self, i: int):
        doc = json.loads(self.texts[i])
        family = intersets.family_from_json(doc)
        report = intersets.compute_H(family, self.hmax)
        return json.dumps(intersets.report_to_json(report))

    def check(self, i: int, out) -> bool:
        report = json.loads(out)
        verdicts = report["verdicts"]
        if [int(v["h"]) for v in verdicts] != list(range(1, self.hmax + 1)):
            return False
        Q = int(report["config"]["Q"])
        for v in verdicts:
            if v["status"] == intersets.CERTIFIED_OUT:
                key = (self.texts[i], Q, v["h"], json.dumps(v["witness"]))
                if key not in self._checked:
                    self._checked[key] = self._witness_ok(i, Q, int(v["h"]), v["witness"])
                if not self._checked[key]:
                    return False
        return True

    def _witness_ok(self, i: int, Q: int, h: int, witness) -> bool:
        """The witness lies in every depth-Q layer's h-fold sums, found by
        search, and verify_out_witness confirms it is outside hA."""
        model = self.models[i]
        family = intersets.family_from_json(json.loads(self.texts[i]))
        if isinstance(model, ProductModel):
            wx, wy = (int(c) for c in witness)
            return (
                _in_layer_folds(model.left, h, wx, Q)
                and _in_layer_folds(model.right, h, wy, Q)
                and (intersets.verify_out_witness(family.left, h, wx)
                     or intersets.verify_out_witness(family.right, h, wy))
            )
        x = int(witness)
        return _in_layer_folds(model, h, x, Q) and intersets.verify_out_witness(family, h, x)

    def extras(self, outs) -> dict:
        certified = total = 0
        for out in outs:
            if out is None:
                continue
            for v in json.loads(out)["verdicts"]:
                total += 1
                certified += v["status"] in (intersets.CERTIFIED_IN, intersets.CERTIFIED_OUT)
        return {"certified": certified, "verdicts": total}


def _in_layer_folds(model: FamilyModel, h: int, x: int, Q: int) -> bool:
    """x is an h-fold sum of elements of every layer q <= Q, found by search."""
    depth = Q if model.depth is None else min(Q, model.depth)
    for q in range(1, depth + 1):
        spec, period, reach = model.layer(q)
        r = h * (abs(x) + reach) + 16
        if not SumSearch(spec.elements(-r, r), period).has(x, h):
            return False
    return True


# ---------------------------------------------------------------------------
# windowed-sumsets


class WindowedSumsets:
    """`sumset` requests that no closed rewrite answers, enumerated on a
    window and then queried at sampled points.

    Dense inputs are congruence(m, R) | finite(>24 elements) and stress the
    shift-or convolution; sparse inputs are finite sets of 60-300 spread
    elements and stress bit extraction.
    """

    name = "windowed-sumsets"
    queries = 48
    checked = 12
    # dense or sparse -> h -> (requests per pass, largest window).  Windows
    # start at 5e3; the caps keep a pass near five seconds on a shared
    # 2-vCPU Xeon virtual machine.  40 requests leave ten above the p75 tail.
    _SLOTS = {
        True: {2: (11, 40_000), 3: (6, 14_000), 4: (3, 7_000)},
        False: {2: (6, 40_000), 3: (8, 40_000), 4: (6, 20_000)},
    }

    def __init__(self, seed: int):
        rng = random.Random(f"windowed-sumsets/{seed}")
        self.reqs = []
        # every seed gets the same sizes, so that a pass costs about the
        # same for each: the slots of one h split a log scale evenly
        for dense, slots in self._SLOTS.items():
            for h, (n, top) in slots.items():
                for k in range(n):
                    u = (k + 0.5) / n
                    width = int(5_000 * (top / 5_000) ** u)
                    # sparse sets grow from 60 to 300 elements along the slots
                    size = 32 if dense else int(60 + 240 * u)
                    self.reqs.append(self._request(rng, dense, h, width, size))
        rng.shuffle(self.reqs)

    def _request(self, rng: random.Random, dense: bool, h: int, width: int, size: int):
        # the generation radius, and with it the cost, grows with the
        # window's reach from 0, so the center stays near 0
        center = rng.randint(-width // 64, width // 64)
        lo, hi = center - width // 2, center + width // 2
        if dense:
            # the convolution's cost grows with the density, kept at 2/7
            m = rng.choice((7, 14))
            res = tuple(sorted(rng.sample(range(m), 2 * m // 7)))
            # no finite element lies in the congruence, so none is absorbed
            pool = [x for x in range(-600, 601) if x % m not in res]
            xs = tuple(sorted(rng.sample(pool, size)))
            s = intersets.union(intersets.congruence(m, res), intersets.finite(xs))
            spec, period = Spec([("cong", m, res), ("fin", xs)]), m
        else:
            half = width // 2
            xs = tuple(sorted(rng.sample(range(-half, half + 1), size)))
            s = intersets.finite(xs)
            spec, period = Spec([("fin", xs)]), 0
        points = [rng.randint(lo, hi) for _ in range(self.queries)]
        return s, h, intersets.Window(lo, hi), points, spec, period

    @property
    def ops(self):
        return self.reqs

    def op_name(self, i: int) -> str:
        return "dense" if self.reqs[i][5] else "sparse"

    def run_op(self, i: int):
        s, h, window, points, _, _ = self.reqs[i]
        res = intersets.symbolic_hfold_sum(s, h, window)
        return res, [intersets.query(res, x) for x in points]

    def check(self, i: int, out) -> bool:
        _, h, window, points, spec, period = self.reqs[i]
        res, answers = out
        if not isinstance(res, intersets.Windowed) or res.window != window:
            return False
        r = res.generation_radius
        elems = spec.elements(-r, r)
        search = SumSearch(elems, period) if period else PairSums(elems)
        for x, ans in list(zip(points, answers))[: self.checked]:
            if ans.kind == "in" and not search.has(x, h):
                return False
            if ans.kind == "out" and (not res.complete or search.has(x, h)):
                return False
        return True

    def extras(self, outs) -> dict:
        done = [o for o in outs if o is not None]
        return {
            "cells": sum(o[0].window.size for o in done),
            "complete": sum(bool(o[0].complete) for o in done),
            "answers": len(done),
        }


WORKLOADS = {w.name: w for w in (VerifySuite, HsetStream, WindowedSumsets)}
