"""Command line front end: sumsets, representation counts, H reports,
and named verification scenarios with deterministic TSV or JSON output."""

from __future__ import annotations

import argparse
import json
import sys

from .analyzer import HConfig, compute_H
from .errors import CapError, InputError, InvariantError, NoClosedForm, ParseError
from .scenarios import (
    ScenarioOptions,
    format_result,
    result_to_json,
    result_to_tsv,
    run_scenario,
    scenario_ids,
)
from .serialize import (
    family_from_json,
    parse_set_expr,
    report_dumps,
    set_to_json,
)
from .sumsets import Closed, members_in, representation_count, symbolic_hfold_sum
from .symbolic import Window, check_cap


def _parse_window(text: str) -> Window:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ParseError(f"window must be LO:HI, got {text!r}")
    try:
        return Window(int(lo), int(hi))
    except ValueError:
        raise ParseError(f"window bounds must be integers, got {text!r}") from None


def _add_common(p: argparse.ArgumentParser, fmt_default: str, choices) -> None:
    p.add_argument("--window", type=_parse_window, default=None, metavar="LO:HI")
    p.add_argument("--gen-radius", type=int, default=None, metavar="R")
    p.add_argument("--format", choices=choices, default=fmt_default)
    p.add_argument("--out", default=None, metavar="FILE")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="intersets",
        description="exact integer sumset computations and layered-family reports",
    )
    sub = top.add_subparsers(dest="command", required=True)

    hset = sub.add_parser("hset", help="H report for a family given as JSON")
    hset.add_argument(
        "--family",
        required=True,
        metavar="FILE",
        help="family description as JSON; '-' reads standard input",
    )
    hset.add_argument("--hmax", type=int, default=4)
    hset.add_argument("--Q", type=int, default=None)
    _add_common(hset, "tsv", ("tsv", "json"))

    verify = sub.add_parser("verify", help="run a named verification scenario")
    verify.add_argument("scenario", choices=sorted(scenario_ids()))
    verify.add_argument("--hmax", type=int, default=None)
    verify.add_argument("--Q", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--samples", type=int, default=None)
    _add_common(verify, "text", ("text", "tsv", "json"))

    sumset = sub.add_parser("sumset", help="h-fold sumset of one set expression")
    sumset.add_argument("--set", required=True, dest="set_expr", metavar="EXPR")
    sumset.add_argument("--h", type=int, required=True)
    _add_common(sumset, "tsv", ("tsv", "json"))

    repfn = sub.add_parser("repfn", help="representation counts for targets")
    repfn.add_argument("--set", required=True, dest="set_expr", metavar="EXPR")
    repfn.add_argument("--h", type=int, required=True)
    repfn.add_argument("--target", type=int, default=None, metavar="X")
    repfn.add_argument("--mode", choices=("add", "mult"), default="add")
    _add_common(repfn, "tsv", ("tsv", "json"))

    return top


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_family(source: str):
    if source == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read family file: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"family description is not valid JSON: {exc}") from None
    return family_from_json(data)


def _cmd_hset(args) -> int:
    family = _read_family(args.family)
    cfg = HConfig(
        Q=HConfig.Q if args.Q is None else args.Q,
        window=HConfig.window if args.window is None else args.window,
        gen_radius=args.gen_radius,
    )
    report = compute_H(family, args.hmax, cfg)
    _emit(report_dumps(report, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    opts = ScenarioOptions(
        hmax=args.hmax,
        Q=args.Q,
        window=args.window,
        gen_radius=args.gen_radius,
        seed=args.seed,
        samples=args.samples,
    )
    res = run_scenario(args.scenario, opts)
    if args.format == "json":
        _emit(json.dumps(result_to_json(res), indent=2) + "\n", args.out)
    elif args.format == "tsv":
        _emit(result_to_tsv(res), args.out)
    else:
        _emit(format_result(res), args.out)
    return 0 if res.ok else 1


def _cmd_sumset(args) -> int:
    s = parse_set_expr(args.set_expr)
    try:
        res = symbolic_hfold_sum(s, args.h, args.window, args.gen_radius)
    except NoClosedForm:
        raise InputError(
            "no closed form for this sumset; pass --window LO:HI to enumerate"
        ) from None
    if isinstance(res, Closed):
        members = (
            sorted(members_in(res, args.window)) if args.window is not None else None
        )
        if args.format == "json":
            result = {"kind": "closed", "set": set_to_json(res.set)}
            if members is not None:
                result["window"] = {
                    "lo": str(args.window.lo),
                    "hi": str(args.window.hi),
                }
                result["members"] = [str(x) for x in members]
            payload = {"h": str(args.h), "input": set_to_json(s), "result": result}
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        elif members is not None:
            _emit("\n".join(["x"] + [str(x) for x in members]) + "\n", args.out)
        else:
            _emit("closed\t" + json.dumps(set_to_json(res.set)) + "\n", args.out)
        return 0
    if args.format == "json":
        payload = {
            "h": str(args.h),
            "input": set_to_json(s),
            "result": {
                "kind": "windowed",
                "window": {"lo": str(res.window.lo), "hi": str(res.window.hi)},
                "members": [str(x) for x in res.members],
                "complete": res.complete,
                "generation_radius": str(res.generation_radius),
            },
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["x"] + [str(x) for x in res.members]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_repfn(args) -> int:
    s = parse_set_expr(args.set_expr)
    if args.target is None and args.window is None:
        raise InputError("repfn needs --target X or --window LO:HI")
    if args.target is not None:
        targets = [args.target]
    else:
        check_cap(args.window)  # before the window's targets are listed
        targets = range(args.window.lo, args.window.hi + 1)
    rows = []
    for x in targets:
        rc = representation_count(
            s, args.h, x, mode=args.mode, gen_radius=args.gen_radius or 256
        )
        rows.append((x, rc))
    if args.format == "json":
        payload = {
            "h": str(args.h),
            "mode": args.mode,
            "input": set_to_json(s),
            "counts": [
                {
                    "x": str(x),
                    "count": None if rc.count is None else str(rc.count),
                    "exact": rc.exact,
                }
                for x, rc in rows
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["x\tcount\texact"]
        for x, rc in rows:
            cnt = "inf" if rc.count is None else str(rc.count)
            lines.append(f"{x}\t{cnt}\t{'yes' if rc.exact else 'lower-bound'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "hset": _cmd_hset,
    "verify": _cmd_verify,
    "sumset": _cmd_sumset,
    "repfn": _cmd_repfn,
}


def _join_window_values(argv: list[str]) -> list[str]:
    # argparse rejects '--window -100:100' (the value looks like an option),
    # so fold the pair into the '--window=LO:HI' form it does accept
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        if tok == "--window":
            val = next(it, None)
            out.append(tok if val is None else f"--window={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_window_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return _COMMANDS[args.command](args)
    except CapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
