"""Command-line interface.

Subcommands::

    lambda      certified spectral-radius bracket of a hypergraph file
    bound       Bai-Lu bound and threshold table for (n, r, m)
    check-berge decide Hamiltonian Berge cycle/path existence, with certificate
    check-cert  verify a certificate JSON against a hypergraph file
    gen         emit one of the named constructions as a hypergraph file
    canon       canonical form of a hypergraph file
    verify      run a verification campaign (lemma21 | edges | spectral)

Exit codes: 0 success (campaign PASS), 1 campaign FAIL or rejected
certificate, 2 usage errors and infeasible budgets.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import campaigns
from .berge import find_hamiltonian_berge_cycle, find_hamiltonian_berge_path, verify_certificate
from .bounds import THRESHOLD_NAMES, bai_lu_bound, threshold
from .canonical import canonical_form
from .enumeration import DEFAULT_BUDGET, BudgetExceeded
from .formats import (
    certificate_to_dict,
    load_certificate,
    load_hypergraph,
    write_hypergraph_text,
)
from .hypergraph import clique_plus_isolated, clique_plus_pendant, complete
from .spectral import spectral_radius

NEGATIVE_RANKS_SHOWN = 20  # negative ranks listed per progress line

GENERATORS = {
    "complete": complete,
    "clique_plus_isolated": clique_plus_isolated,
    "clique_plus_pendant": clique_plus_pendant,
}


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _emit_report(report: campaigns.VerificationReport, fmt: str, out: str | None) -> int:
    if fmt == "csv":
        _write_output("\n".join(report.csv_rows()), out)
    else:
        _write_output(report.to_json(), out)
    return 0 if report.passed else 1


def _progress_printer(kind: str):
    def emit(spec, lo: int, hi: int, res) -> None:
        line = {"m": spec.m, "mode": spec.mode}
        if spec.base:
            line["base"] = spec.base
        line["chunk"] = [lo, hi]
        if kind == "berge":
            count, pos, neg = res
            line.update(
                visited=count,
                hamiltonian=pos,
                nonhamiltonian=len(neg),
                negative_ranks=[rank for rank, _ in neg[:NEGATIVE_RANKS_SHOWN]],
            )
        else:
            line.update(
                visited=res.audited,
                certified_above=res.above,
                undecided=len(res.undecided),
                unconverged=res.unconverged,
                violations=len(res.violations),
            )
        print(json.dumps(line), file=sys.stderr, flush=True)

    return emit


def cmd_lambda(args) -> int:
    if args.max_iter < 1:
        raise ValueError(f"--max-iter must be at least 1, got {args.max_iter}")
    h = load_hypergraph(args.input)
    est = spectral_radius(h, tol=args.tol, max_iter=args.max_iter)
    _write_output(
        json.dumps(
            {
                "lower": est.lower,
                "upper": est.upper,
                "iterations": est.iterations,
                "converged": est.converged,
            }
        ),
        args.out,
    )
    return 0


def cmd_bound(args) -> int:
    if not 2 <= args.r <= args.n:
        raise ValueError(f"need 2 <= r <= n, got r={args.r}, n={args.n}")
    values: dict[str, int | None] = {}
    for name in THRESHOLD_NAMES:
        try:
            values[name] = threshold(name, args.n, args.r).value
        except ValueError:
            values[name] = None
    _write_output(
        json.dumps(
            {
                "n": args.n,
                "r": args.r,
                "m": args.m,
                "bai_lu_bound": bai_lu_bound(args.r, args.m),
                "thresholds": values,
            }
        ),
        args.out,
    )
    return 0


def cmd_check_berge(args) -> int:
    h = load_hypergraph(args.input)
    endpoints = None
    if args.endpoints:
        parts = args.endpoints.split(",")
        if len(parts) != 2:
            raise ValueError("--endpoints takes two comma-separated vertex ids")
        endpoints = (int(parts[0]), int(parts[1]))
    if args.kind == "cycle":
        if endpoints is not None:
            raise ValueError("--endpoints only applies to --kind path")
        res = find_hamiltonian_berge_cycle(h)
    else:
        res = find_hamiltonian_berge_path(h, endpoints)
    payload = {
        "kind": args.kind,
        "found": res.certificate is not None,
        "certificate": certificate_to_dict(res.certificate) if res.certificate else None,
        "reason": res.reason,
        "nodes": res.stats.nodes,
        "augments": res.stats.augments,
    }
    _write_output(json.dumps(payload), args.out)
    return 0


def cmd_check_cert(args) -> int:
    h = load_hypergraph(args.input)
    cert = load_certificate(args.cert)
    violations = verify_certificate(h, cert)
    payload = {
        "accepted": not violations,
        "hamiltonian": not violations and len(cert.vertices) == h.n,
        "violations": violations,
    }
    _write_output(json.dumps(payload), args.out)
    return 0 if not violations else 1


def cmd_gen(args) -> int:
    h = GENERATORS[args.kind](args.n, args.r)
    _write_output(write_hypergraph_text(h), args.out)
    return 0


def cmd_canon(args) -> int:
    h = load_hypergraph(args.input)
    _write_output(json.dumps({"canonical": canonical_form(h).compact()}), args.out)
    return 0


def cmd_verify(args) -> int:
    run = dict(jobs=args.jobs, budget=args.budget, seed=args.seed, progress=None)
    if args.verbose:
        run["progress"] = _progress_printer("spectral" if args.what == "spectral" else "berge")
    if args.what == "lemma21":
        report = campaigns.verify_lemma_r_plus_2(args.n, **run)
    elif args.what == "edges":
        report = campaigns.verify_edge_theorem(args.n, args.r, **run)
    else:
        report = campaigns.verify_spectral_theorem(args.n, args.r, samples=args.samples, tol=args.tol, **run)
    return _emit_report(report, args.format, args.out)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bergeham",
        description="Berge Hamiltonicity, hypergraph spectral radii, and threshold verification",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="certified spectral radius bracket of a hypergraph file")
    p.add_argument("--input", required=True, help="hypergraph file (text or JSON)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10 ** 6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("bound", help="Bai-Lu bound and threshold table for (n, r, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("check-berge", help="decide Hamiltonian Berge cycle/path existence")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("cycle", "path"), default="cycle")
    p.add_argument("--endpoints", help="two comma-separated vertex ids (paths only)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_berge)

    p = sub.add_parser("check-cert", help="verify a certificate JSON against a hypergraph")
    p.add_argument("--input", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_cert)

    p = sub.add_parser("gen", help="emit a named construction as a hypergraph file")
    p.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("canon", help="canonical form of a hypergraph file")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("verify", help="run a verification campaign")
    vsub = p.add_subparsers(dest="what", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out")
    common.add_argument("--verbose", action="store_true", help="stream per-chunk progress as JSON lines on stderr")

    q = vsub.add_parser("lemma21", parents=[common], help="base-case sweep at uniformity n-2")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_verify)

    q = vsub.add_parser("edges", parents=[common], help="edge-count threshold campaign")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(func=cmd_verify)

    q = vsub.add_parser("spectral", parents=[common], help="spectral threshold campaign")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--samples", type=int, default=1000)
    q.add_argument("--tol", type=float, default=1e-9)
    q.set_defaults(func=cmd_verify)

    return top


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
